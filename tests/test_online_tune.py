"""Online autotuning overlay (the ``online_tune`` option).

The dispatch pipeline feeds measured per-(collective, size-bucket)
latencies back into the engine's :class:`OnlineTuner`; after the
observe/explore warm-up the route stage follows the measured winner
instead of the static §3.4 table.  The load-bearing properties tested
here: routes never deviate during the observe phase (short runs stay
bit-identical with the option on or off), a deliberately wrong static
table is corrected after warm-up, overlays die with their communicator
(``Comm_free`` / ``Comm_shrink``), and a collective missing from the
table degrades to MPI like a capability miss.
"""

from repro import fastpath
from repro.core.fallback import FallbackReason
from repro.core.runtime import world_communicator
from repro.core.tuning_table import TuningTable, cached_table, _cache
from repro.core.online_tune import OnlineTuner, bucket_span, size_bucket
from repro.errors import CommRevokedError
from repro.mpi import SUM
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults

#: a table that is WRONG for large device-resident allreduces on
#: thetagpu: it pins every size to the MPI algorithms, where NCCL's
#: ring is measurably faster in the simulator's virtual time
_ALL_MPI = TuningTable(
    backend="nccl", shape_key=("test", "all-mpi"),
    entries={coll: [(-1, "mpi")]
             for coll in ("allreduce", "bcast", "reduce", "allgather",
                          "alltoall", "reduce_scatter", "gather",
                          "scatter")})

_COUNT = 1 << 16   # 256 KiB of float32: squarely CCL territory


def _allreduce_body(ctx, iters, table):
    comm = world_communicator(ctx, table=table)
    buf = ctx.device.zeros(_COUNT)
    out = ctx.device.zeros(_COUNT)
    for i in range(iters):
        buf.array[:] = float(ctx.rank + i)
        comm.Allreduce(buf, out, op=SUM)
    stats = comm.coll.stats
    return (float(out.array[0]), stats.xccl_calls, stats.mpi_calls,
            comm.ctx_id)


class TestConvergence:
    def test_wrong_static_table_corrected_after_warmup(self, thetagpu1):
        """The feedback loop: static says MPI everywhere, measurement
        says CCL; after observe+explore the bucket fits to xccl and
        the counters record the flip."""
        engine = Engine(thetagpu1, nranks=8, online_tune=True)
        results = engine.run(_allreduce_body, iters=12, table=_ALL_MPI)
        expect = sum(range(8)) + 11 * 8
        assert all(r[0] == expect for r in results)
        # every rank explored xccl and then stayed on it post-fit
        assert all(r[1] > 0 for r in results)
        overlay = engine.online_tuner.overlay()
        key = (results[0][3], "allreduce", size_bucket(_COUNT * 4))
        assert overlay[key]["static"] == "mpi"
        assert overlay[key]["fitted"] == "xccl"
        assert fastpath.STATS.online_updates >= 1
        assert fastpath.STATS.route_flips >= 1

    def test_observe_phase_follows_static_route_exactly(self, thetagpu1):
        """Below the warm-up threshold the gate is provably inert: all
        calls take the static route and no bucket has fitted."""
        engine = Engine(thetagpu1, nranks=4, online_tune=True)
        # observe_calls defaults to 4: stop exactly at the boundary
        results = engine.run(_allreduce_body, iters=4, table=_ALL_MPI)
        assert all(r[1] == 0 and r[2] == 4 for r in results)
        overlay = engine.online_tuner.overlay()
        assert all(state["fitted"] is None for state in overlay.values())
        assert fastpath.STATS.online_updates == 0

    def test_gate_off_is_inert(self, thetagpu1):
        """With the option off there is no overlay to observe into."""
        engine = Engine(thetagpu1, nranks=4, online_tune=False)
        results = engine.run(_allreduce_body, iters=12, table=_ALL_MPI)
        assert all(r[1] == 0 and r[2] == 12 for r in results)
        assert engine.online_tuner is None


def _tune_labels_body(ctx, iters, persistent):
    """The ``tune:<phase>:<route>`` trace labels of ``iters`` blocking
    ``Allreduce`` calls, or of one ``Allreduce_init`` and ``iters``
    ``Start``s."""
    comm = world_communicator(ctx, table=_ALL_MPI)
    buf = ctx.device.zeros(_COUNT)
    out = ctx.device.zeros(_COUNT)
    if persistent:
        req = comm.Allreduce_init(buf, out, op=SUM)
        for _ in range(iters):
            req.Start().wait()
    else:
        for _ in range(iters):
            comm.Allreduce(buf, out, op=SUM)
    return [ev.label for ev in ctx.trace.events
            if ev.label.startswith("tune:")]


def test_persistent_starts_count_as_the_calls_they_stand_for(thetagpu1):
    """Initialising a persistent collective spends no tuner call: the
    phase of K ``Start``s is the phase of K blocking calls (init once
    walked the route stage, so the fourth ``Start`` already explored)."""
    runs = {persistent: Engine(thetagpu1, nranks=4, online_tune=True,
                               trace=True).run(_tune_labels_body, iters=6,
                                               persistent=persistent)
            for persistent in (False, True)}
    assert runs[True] == runs[False]
    assert [label.split(":")[1] for label in runs[True][0]] == \
        ["observe"] * 4 + ["explore"] * 2


class TestUnitPhases:
    """The tuner state machine, unit-level (no engine)."""

    def test_phase_schedule_is_pure_function_of_call_index(self):
        tuner = OnlineTuner(observe_calls=2, explore_calls=1)
        seq = [tuner.advise("c", "allreduce", 10, i, "mpi",
                            ["mpi", "xccl"])[1] for i in range(3)]
        assert seq == ["observe", "observe", "explore"]

    def test_fit_picks_measured_winner(self):
        tuner = OnlineTuner(observe_calls=1, explore_calls=1)
        tuner.advise("c", "allreduce", 10, 0, "mpi", ["mpi", "xccl"])
        tuner.observe("c", "allreduce", 10, "mpi", 100.0)
        tuner.advise("c", "allreduce", 10, 1, "mpi", ["mpi", "xccl"])
        tuner.observe("c", "allreduce", 10, "xccl", 10.0)
        route, phase = tuner.advise("c", "allreduce", 10, 2, "mpi",
                                    ["mpi", "xccl"])
        assert (route, phase) == ("xccl", "fitted")

    def test_static_wins_ties(self):
        tuner = OnlineTuner(observe_calls=1, explore_calls=1)
        tuner.advise("c", "bcast", 5, 0, "mpi", ["mpi", "xccl"])
        tuner.observe("c", "bcast", 5, "mpi", 50.0)
        tuner.advise("c", "bcast", 5, 1, "mpi", ["mpi", "xccl"])
        tuner.observe("c", "bcast", 5, "xccl", 50.0)
        route, _ = tuner.advise("c", "bcast", 5, 2, "mpi", ["mpi", "xccl"])
        assert route == "mpi"

    def test_release_drops_only_that_comm(self):
        tuner = OnlineTuner()
        tuner.advise("a", "allreduce", 3, 0, "mpi", ["mpi", "xccl"])
        tuner.advise("b", "allreduce", 3, 0, "mpi", ["mpi", "xccl"])
        tuner.release("a")
        assert set(k[0] for k in tuner.overlay()) == {"b"}

    def test_bucket_span_inverts_size_bucket(self):
        for nbytes in (1, 2, 3, 8, 1024, 4097, 1 << 20):
            lo, hi = bucket_span(size_bucket(nbytes))
            assert lo <= nbytes <= hi


class TestLifecycle:
    """Overlays die with their communicator (``Comm_free``'s drain is
    pinned by ``tests/test_ledger.py``)."""

    def test_shrink_drops_overlay_and_retunes_survivors(self, thetagpu1):
        """Comm_shrink tears the old comm's overlay down; the shrunk
        comm re-tunes from scratch for the survivor shape."""
        def body(ctx):
            comm = world_communicator(ctx, table=_ALL_MPI)
            buf = ctx.device.zeros(_COUNT)
            out = ctx.device.zeros(_COUNT)
            try:
                for i in range(8):
                    buf.array[:] = float(ctx.rank + i)
                    comm.Allreduce(buf, out, op=SUM)
            except CommRevokedError:
                comm.Comm_agree()
                new = comm.Comm_shrink()
                tuner = ctx.engine.online_tuner
                old_overlay = len(tuner.overlay(comm.ctx_id))
                for i in range(12):
                    buf.array[:] = float(new.Get_rank() + i)
                    new.Allreduce(buf, out, op=SUM)
                fitted = [s["fitted"]
                          for s in tuner.overlay(new.ctx_id).values()]
                return (old_overlay, fitted)
            return None

        engine = Engine(thetagpu1, nranks=8, online_tune=True)
        with_faults(engine, FaultPlan().kill(2, after_us=200.0))
        results = engine.run(body)
        assert results[2] is None
        for i, r in enumerate(results):
            if i == 2:
                continue
            old_overlay, fitted = r
            assert old_overlay == 0        # released by Comm_shrink
            assert fitted == ["xccl"]      # survivor shape re-fitted

    def test_new_engine_clears_memoized_tables(self, thetagpu1):
        """Back-to-back runs: Engine construction zeroes the process
        globals — the memoized tuning tables and the counters — so a
        second run can never be served the first run's state."""
        from repro.mpi.config import mvapich_gpu
        from repro.perfmodel import ccl_params
        from repro.perfmodel.shape import shape_of
        shape = shape_of(thetagpu1, range(8))
        cached_table(shape, ccl_params("nccl"), mvapich_gpu())
        assert len(_cache) > 0
        Engine(thetagpu1, nranks=2)
        assert len(_cache) == 0
        assert fastpath.STATS.dispatch_calls == 0


class TestTuningMiss:
    def test_missing_collective_degrades_to_mpi(self, thetagpu1):
        """A collective absent from the table falls back to the MPI
        algorithms (counted as a route fallback) instead of erroring."""
        sparse = TuningTable(backend="nccl", shape_key=("test", "sparse"),
                             entries={"allreduce": [(-1, "xccl")]})

        def body(ctx):
            comm = world_communicator(ctx, table=sparse)
            buf = ctx.device.zeros(64)
            if ctx.rank == 0:
                buf.array[:] = 9.0
            comm.Bcast(buf, root=0)
            return (float(buf.array[0]), dict(comm.coll.stats.fallbacks))

        engine = Engine(thetagpu1, nranks=4)
        results = engine.run(body)
        for value, fallbacks in results:
            assert value == 9.0
            assert fallbacks.get(("bcast", FallbackReason.TUNING_MISS)) == 1
        assert fastpath.STATS.route_fallbacks >= 1

    def test_missing_collective_marks_trace(self, thetagpu1):
        sparse = TuningTable(backend="nccl", shape_key=("test", "sparse"),
                             entries={"allreduce": [(-1, "xccl")]})

        def body(ctx):
            comm = world_communicator(ctx, table=sparse)
            buf = ctx.device.zeros(64)
            comm.Bcast(buf, root=0)

        engine = Engine(thetagpu1, nranks=2, trace=True)
        engine.run(body)
        labels = [ev.label for tr in engine.traces() for ev in tr.events
                  if ev.kind == "stage"]
        assert "tuning:missing:bcast" in labels
