"""Engine scale and scheduler behaviour.

Pins the rank scheduler (:mod:`repro.sim.sched`) and the
failure-handling that rides on it:

* a 256-rank oversubscribed job (barrier + allreduce) completes within
  a tight wall-clock budget, and two fresh engines agree bit-for-bit on
  payloads and virtual times;
* a multi-node job on contended NIC wires gives the same per-rank
  virtual clocks in every fresh engine;
* communicator set-up is linear in ranks — counted in device lookups
  and traced memory, not wall clock;
* a collective whose ``compute`` raises propagates that error to every
  party immediately — nobody hangs into a misleading
  :class:`DeadlockError`;
* a true deadlock, and a rank that raises mid-collective, are both
  reported the moment the last live rank parks — no wall-clock timeout;
* traces keep the right rank/node attribution when ranks oversubscribe
  nodes.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

import numpy as np
import pytest

from repro import fastpath
from repro.baselines.pure_ccl import PureCCLHarness
from repro.core.dispatch import DispatchMode
from repro.errors import DeadlockError, RankFailedError
from repro.hw.systems import make_system
from repro.sim.engine import Engine


def _smoke_body(ctx):
    h = PureCCLHarness(ctx, "nccl")
    buf = ctx.device.zeros(4, dtype=np.float32)
    buf.array[:] = ctx.rank + 1
    for _ in range(3):
        h.Allreduce(buf, buf, count=4)
    h.Barrier()
    return float(ctx.now), buf.array.tobytes()


def _run_smoke(nranks: int):
    cluster = make_system("thetagpu", 4)
    rpn = -(-nranks // cluster.node_count)
    engine = Engine(cluster, nranks=nranks, ranks_per_node=rpn)
    t0 = time.perf_counter()
    results = engine.run(_smoke_body)
    return time.perf_counter() - t0, results


def test_scale_smoke_256():
    """256 oversubscribed ranks of barrier + allreduce finish inside
    the budget, and two fresh engines agree bit-for-bit on every rank's
    payload and completion time."""
    wall_a, first = _run_smoke(256)
    wall_b, second = _run_smoke(256)
    # measured ~0.2s on a loaded CI worker; 60s is a hang detector, not
    # a perf assertion
    assert wall_a < 60.0
    assert wall_b < 60.0
    assert first == second  # (virtual time, payload bytes) per rank
    # the run actually scheduled fibers (and parked some: 256 ranks
    # rendezvousing through one slot cannot all arrive running)
    snap = fastpath.STATS.snapshot()
    assert snap["coop_runs"] == 1
    assert snap["coop_parks"] > 0
    assert snap["coop_switches"] >= 256


def _hot_allreduce_barrier(ctx, marks):
    """Five 4-float ``Allreduce`` + ``Barrier`` pairs (both keys compile
    on their second call and run compiled from their third); rank 0
    marks the scheduler's hand-offs and the compiled collectives after
    the second pair and after the last."""
    from repro.mpi import Communicator
    comm = Communicator.world(ctx)
    send, recv = ctx.device.zeros(4), ctx.device.zeros(4)
    send.fill(ctx.rank + 1.0)
    engine = ctx.engine
    for k in range(5):
        comm.Allreduce(send, recv)
        comm.Barrier()
        if ctx.rank == 0 and k in (1, 4):
            marks.append((engine.scheduler.handoffs,
                          engine.compiled_replays))
    return ctx.now


def test_compiled_handoffs_256():
    """4 x 64 ranks of hot compiled collectives hand the run token
    between threads about once per member per call: the token's holder
    runs a woken member's steps itself and releases the member's thread
    only at the end of its slice (``sched`` module docstring) — against
    about four hand-offs per member per call when every woken member
    ran on its own thread.  The clocks are the traced (per-rank)
    run's."""
    cluster = make_system("thetagpu", 4)
    marks = []
    engine = Engine(cluster, nranks=256, ranks_per_node=64, trace=False,
                    online_tune=False)
    clocks = engine.run(_hot_allreduce_barrier, marks)
    (h0, c0), (h1, c1) = marks
    assert c1 - c0 == 6
    assert (h1 - h0) / (c1 - c0) <= 256 + 2, h1 - h0
    traced = Engine(cluster, nranks=256, ranks_per_node=64, trace=True,
                    online_tune=False)
    assert clocks == traced.run(_hot_allreduce_barrier, [])
    assert traced.compiled_replays == 0


def test_multinode_virtual_time_is_reproducible():
    """8 nodes x 8 ranks on contended NIC wires: with one run token the
    booking order of a shared wire is a function of the program, so two
    fresh engines give every rank the same virtual clock to the bit."""
    from repro.core import runtime

    def body(mpx):
        comm = mpx.COMM_WORLD
        per_peer = (16 << 10) // 4
        a2a_send = mpx.device_array(per_peer * comm.size, fill=1.0)
        a2a_recv = mpx.device_array(per_peer * comm.size, fill=0.0)
        comm.Alltoall(a2a_send, a2a_recv)
        nelem = (4 << 20) // 4
        send = mpx.device_array(nelem, fill=1.0)
        recv = mpx.device_array(nelem, fill=0.0)
        comm.Allreduce(send, recv)
        return mpx.ctx.now, float(recv.array[0])

    def once():
        return runtime.run(body, system="thetagpu", nodes=8,
                           ranks_per_node=8)

    first, second = once(), once()
    assert all(total == 64.0 for _, total in first)
    assert len({now for now, _ in first}) > 1   # ranks do finish apart
    assert first == second


def test_scale_smoke_256_hier():
    """256 oversubscribed ranks through the full MPI stack on a table
    with ``hier`` rows: the striped executor holds up at scale, routes
    through the hierarchy, and sums correctly."""
    from repro.core import runtime
    from tools.site_tables import hier_table

    nelem = (2 << 20) // 4  # above the hierarchy routing threshold

    def body(mpx):
        comm = mpx.COMM_WORLD
        send = mpx.device_array(nelem, fill=1.0)
        recv = mpx.device_array(nelem, fill=0.0)
        comm.Allreduce(send, recv)
        return float(recv.array[0]), float(recv.array[-1])

    cluster = make_system("thetagpu", 4, nics=8)
    t0 = time.perf_counter()
    results = runtime.run(body, system=cluster, nranks=256,
                          ranks_per_node=64,
                          table=hier_table(cluster, 256, 64))
    wall = time.perf_counter() - t0
    assert wall < 120.0  # hang detector, not a perf assertion
    assert all(r == (256.0, 256.0) for r in results)
    snap = fastpath.STATS.snapshot()
    assert snap["route_hier"] == 256
    assert snap["hier_stripe_ops"] > 0


def _setup_footprint(nranks: int, mode: str, monkeypatch):
    """COMM_WORLD + one small Allreduce + Barrier at ``nranks`` ranks:
    (device lookups, ``shape_of`` calls, tracemalloc peak, per-rank
    ``(record, group, rank map)``)."""
    from repro.core import runtime
    from repro.hw.cluster import Cluster
    from repro.perfmodel import shape

    calls = {"lookups": 0, "shape_of": 0}

    def counting(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    counting(Engine, "device_of", "lookups")
    counting(Cluster, "device_for_rank", "lookups")
    counting(shape, "shape_of", "shape_of")

    def body(ctx):
        comm = runtime.world_communicator(ctx, mode=DispatchMode(mode))
        buf = ctx.device.zeros(4)
        buf.fill(1.0)
        comm.Allreduce(buf, buf)
        comm.Barrier()
        assert buf.array[0] == nranks
        return comm.record, comm.group, comm._from_world

    # the previous run's garbage goes first: a collection inside the
    # window frees it and moves the peak by up to a fifth
    gc.collect()
    tracemalloc.start()
    try:
        views = Engine(make_system("thetagpu", 4), nranks=nranks,
                       ranks_per_node=nranks // 4).run(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    return calls["lookups"], calls["shape_of"], peak, views


@pytest.mark.parametrize("mode", ["hybrid", "pure_xccl"])
def test_setup_is_linear_in_ranks(mode, monkeypatch):
    """What every member of a communicator derives identically is built
    once, on the communicator's record, not once per rank: device
    lookups stay linear in the rank count (each rank walking every
    member made them P^2 + P for ``device_for_rank`` alone), memory
    about doubles when the ranks double, every member holds the same
    group and rank map, and the shape is computed once."""
    _setup_footprint(8, mode, monkeypatch)  # imports and lazy tables
    peaks = []
    for nranks in (128, 256):
        lookups, shapes, peak, views = _setup_footprint(nranks, mode,
                                                        monkeypatch)
        assert lookups <= 32 * nranks
        assert shapes == 1
        record = views[0][0]
        assert all(rec is record and group is record.group
                   and rank_of is record.rank_of
                   for rec, group, rank_of in views)
        peaks.append(peak)
    assert peaks[1] <= 2.5 * peaks[0]


def test_collective_compute_failure_propagates():
    """Satellite: ``compute`` raising on the last-arriving rank must
    fail *every* party with the original error, not strand the others
    until deadlock detection turns it into a DeadlockError."""
    engine = Engine(make_system("thetagpu", 1), nranks=4)

    def body(ctx):
        slot = ctx.collective_slot("boom")

        def compute(payloads):
            raise ValueError("reduction exploded")

        slot.exchange(ctx.rank, ctx.rank, compute)

    t0 = time.perf_counter()
    with pytest.raises(RankFailedError) as ei:
        engine.run(body)
    wall = time.perf_counter() - t0
    # every rank reports the one ValueError; none degraded to deadlock
    assert len(ei.value.failures) == 4
    for exc in ei.value.failures.values():
        assert isinstance(exc, ValueError)
        assert not isinstance(exc, DeadlockError)
    assert wall < 1.0


def test_poisoned_slot_is_replaced():
    """A failed collective slot may not wedge its key: the next call
    under the same key gets a fresh slot and succeeds."""
    engine = Engine(make_system("thetagpu", 1), nranks=4)

    def body(ctx):
        slot = ctx.collective_slot("retry")
        try:
            slot.exchange(ctx.rank, ctx.rank,
                          lambda p: (_ for _ in ()).throw(ValueError("x")))
        except ValueError:
            pass
        slot2 = ctx.collective_slot("retry")
        return slot2.exchange(ctx.rank, ctx.rank, lambda p: sorted(p))

    results = engine.run(body)
    assert all(r == [0, 1, 2, 3] for r in results)


def test_engine_reusable_after_failed_run():
    """A failed run leaves nothing behind: the same engine runs the
    next program normally."""
    engine = Engine(make_system("thetagpu", 1), nranks=4)

    def failing(ctx):
        if ctx.rank == 0:
            raise RuntimeError("injected")
        ctx.mailbox.match(src=0, tag=1)

    with pytest.raises(RankFailedError):
        engine.run(failing)
    assert engine.run(lambda ctx: ctx.rank) == [0, 1, 2, 3]


def test_coop_exact_deadlock_detected_fast():
    """All fibers parked + empty run queue == deadlock, detected the
    moment it happens — no wall-clock timeout involved."""
    cluster = make_system("thetagpu", 1)
    engine = Engine(cluster, nranks=4)

    def body(ctx):
        # everyone waits for a message nobody will ever send
        ctx.mailbox.match(src=(ctx.rank + 1) % ctx.size, tag=99)

    t0 = time.perf_counter()
    with pytest.raises(RankFailedError) as ei:
        engine.run(body)
    wall = time.perf_counter() - t0
    assert wall < 1.0
    assert len(ei.value.failures) == 4
    for exc in ei.value.failures.values():
        assert isinstance(exc, DeadlockError)
        assert "exact deadlock" in str(exc)


def test_rank_raising_mid_collective_reported_fast():
    """Twin of the deadlock test: one rank raises while its peers sit
    in a collective that now can never complete.  The peers are woken
    the moment the last of them parks, and the run reports the primary
    error (their secondary DeadlockErrors are dropped as noise)."""
    from repro.mpi import SUM, Communicator

    engine = Engine(make_system("thetagpu", 1), nranks=4)

    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(16)
        comm.Allreduce(buf, buf, SUM)
        if ctx.rank == 2:
            raise RuntimeError("device fell off the bus")
        comm.Allreduce(buf, buf, SUM)

    t0 = time.perf_counter()
    with pytest.raises(RankFailedError) as ei:
        engine.run(body)
    wall = time.perf_counter() - t0
    assert wall < 1.0
    assert set(ei.value.failures) == {2}
    assert isinstance(ei.value.failures[2], RuntimeError)


def test_trace_tracks_label_oversubscribed_nodes():
    """Each rank's trace events stay on its own track and map to the
    node its device lives on, even when ranks oversubscribe devices (16
    ranks per 8-device node)."""
    cluster = make_system("thetagpu", 2)
    engine = Engine(cluster, nranks=32, ranks_per_node=16, trace=True)
    engine.run(_smoke_body)
    traces = engine.traces()
    assert len(traces) == 32
    for rank, trace in enumerate(traces):
        assert trace.rank == rank
        events = trace.events
        assert events, f"rank {rank} recorded no events"
        assert all(ev.rank == rank for ev in events)
        # oversubscribed placement: node = rank // ranks_per_node
        assert engine.node_of(rank) == rank // 16
