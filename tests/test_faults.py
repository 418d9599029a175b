"""Failure injection: dropped/delayed messages, dying ranks, CCL errors."""

import numpy as np
import pytest

from repro import fastpath
from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.fallback import FallbackReason
from repro.core.dispatch import CollectivePipeline, DispatchMode
from repro.core.runtime import world_communicator
from repro.errors import (CCLError, CommRevokedError, DeadlockError,
                          RankFailedError, SimulationError)
from repro.hw.systems import make_system
from repro.mpi import SUM, Communicator
from repro.mpi.datatypes import FLOAT
from repro.sim.engine import Engine
from repro.sim.faults import DelayRule, DropRule, FaultPlan, with_faults
from repro.xccl.api import (xcclGroupEnd, xcclGroupStart, xcclRecv,
                            xcclSend, xcclStreamSynchronize)
from repro.xccl.comm import XCCLComm
from repro.xccl.nccl import NCCLBackend


class TestFaultPlan:
    def test_chaining(self):
        plan = FaultPlan().drop(0, 1).delay(1, 0, 50.0, nth=2)
        assert plan.drops == [DropRule(0, 1, 0)]
        assert plan.delays == [DelayRule(1, 0, 2, 50.0)]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan().delay(0, 1, -1.0)


class TestDrops:
    def test_dropped_message_deadlocks_receiver(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=2)
        injector = with_faults(engine, FaultPlan().drop(0, 1, nth=0))

        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.Send(ctx.device.zeros(16), 1)
            else:
                comm.Recv(ctx.device.zeros(16), source=0)

        with pytest.raises(RankFailedError) as exc_info:
            engine.run(body)
        assert any(isinstance(e, DeadlockError)
                   for e in exc_info.value.failures.values())
        assert len(injector.dropped) == 1

    def test_unrelated_traffic_survives_a_drop(self, thetagpu1):
        # drop a message between 2 and 3; ranks 0/1 must still finish —
        # we only assert on the survivors' results
        engine = Engine(thetagpu1, nranks=4)
        with_faults(engine, FaultPlan().drop(2, 3, nth=0))
        results = {}

        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank in (0, 1):
                peer = 1 - ctx.rank
                buf = ctx.device.zeros(8)
                buf.fill(float(ctx.rank))
                out = ctx.device.zeros(8)
                comm.Sendrecv(buf, peer, out, peer)
                results[ctx.rank] = out.array[0]
            elif ctx.rank == 2:
                comm.Send(ctx.device.zeros(8), 3)
            else:
                comm.Recv(ctx.device.zeros(8), source=2)

        with pytest.raises(RankFailedError):
            engine.run(body)
        assert results == {0: 1.0, 1: 0.0}

    def test_drop_nth_counts_per_pair(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=2)
        injector = with_faults(engine, FaultPlan().drop(0, 1, nth=1))

        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.Send(ctx.device.zeros(4), 1, tag=0)  # survives
                comm.Send(ctx.device.zeros(4), 1, tag=1)  # dropped
            else:
                comm.Recv(ctx.device.zeros(4), source=0, tag=0)
                comm.Recv(ctx.device.zeros(4), source=0, tag=1)

        with pytest.raises(RankFailedError):
            engine.run(body)
        assert [m.tag for m in injector.dropped] == [1]


class TestDelays:
    def test_delay_extends_virtual_latency(self, thetagpu1):
        def run_with(plan):
            engine = Engine(thetagpu1, nranks=2)
            if plan:
                with_faults(engine, plan)

            def body(ctx):
                comm = Communicator.world(ctx)
                if ctx.rank == 0:
                    comm.Send(ctx.device.zeros(16), 1)
                    return None
                comm.Recv(ctx.device.zeros(16), source=0)
                return ctx.now

            return engine.run(body)[1]

        base = run_with(None)
        delayed = run_with(FaultPlan().delay(0, 1, 500.0))
        assert delayed == pytest.approx(base + 500.0)

    def test_delayed_collective_still_correct(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=4)
        with_faults(engine, FaultPlan().delay(0, 1, 200.0).delay(2, 3, 99.0))

        def body(ctx):
            comm = Communicator.world(ctx)
            s = ctx.device.zeros(64)
            s.fill(1.0)
            r = ctx.device.zeros(64)
            comm.Allreduce(s, r, SUM)
            return r.array[0]

        assert engine.run(body) == [4.0] * 4

    def test_delay_slows_exactly_one_message(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=2)
        injector = with_faults(engine, FaultPlan().delay(0, 1, 100.0, nth=0))

        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                for tag in range(3):
                    comm.Send(ctx.device.zeros(4), 1, tag=tag)
            else:
                for tag in range(3):
                    comm.Recv(ctx.device.zeros(4), source=0, tag=tag)

        engine.run(body)
        assert len(injector.delayed) == 1


class TestDyingRanks:
    def test_rank_death_reported_not_hung(self, thetagpu1):
        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 2:
                raise RuntimeError("device fell off the bus")
            s = ctx.device.zeros(16)
            r = ctx.device.zeros(16)
            comm.Allreduce(s, r, SUM)

        engine = Engine(thetagpu1, nranks=4)
        with pytest.raises(RankFailedError) as exc_info:
            engine.run(body)
        assert isinstance(exc_info.value.failures[2], RuntimeError)

    def test_kill_between_hand_off_and_wake_loses_nothing(self, thetagpu1):
        """Rank 1 is parked in ``Recv`` when rank 0 posts — the message
        is handed straight to it — and rank 0 is killed before rank 1
        has run again.  The handed message still wins over the abort
        probe: rank 1 receives it, and only its *next* receive fails."""
        def body(ctx):
            comm = Communicator.world(ctx)
            buf = ctx.device.zeros(4)
            if ctx.rank == 0:
                comm.Recv(buf, source=1, tag=1)     # until rank 1 is ready
                buf.fill(7.0)
                comm.Send(buf, 1, tag=2)            # rank 1 is parked on this
                assert ctx.mailbox_of(1).pending == 0       # handed, not queued
                ctx.clock.advance(1000.0)           # dies holding the token
                raise AssertionError("rank 0 outlived its kill")
            comm.Send(buf, 0, tag=1)
            comm.Recv(buf, source=0, tag=2)
            got = buf.array.copy()
            with pytest.raises(CommRevokedError):
                comm.Recv(buf, source=0, tag=3)
            return got

        engine = Engine(thetagpu1, nranks=2)
        injector = with_faults(engine, FaultPlan().kill(0, after_us=500.0))
        dead, got = engine.run(body)
        assert dead is None and injector.killed == [0]
        assert got.tolist() == [7.0] * 4
        # a kill-only plan filters no message
        assert injector.messages_seen == 0 and not engine.any_mailbox_patched


class _FlakyNCCL(NCCLBackend):
    """A backend whose first collective call dies (the paper's
    NCCL-2.18.3-on-ThetaGPU incident, §4.4)."""

    def __init__(self):
        self.calls = 0

    def all_reduce(self, comm, sendbuf, recvbuf, count, dt, op):
        self.calls += 1
        if self.calls == 1:
            raise CCLError("internal error - please report this issue")
        super().all_reduce(comm, sendbuf, recvbuf, count, dt, op)


class TestCCLErrorFallback:
    def test_runtime_error_falls_back_to_mpi(self, thetagpu1):
        """A CCL runtime failure mid-call reroutes to MPI transparently
        — advantage 3 of §1.2, and the §4.4 war story."""
        engine = Engine(thetagpu1, nranks=4)
        flaky_calls = {}

        def body(ctx):
            comm = Communicator.world(ctx)
            layer = XCCLAbstractionLayer(ctx, _FlakyNCCL())
            comm.coll = CollectivePipeline(layer, DispatchMode.PURE_XCCL)
            s = ctx.device.zeros(1 << 18)
            s.fill(1.0)
            r = ctx.device.zeros(1 << 18)
            comm.Allreduce(s, r, SUM)   # CCL raises -> MPI completes it
            flaky_calls[ctx.rank] = layer.backend.calls
            stats = comm.coll.stats
            return (float(r.array[0]), stats.mpi_calls,
                    dict(stats.fallbacks))

        out = engine.run(body)
        for value, mpi_calls, fallbacks in out:
            assert value == 4.0          # result correct despite the error
            assert mpi_calls == 1
            assert any(reason == FallbackReason.CCL_ERROR
                       for (_c, reason) in fallbacks)

    def test_error_inside_open_group_does_not_poison_later_groups(
            self, thetagpu1):
        """§4.4 applied to Listing 1: the third ``xcclSend`` queued by
        the first ``Alltoall`` raises.  That call completes over MPI —
        and must leave no open group behind: the next, healthy
        ``Alltoall`` goes through the CCL and delivers, instead of
        queueing into the dead group and returning untouched buffers."""
        import numpy as np
        from repro.xccl.backend import in_group

        class FlakySend(NCCLBackend):
            def __init__(self):
                self.sends = 0

            def send(self, comm, buf, count, dt, peer):
                self.sends += 1
                if self.sends == 3:
                    raise CCLError("internal error - please report this issue")
                super().send(comm, buf, count, dt, peer)

        def body(ctx):
            comm = Communicator.world(ctx)
            layer = XCCLAbstractionLayer(ctx, FlakySend())
            comm.coll = CollectivePipeline(layer, DispatchMode.PURE_XCCL)
            s = ctx.device.zeros(4, dtype=np.float32)
            s.array[:] = ctx.rank + 1
            out = []
            for _ in range(2):
                r = ctx.device.zeros(4, dtype=np.float32)
                r.fill(-1.0)
                comm.Alltoall(s, r, count=1)
                out.append((r.array.tolist(), in_group()))
            return out, dict(comm.coll.stats.fallbacks)

        engine = Engine(thetagpu1, nranks=4)
        for calls, fallbacks in engine.run(body):
            assert calls == [([1.0, 2.0, 3.0, 4.0], False)] * 2
            assert [reason for (_c, reason) in fallbacks] \
                == [FallbackReason.CCL_ERROR]


class TestDerivedCommDegradation:
    """A plan's message rules reach communicators derived after it was
    installed (Dup / Split), and change only what they name: the leased
    handoff stays engaged, and only the hinted whole-group exchange —
    the one transport that bypasses the mailboxes — falls back."""

    def test_zero_copy_holds_on_faulted_derived_comms(self, thetagpu1):
        """Under a delay rule that never fires, rendezvous ``Sendrecv``
        on a comm derived from world hands its payload off as a leased
        view (copies elided, none forced) and delivers the right bytes."""
        def body(ctx):
            comm = world_communicator(ctx)
            dup = comm.Dup()
            half = dup.Split(color=ctx.rank % 2, key=ctx.rank)
            peer = 1 - half.rank if half.size > 1 else half.rank
            buf = ctx.device.zeros(1 << 14)
            buf.array[:] = float(ctx.rank)
            out = ctx.device.zeros(1 << 14)
            half.Sendrecv(buf, peer, out, peer)
            return float(out.array[0])

        engine = Engine(thetagpu1, nranks=4)
        injector = with_faults(engine, FaultPlan().delay(0, 1, 1.0, nth=99))
        results = engine.run(body)
        # split comms: {0, 2} and {1, 3}; each rank receives its peer's
        # world rank
        assert results == [2.0, 3.0, 0.0, 1.0]
        assert fastpath.STATS.copies_forced == 0
        assert fastpath.STATS.copies_elided > 0
        assert injector.messages_seen > 0 and not injector.delayed

    def test_fusion_falls_back_unfused_on_faulted_dup_comm(self,
                                                           thetagpu1):
        """Grouped CCL send/recv on a Dup'd communicator under a delay
        rule: the hinted group keeps the whole-group exchange, and its
        senders put every row to the mailboxes' fault filter — counted,
        and still in program order."""

        def body(ctx):
            world = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
            comm = world.Dup()
            comm.coll = world.coll   # Dup keeps the plain MPI dispatcher
            xc = comm.coll.layer.ccl_comm(comm)
            peer = (comm.rank + 1) % comm.size
            src = (comm.rank - 1) % comm.size
            outs = [ctx.device.zeros(4, dtype=np.float32)
                    for _ in range(3)]
            ins_ = [ctx.device.zeros(4, dtype=np.float32)
                    for _ in range(3)]
            for i, o in enumerate(outs):
                o.array[:] = 10 * comm.rank + i
            xcclGroupStart(xc)
            for i in range(3):
                xcclSend(outs[i], 4, FLOAT, peer, xc)
                xcclRecv(ins_[i], 4, FLOAT, src, xc)
            xcclGroupEnd()
            xcclStreamSynchronize(xc)
            return [float(b.array[0]) for b in ins_]

        engine = Engine(thetagpu1, nranks=4)
        injector = with_faults(engine, FaultPlan().delay(0, 1, 1.0, nth=99))
        results = engine.run(body)
        for rank, vals in enumerate(results):
            src = (rank - 1) % 4
            assert vals == [10.0 * src, 10.0 * src + 1, 10.0 * src + 2]
        assert fastpath.STATS.fusion_fallbacks == 0
        assert fastpath.STATS.fusion_exchanges > 0
        assert injector.messages_seen >= 12     # 3 per rank, all filtered

    def test_hier_collective_on_split_comm_survives_injector(self):
        """A hierarchical (multi-node) allreduce on a Split-derived
        communicator under a delay rule that never fires gives the
        fault-free payloads and clocks: the plan changed nothing it did
        not name."""
        def body(ctx):
            comm = world_communicator(ctx)
            # everyone in one color: a derived comm congruent to world
            sub = comm.Split(color=0, key=ctx.rank)
            buf = ctx.device.zeros(1 << 20)
            buf.array[:] = 1.0
            out = ctx.device.zeros(1 << 20)
            sub.Allreduce(buf, out, op=SUM)
            return float(out.array[0]), ctx.now

        def run(plan):
            engine = Engine(make_system("thetagpu", 2), nranks=16)
            if plan is not None:
                with_faults(engine, plan)
            return engine.run(body)

        results = run(FaultPlan().delay(0, 1, 1.0, nth=99))
        assert [value for value, _ in results] == [16.0] * 16
        assert results == run(None)


#: what a plan may change: the four transport counters of the probe
_PROBE_COUNTERS = ("fusion_exchanges", "fusion_fallbacks", "copies_forced",
                   "copies_elided")


def _probe_body(ctx):
    """8 ranks, pure xCCL: three hinted ``Alltoall`` and a rendezvous
    ``Sendrecv`` ring; logs payload bytes and the clock after each."""
    comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
    p, r = comm.size, comm.rank
    send = ctx.device.zeros(p * 64, dtype=np.float32)
    send.array[:] = np.arange(p * 64) + 1000 * r
    out = ctx.device.zeros(p * 64, dtype=np.float32)
    log = []
    for _ in range(3):
        comm.Alltoall(send, out, count=64)
        log.append((out.array.tobytes(), ctx.now))
    ring = ctx.device.zeros(1 << 12, dtype=np.float32)
    ring.array[:] = r
    got = ctx.device.zeros(1 << 12, dtype=np.float32)
    comm.Sendrecv(ring, (r + 1) % p, got, (r - 1) % p)
    log.append((got.array.tobytes(), ctx.now))
    return log


def _probe(plan):
    engine = Engine(make_system("thetagpu", 1), nranks=8)
    if plan is not None:
        with_faults(engine, plan)
    log = engine.run(_probe_body)
    snap = fastpath.STATS.snapshot()
    return log, {k: snap[k] for k in _PROBE_COUNTERS}


class TestPlanChangesOnlyWhatItNames:
    def test_kill_that_never_fires_changes_nothing(self):
        """A plan that names no message and kills nobody leaves the
        transport counters, payloads and every clock ``==`` the
        fault-free run — the leases and the whole-group exchange stay
        engaged."""
        base, counters = _probe(None)
        assert counters == {"fusion_exchanges": 24, "fusion_fallbacks": 0,
                            "copies_forced": 0, "copies_elided": 200}
        assert _probe(FaultPlan().kill(7, after_us=1e12)) == (base, counters)

    def test_delay_that_never_fires_changes_only_the_exchange(self):
        """Message rules filter every delivery, the hinted exchange's
        rows included, so a rule that never fires changes nothing: the
        log and the transport counters stay ``==`` the fault-free run."""
        base = _probe(None)
        assert _probe(FaultPlan().delay(0, 1, 5.0, nth=10 ** 6)) == base


def _alltoall_body(ctx):
    """4 ranks, pure xCCL: one hinted ``Alltoall``; returns the payload
    and the clock."""
    comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
    send = ctx.device.zeros(comm.size * 256, dtype=np.float32)
    send.array[:] = np.arange(comm.size * 256) + 1000 * comm.rank
    out = ctx.device.zeros(comm.size * 256, dtype=np.float32)
    comm.Alltoall(send, out, count=256)
    return out.array.tobytes(), ctx.now


def _alltoall(thetagpu1, plan):
    """``(results, injector, fusion_exchanges)`` of :func:`_alltoall_body`
    under ``plan`` (None: no plan)."""
    engine = Engine(thetagpu1, nranks=4)
    injector = None if plan is None else with_faults(engine, plan)
    results = engine.run(_alltoall_body)
    return results, injector, fastpath.STATS.fusion_exchanges


class TestRulesInsideTheExchange:
    """Message rules fire on the rows of a hinted group: its senders put
    them to the mailboxes' filter before the whole-group exchange."""

    def test_delay_retimes_only_its_row(self, thetagpu1):
        base, _, exchanges = _alltoall(thetagpu1, None)
        got, injector, faulted_exchanges = _alltoall(
            thetagpu1, FaultPlan().delay(0, 1, 50.0, nth=0))
        assert [payload for payload, _t in got] \
            == [payload for payload, _t in base]
        assert got[1][1] > base[1][1]
        assert [t for r, (_p, t) in enumerate(got) if r != 1] \
            == [t for r, (_p, t) in enumerate(base) if r != 1]
        assert [(m.src, m.dst, m.kind) for m in injector.delayed] \
            == [(0, 1, "ccl-p2p")]
        assert faulted_exchanges == exchanges

    def test_drop_deadlocks_only_its_receiver(self, thetagpu1):
        with pytest.raises(RankFailedError) as exc_info:
            _alltoall(thetagpu1, FaultPlan().drop(0, 1, nth=0))
        failures = exc_info.value.failures
        assert list(failures) == [1]
        assert isinstance(failures[1], DeadlockError)

    @pytest.mark.parametrize("nth", [0, 1, 2])
    def test_nth_names_one_message_on_either_transport(self, thetagpu1,
                                                       nth):
        """Three sends of different sizes to each neighbour, in one group
        opened with and without the communicator hint: a delay rule
        hits the same message, and every clock lands alike."""
        def body(ctx, hinted):
            world = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
            xc = world.coll.layer.ccl_comm(world)
            peer, src = (ctx.rank + 1) % 4, (ctx.rank - 1) % 4
            outs = [ctx.device.zeros(4 * (i + 1), dtype=np.float32)
                    for i in range(3)]
            ins_ = [ctx.device.zeros(4 * (i + 1), dtype=np.float32)
                    for i in range(3)]
            xcclGroupStart(xc if hinted else None)
            for i in range(3):
                xcclSend(outs[i], outs[i].count, FLOAT, peer, xc)
                xcclRecv(ins_[i], ins_[i].count, FLOAT, src, xc)
            xcclGroupEnd()
            return ctx.now

        def run(hinted):
            engine = Engine(thetagpu1, nranks=4)
            injector = with_faults(engine,
                                   FaultPlan().delay(0, 1, 50.0, nth=nth))
            clocks = engine.run(lambda ctx: body(ctx, hinted))
            assert fastpath.STATS.fusion_exchanges == (4 if hinted else 0)
            return clocks, [(m.src, m.dst, m.seq, m.nbytes)
                            for m in injector.delayed]

        hinted, unhinted = run(True), run(False)
        assert len(hinted[1]) == 1
        assert hinted == unhinted

    def test_unclaimed_row_meets_the_filter_once(self, thetagpu1):
        """A row the receiver's group did not claim is queued in its
        mailbox as it came through the sender's filter: the pair's next
        message is still the one an nth rule names."""
        def body(ctx):
            world = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
            xc = world.coll.layer.ccl_comm(world)
            bufs = [ctx.device.zeros(4 * (i + 1), dtype=np.float32)
                    for i in range(2)]
            xcclGroupStart(xc)
            if ctx.rank == 0:
                xcclSend(bufs[0], 4, FLOAT, 1, xc)     # received below
            xcclGroupEnd()
            if ctx.rank == 0:
                xcclSend(bufs[1], 8, FLOAT, 1, xc)
            elif ctx.rank == 1:
                xcclRecv(bufs[0], 4, FLOAT, 0, xc)
                xcclRecv(bufs[1], 8, FLOAT, 0, xc)
            return ctx.now

        engine = Engine(thetagpu1, nranks=4)
        injector = with_faults(engine, FaultPlan().delay(0, 1, 50.0, nth=1))
        engine.run(body)
        assert [(m.seq, m.nbytes) for m in injector.delayed] == [(2, 32)]
        assert injector.messages_seen == 2


#: a scope no bootstrap hands out
_UID = "doomed-probe"


def _wait_slot(ctx, xc, buf):
    ctx.collective_slot(xc.next_coll_key("probe"), xc.size).exchange(
        ctx.rank, None, lambda payloads: None)


def _wait_p2p(ctx, xc, buf):
    Communicator.world(ctx).endpoint.recv(buf, 0, None, 2, 5, FLOAT)


def _wait_bulk(ctx, xc, buf):
    xc.backend.recv(xc, buf, 4, FLOAT, 2)


def _wait_exchange(ctx, xc, buf):
    """A hinted group in which rank 1 expects a message from rank 2
    that rank 2 never queues: rank 1's match is deferred past the
    exchange."""
    xcclGroupStart(xc)
    if ctx.rank == 1:
        xcclRecv(buf, 4, FLOAT, 2, xc)
    xcclGroupEnd()


_WAITS = {"slot": _wait_slot, "p2p": _wait_p2p, "bulk": _wait_bulk,
          "exchange": _wait_exchange}


@pytest.mark.parametrize("wait", sorted(_WAITS))
def test_every_wait_asks_one_probe(thetagpu1, wait):
    """Rank 0 dies; rank 1 then waits on rank 2, which is alive and
    sends nothing.  Whatever the wait — a collective slot, a p2p
    receive, a CCL bulk group receive, a deferred exchange match — it
    fails at once with ``Engine.doomed``'s reason (a member of its
    communicator died), not with the exact-deadlock verdict."""
    def body(ctx):
        xc = XCCLComm(ctx, _UID, (0, 1, 2, 3), ctx.rank,
                      backend=NCCLBackend())
        buf = ctx.device.zeros(4, dtype=np.float32)
        if ctx.rank == 1:
            with pytest.raises(DeadlockError) as err:
                _WAITS[wait](ctx, xc, buf)
            return str(err.value)
        if wait == "exchange":
            _wait_exchange(ctx, xc, buf)
        if ctx.rank == 0:
            ctx.clock.advance(2e9)      # dies here
        return None

    engine = Engine(thetagpu1, nranks=4)
    with_faults(engine, FaultPlan().kill(0, after_us=1e9))
    results = engine.run(body)
    assert results[0] is None
    assert results[1].endswith("communicator member rank(s) [0] died")
