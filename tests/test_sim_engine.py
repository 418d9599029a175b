"""SPMD engine: launching, rendezvous slots, failure handling."""

import pytest

from repro.errors import DeadlockError, RankFailedError, SimulationError
from repro.sim.engine import Engine
from repro.sim.mailbox import Message


class TestLaunch:
    def test_returns_rank_order(self, thetagpu1):
        out = Engine(thetagpu1, nranks=4).run(lambda ctx: ctx.rank * 10)
        assert out == [0, 10, 20, 30]

    def test_default_nranks_fills_devices(self, thetagpu1):
        assert len(Engine(thetagpu1).run(lambda ctx: ctx.size)) == 8

    def test_ranks_per_node_placement(self, thetagpu2, spmd):
        nodes = spmd(thetagpu2,
                     lambda ctx: ctx.cluster.node_index_of(ctx.device),
                     nranks=2, ranks_per_node=1)
        assert nodes == [0, 1]

    def test_block_placement(self, thetagpu2, spmd):
        nodes = spmd(thetagpu2,
                     lambda ctx: ctx.cluster.node_index_of(ctx.device),
                     nranks=10)
        assert nodes == [0] * 8 + [1] * 2

    def test_too_many_ranks(self, thetagpu1):
        with pytest.raises(SimulationError):
            Engine(thetagpu1, nranks=9)

    def test_zero_ranks(self, thetagpu1):
        with pytest.raises(SimulationError):
            Engine(thetagpu1, nranks=0)

    def test_context_attributes(self, thetagpu1, spmd):
        def body(ctx):
            assert ctx.device_of(0) is ctx.engine.device_of(0)
            assert ctx.mailbox_of(ctx.rank) is ctx.mailbox
            return (ctx.rank, ctx.size, ctx.now)

        out = spmd(thetagpu1, body, nranks=3)
        assert out[2] == (2, 3, 0.0)


class TestFailures:
    def test_exception_collected(self, thetagpu1):
        def body(ctx):
            if ctx.rank == 1:
                raise ValueError("boom")
            return ctx.rank

        with pytest.raises(RankFailedError) as exc_info:
            Engine(thetagpu1, nranks=2).run(body)
        assert 1 in exc_info.value.failures
        assert isinstance(exc_info.value.failures[1], ValueError)

    def test_primary_error_preferred_over_deadlock(self, thetagpu1):
        # rank 1 dies; rank 0 blocks forever waiting on it -> its
        # DeadlockError is secondary noise
        def body(ctx):
            if ctx.rank == 1:
                raise ValueError("primary")
            ctx.mailbox.match(src=1, tag=0)

        with pytest.raises(RankFailedError) as exc_info:
            Engine(thetagpu1, nranks=2).run(body)
        assert list(exc_info.value.failures) == [1]

    def test_all_blocked_is_deadlock(self, thetagpu1):
        def body(ctx):
            ctx.mailbox.match(src=(ctx.rank + 1) % 2, tag=0)

        with pytest.raises(RankFailedError) as exc_info:
            Engine(thetagpu1, nranks=2).run(body)
        assert all(isinstance(e, DeadlockError)
                   for e in exc_info.value.failures.values())


class TestCollectiveSlot:
    def test_exchange_shares_result(self, thetagpu1, spmd):
        def body(ctx):
            slot = ctx.collective_slot("sum")
            return slot.exchange(ctx.rank, ctx.rank,
                                 lambda p: sum(p.values()))

        assert spmd(thetagpu1, body, nranks=4) == [6, 6, 6, 6]

    def test_compute_runs_once(self, thetagpu1, spmd):
        def body(ctx):
            slot = ctx.collective_slot("once")
            return slot.exchange(ctx.rank, None, lambda p: object())

        out = spmd(thetagpu1, body, nranks=4)
        assert all(o is out[0] for o in out)

    def test_repeated_key_isolated_by_use_count(self, thetagpu1, spmd):
        """A key its issuer repeats carries the issuer's use count."""
        def body(ctx):
            a = ctx.collective_slot(("k", 0)).exchange(
                ctx.rank, 1, lambda p: sum(p.values()))
            b = ctx.collective_slot(("k", 1)).exchange(
                ctx.rank, 2, lambda p: sum(p.values()))
            return (a, b)

        assert spmd(thetagpu1, body, nranks=3) == [(3, 6)] * 3

    def test_unnumbered_repeat_is_refused(self, thetagpu1):
        """The engine keeps no per-rank use counts: reaching a slot this
        rank already joined, while it is still in flight, is an error —
        not a silent meeting with the wrong occurrence."""
        def body(ctx):
            for payload in (1, 2):
                ctx.collective_slot("k").exchange(
                    ctx.rank, payload, lambda p: sum(p.values()))

        with pytest.raises(RankFailedError) as err:
            Engine(thetagpu1, nranks=3).run(body)
        assert any(isinstance(e, SimulationError) and "twice" in str(e)
                   for e in err.value.failures.values())

    def test_slots_reaped_after_finish(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=4)

        def body(ctx):
            ctx.collective_slot("x").exchange(ctx.rank, None, lambda p: 0)

        engine.run(body)
        assert not engine._slots  # no snapshot leak (the DL OOM bug)

    def test_skewed_repetitions_no_collision(self, thetagpu1, spmd):
        # rank 0 races ahead through many uses of the same key
        def body(ctx):
            total = 0
            for i in range(20):
                total += ctx.collective_slot(("loop", i)).exchange(
                    ctx.rank, i, lambda p: max(p.values()))
            return total

        out = spmd(thetagpu1, body, nranks=4)
        assert out == [sum(range(20))] * 4


class TestWiresOnEngine:
    def test_engine_owns_tracker(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=2)
        assert engine.wires.free_at(("x",)) == 0.0

    def test_message_clock_merge(self, thetagpu1, spmd):
        def body(ctx):
            if ctx.rank == 0:
                ctx.mailbox_of(1).post(Message(0, 1, 0, b"", 0.0, 123.0, 0))
                return ctx.now
            m = ctx.mailbox.match(src=0)
            ctx.clock.merge(m.arrival_us)
            return ctx.now

        out = spmd(thetagpu1, body, nranks=2)
        assert out == [0.0, 123.0]

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_second_run_starts_from_free_wires(self, nodes):
        """A run books nothing behind the previous run's transfers: the
        same engine run twice ends on the same clocks as a fresh one."""
        import numpy as np

        from repro.hw.systems import make_system
        from repro.omb.stacks import make_stack

        def body(ctx):
            comm = make_stack(ctx, "hybrid", "nccl")
            send = ctx.device.zeros(256 * 1024, dtype=np.float32)
            recv = ctx.device.zeros(256 * 1024, dtype=np.float32)
            comm.Allreduce(send, recv)
            comm.Alltoall(send, recv)
            return ctx.now

        cluster = make_system("thetagpu", nodes, payloads=False)
        engine = Engine(cluster)
        first = engine.run(body)
        assert engine.run(body) == first
        assert Engine(cluster).run(body) == first
