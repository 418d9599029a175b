"""The rank scheduler (:mod:`repro.sim.sched`): one run token, a lock
hand-off, parking waits, yielding polls, exact deadlock detection."""

from __future__ import annotations

import threading
import time

import pytest

from repro import fastpath
from repro.errors import DeadlockError, RankFailedError
from repro.mpi import Communicator
from repro.mpi.request import waitany
from repro.sim import sched
from repro.sim.engine import Engine
from repro.sim.mailbox import Message


def _msg(src, dst, tag=0):
    return Message(src=src, dst=dst, tag=tag, data=b"", depart_us=0.0,
                   arrival_us=1.0, nbytes=0)


class TestRunOrder:
    def test_ranks_start_in_rank_order(self, thetagpu1):
        order = []
        Engine(thetagpu1, nranks=6).run(lambda ctx: order.append(ctx.rank))
        assert order == [0, 1, 2, 3, 4, 5]

    def test_yield_now_is_round_robin(self, thetagpu1):
        """A yielding rank goes to the tail of the run queue: three
        ranks that yield between steps interleave step-major."""
        order = []

        def body(ctx):
            for step in range(3):
                order.append((step, ctx.rank))
                sched.yield_now()

        engine = Engine(thetagpu1, nranks=3)
        engine.run(body)
        assert order == [(s, r) for s in range(3) for r in range(3)]
        assert engine.scheduler.parks == 0

    def test_yield_now_alone_keeps_the_token(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=1)
        engine.run(lambda ctx: [sched.yield_now() for _ in range(5)])
        assert engine.scheduler.switches == 1   # the initial hand-off only

    def test_yield_now_is_a_noop_off_engine(self):
        sched.yield_now()   # the main thread carries no fiber

    def test_park_and_switch_counters(self, thetagpu1):
        """Rank 0 blocks once on rank 1's message: one park, and one
        hand-off each for start(0), start(1), resume(0)."""
        def body(ctx):
            if ctx.rank == 0:
                ctx.mailbox.match(src=1, tag=5)
            else:
                ctx.mailbox_of(0).post(_msg(1, 0, tag=5))

        engine = Engine(thetagpu1, nranks=2)
        engine.run(body)
        assert (engine.scheduler.parks, engine.scheduler.switches) == (1, 3)
        snap = fastpath.STATS.snapshot()
        assert (snap["coop_runs"], snap["coop_parks"],
                snap["coop_switches"]) == (1, 1, 3)


class TestDeadlockIsExact:
    @pytest.mark.parametrize("wait", ["match_many", "slot"])
    def test_every_wait_kind_reports_at_once(self, thetagpu1, wait):
        """Whatever the ranks block on, the last one to park triggers
        the verdict — there is no timeout to wait out
        (``Mailbox.match`` is test_engine_scale's leg)."""
        def body(ctx):
            if wait == "match_many":
                ctx.mailbox.match_many([(0, 9, None), (1, 9, None)])
            else:
                # a fifth party that does not exist
                ctx.collective_slot("never", parties=ctx.size + 1).exchange(
                    ctx.rank, None, lambda payloads: None)

        engine = Engine(thetagpu1, nranks=4)
        t0 = time.perf_counter()
        with pytest.raises(RankFailedError) as ei:
            engine.run(body)
        assert time.perf_counter() - t0 < 1.0
        assert len(ei.value.failures) == 4
        assert all(isinstance(e, DeadlockError) and "exact deadlock" in str(e)
                   for e in ei.value.failures.values())


class TestOffEngineWait:
    def test_a_wait_outside_a_run_fails_at_once(self, thetagpu1):
        """The main thread is not a fiber: nothing can wake it, so a
        wait it makes on an engine's mailbox or slot is a deadlock,
        reported at once and named."""
        engine = Engine(thetagpu1, nranks=2)
        box = engine.mailbox_of(0)
        slot = engine.collective_slot("short", parties=2)
        waits = {
            "recv(src=1, tag=1)": lambda: box.match(src=1, tag=1),
            "fused recv": lambda: box.match_many([(1, 1, None)]),
            "blocked in waitany": lambda: box.await_post("waitany"),
            "collective 'short': 1/2 arrived": lambda: slot.exchange(
                0, None, lambda payloads: None),
        }
        for what, wait in waits.items():
            t0 = time.perf_counter()
            with pytest.raises(DeadlockError) as err:
                wait()
            assert time.perf_counter() - t0 < 0.1, what
            assert what in str(err.value)
            assert "outside an engine run" in str(err.value)
        assert not box._parked and box.pending == 0

    def test_post_from_outside_a_run_is_matched(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=2)
        engine.mailbox_of(0).post(_msg(1, 0, tag=4))
        assert engine.mailbox_of(0).match(src=1, tag=4).tag == 4


class TestPollsYield:
    @pytest.mark.parametrize("sender", [0, 1])
    def test_waitany_with_a_late_sender(self, thetagpu1, spmd, sender):
        """With the poller holding the token first, waitany must still
        complete."""
        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == sender:
                comm.Send(ctx.device.zeros(4), 1 - sender, tag=2)
                return None
            reqs = [comm.Irecv(ctx.device.zeros(4), source=sender, tag=t)
                    for t in (1, 2)]
            index, status = waitany(reqs[::-1])     # tag 2 is listed first
            return index, status.tag

        assert spmd(thetagpu1, body, nranks=2)[1 - sender] == (0, 2)

    def test_waitany_completes_whichever_request_can(self, thetagpu1,
                                                     spmd):
        """Rank 0 waits on receives from ranks 1 and 2; only rank 2's
        can complete before rank 0 sends again, and it arrives late
        (ranks 3 and 4 ping-pong first).  Blocking on the first request
        once declared an exact deadlock here."""
        def body(ctx):
            comm = Communicator.world(ctx)
            buf, other = ctx.device.zeros(4), ctx.device.zeros(4)
            rank = comm.rank
            if rank == 0:
                reqs = [comm.Irecv(ctx.device.zeros(4), source=1, tag=1),
                        comm.Irecv(ctx.device.zeros(4), source=2, tag=2)]
                index, status = waitany(reqs)
                comm.Send(buf, 1)
                reqs[1 - index].wait()
                return index, status.source, status.tag
            if rank == 1:
                comm.Recv(buf, 0)
                comm.Send(buf, 0, tag=1)
            elif rank == 2:
                comm.Recv(buf, 3, tag=3)
                comm.Send(buf, 0, tag=2)
            else:
                for _ in range(5):
                    comm.Sendrecv(buf, 7 - rank, other, 7 - rank)
                if rank == 3:
                    comm.Send(buf, 2, tag=3)
            return None

        assert spmd(thetagpu1, body, nranks=5)[0] == (1, 2, 2)

    def test_waitany_that_cannot_complete_is_a_deadlock(self, thetagpu1,
                                                        spmd):
        """Parked on its mailbox, a waitany whose peers all finished is
        reported by exact deadlock detection, not left hanging."""
        def body(ctx):
            comm = Communicator.world(ctx)
            if comm.rank == 0:
                waitany([comm.Irecv(ctx.device.zeros(4), source=1)])

        with pytest.raises(RankFailedError, match="blocked in waitany"):
            spmd(thetagpu1, body, nranks=2)

    def test_waitany_on_each_other_is_a_deadlock(self, thetagpu1, spmd):
        """Two ranks each waitany on a receive from the other: neither
        can complete, and both must park so exact deadlock detection
        sees it — a waitany that yields to a ready peer instead would
        hand the token back and forth forever."""
        def body(ctx):
            comm = Communicator.world(ctx)
            waitany([comm.Irecv(ctx.device.zeros(4), source=1 - comm.rank)])

        failed = []

        def run():
            try:
                spmd(thetagpu1, body, nranks=2)
            except RankFailedError as exc:
                failed.append(str(exc))

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30.0)
        assert not runner.is_alive(), "waitany spun instead of parking"
        assert len(failed) == 1 and "blocked in waitany" in failed[0]

    def test_unbounded_test_loop_as_lower_rank(self, thetagpu1, spmd):
        """The loop users actually write — no iteration cap.  Without
        the yield this spins forever holding the only run token."""
        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 1:
                comm.Send(ctx.device.zeros(4), 0)
                return 0
            req = comm.Irecv(ctx.device.zeros(4), source=1)
            polls = 1
            while not req.test()[0]:
                polls += 1
            return polls

        assert spmd(thetagpu1, body, nranks=2)[0] == 2


class TestSchedulerIsNotAGate:
    def test_registry_has_no_scheduler_gate(self, thetagpu1):
        """The one scheduler is not a run option: an engine has exactly
        two, and ``coop_sched=`` is an unexpected keyword."""
        from tests.frozen_reference import OPTIONS
        assert tuple(Engine(thetagpu1, nranks=2).options) == OPTIONS
        with pytest.raises(TypeError):
            Engine(thetagpu1, nranks=2, coop_sched=True)
