"""ULFM-style elastic fault recovery.

A killed rank revokes the communicators it belonged to; survivors see
:class:`~repro.errors.CommRevokedError`, agree on the failure set
(``Comm_agree``), rebuild a dense-ranked communicator (``Comm_shrink``)
and finish a FIXED post-recovery schedule on it.  The fixed schedule is
the application contract: survivors abort the failed collective at
*different* loop indices, so "resume where I left off" would deadlock —
agreement exists precisely to name the common restart point.
"""

import numpy as np
import pytest

from repro import fastpath
from repro.core.dispatch import DispatchMode
from repro.core.runtime import world_communicator
from repro.errors import (CommRevokedError, RankFailedError,
                          RankKilledError)
from repro.hw.systems import make_system
from repro.mpi import SUM, Communicator
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults

POST = 3  # fixed post-recovery schedule length


def _recovery_body(ctx, pre_iters=6, count=256):
    """Allreduce loop that recovers via agree -> shrink -> fixed schedule.

    Returns ``None`` on the killed rank, and
    ``(payload, new_size, failed_set)`` on every survivor, where
    ``payload`` is the full post-recovery result vector.
    """
    comm = Communicator.world(ctx)
    buf = ctx.device.zeros(count)
    out = ctx.device.zeros(count)
    done = 0
    try:
        for _ in range(pre_iters + 1):
            buf.array[:] = float(ctx.rank + done)
            comm.Allreduce(buf, out, op=SUM)
            done += 1
    except CommRevokedError:
        _flag, failed = comm.Comm_agree()
        newcomm = comm.Comm_shrink()
        nbuf = ctx.device.zeros(count)
        nout = ctx.device.zeros(count)
        for i in range(POST):
            nbuf.array[:] = float(newcomm.Get_rank() + i)
            newcomm.Allreduce(nbuf, nout, op=SUM)
        return (nout.array.copy(), newcomm.Get_size(),
                tuple(sorted(failed)))
    return None


def _expect_sum(survivor_count):
    # final iteration: every survivor contributes (dense_rank + POST-1)
    return sum(range(survivor_count)) + (POST - 1) * survivor_count


class TestElasticRecovery:
    @pytest.mark.parametrize("pre_iters,kill_at",
                             [(6, 60.0), (0, 0.0)],
                             ids=["mid-collective", "clean-death"])
    def test_kill_revoke_shrink_recovers(self, thetagpu1, pre_iters,
                                         kill_at):
        engine = Engine(thetagpu1, nranks=8)
        injector = with_faults(engine,
                               FaultPlan().kill(3, after_us=kill_at))
        results = engine.run(_recovery_body, pre_iters=pre_iters)
        assert injector.killed == [3]
        assert results[3] is None
        expect = _expect_sum(7)
        for rank, r in enumerate(results):
            if rank == 3:
                continue
            payload, new_size, failed = r
            assert new_size == 7
            assert failed == (3,)
            assert np.all(payload == expect)
        # Engine construction zeroes the process-global counters, so
        # these are this run's counts: one comm revoked, one shrink
        assert fastpath.STATS.comm_revokes == 1
        assert fastpath.STATS.comm_shrinks == 1

    def test_64_rank_recovery_bit_identical_to_dense_run(self):
        """The acceptance scenario: 64 ranks, one killed
        mid-allreduce; after revoke -> agree ->
        shrink the 63 survivors' payloads are bit-identical to a fresh
        63-rank run of the same fixed schedule."""
        system = make_system("thetagpu", 8)
        engine = Engine(system, nranks=64)
        with_faults(engine, FaultPlan().kill(17, after_us=60.0))
        results = engine.run(_recovery_body, pre_iters=4)
        survivors = [r for i, r in enumerate(results) if i != 17]
        assert results[17] is None
        assert all(r is not None and r[1] == 63 and r[2] == (17,)
                   for r in survivors)

        # fresh dense 63-rank run of the identical fixed schedule
        def dense_body(ctx):
            comm = Communicator.world(ctx)
            buf = ctx.device.zeros(256)
            out = ctx.device.zeros(256)
            for i in range(POST):
                buf.array[:] = float(comm.Get_rank() + i)
                comm.Allreduce(buf, out, op=SUM)
            return out.array.copy()

        dense = Engine(make_system("thetagpu", 8), nranks=63).run(dense_body)
        for r, ref in zip(survivors, dense):
            assert r[0].tobytes() == ref.tobytes()

    def test_gate_off_kill_keeps_historical_semantics(self, thetagpu1):
        """Recovery is opt-in by *handling* the revoke, not by a switch:
        a body that does not catch ``CommRevokedError`` still fails the
        run with ``RankFailedError`` naming the killed rank (the
        survivors' unhandled revokes ride along); survivors that never
        touch the dead rank are not failed by its death — that run
        returns, with ``None`` in the dead slot."""
        def oblivious(ctx):
            comm = Communicator.world(ctx)
            buf = ctx.device.zeros(64)
            for _ in range(3):
                comm.Allreduce(buf, ctx.device.zeros(64), op=SUM)
            return True

        engine = Engine(thetagpu1, nranks=4)
        with_faults(engine, FaultPlan().kill(1, after_us=0.0))
        with pytest.raises(RankFailedError) as err:
            engine.run(oblivious)
        failures = err.value.failures
        assert isinstance(failures[1], RankKilledError)
        assert failures[1].rank == 1
        assert all(isinstance(failures[r], CommRevokedError)
                   for r in (0, 2, 3))

        def pairwise(ctx):
            # ranks 0 and 2 talk to each other only; 1 and 3 are idle
            # apart from the local work that lets the kill fire
            comm = Communicator.world(ctx)
            buf = ctx.device.zeros(8)
            ctx.clock.advance(1.0)
            if ctx.rank in (0, 2):
                comm.Sendrecv(buf, 2 - ctx.rank, ctx.device.zeros(8),
                              2 - ctx.rank)
            return ctx.rank

        engine = Engine(thetagpu1, nranks=4)
        injector = with_faults(engine, FaultPlan().kill(1, after_us=0.0))
        assert engine.run(pairwise) == [0, None, 2, 3]
        assert injector.killed == [1]

    def test_recovered_comm_survives_more_collectives(self, thetagpu1):
        """The shrunk communicator is a first-class comm: bcast and a
        second allreduce on it work too — and the parent's routing
        cache (keyed to the pre-failure rank set) is drained."""
        from repro.mpi.coll import levels

        def body(ctx):
            comm = Communicator.world(ctx)
            local = levels.levels(None, comm, levels.LEADER).inner
            assert comm.routing_cache["hierarchical"].inner is local
            buf = ctx.device.zeros(64)
            out = ctx.device.zeros(64)
            try:
                for i in range(4):
                    buf.array[:] = 1.0
                    comm.Allreduce(buf, out, op=SUM)
            except CommRevokedError:
                comm.Comm_agree()
                new = comm.Comm_shrink()
                assert comm.routing_cache == {} and local._freed
                b = ctx.device.zeros(64)
                if new.Get_rank() == 0:
                    b.array[:] = 7.0
                new.Bcast(b, root=0)
                o = ctx.device.zeros(64)
                new.Allreduce(b, o, op=SUM)
                return (float(b.array[0]), float(o.array[0]))
            return None

        engine = Engine(thetagpu1, nranks=6)
        with_faults(engine, FaultPlan().kill(2, after_us=30.0))
        results = engine.run(body)
        assert results[2] is None
        assert all(r == (7.0, 35.0) for i, r in enumerate(results)
                   if i != 2)


#: the three spellings of one allreduce, each ``(comm, send, recv) ->
#: callable that runs it once``
SPELLINGS = {
    "blocking": lambda comm, s, r: lambda: comm.Allreduce(s, r),
    "persistent": lambda comm, s, r: comm.Allreduce_init(s, r).Start,
    "nonblocking": lambda comm, s, r: lambda: comm.Iallreduce(s, r).wait(),
}


@pytest.mark.parametrize("mode", [DispatchMode.PURE_MPI,
                                  DispatchMode.PURE_XCCL],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_every_spelling_obeys_the_elastic_contract(thetagpu1, spelling, mode):
    """A peer's death surfaces the same way from ``Allreduce``,
    ``Allreduce_init().Start()`` and ``Iallreduce`` on either route:
    every survivor sees ``CommRevokedError``, the communicator is
    revoked engine-wide (so a later ``Start`` is refused up front), and
    ``Comm_shrink`` recovers."""
    def body(ctx):
        comm = world_communicator(ctx, mode=mode)
        send = ctx.device.zeros(256)
        send.fill(1.0)
        recv = ctx.device.zeros(256)
        once = SPELLINGS[spelling](comm, send, recv)
        try:
            for _ in range(50):
                once()
        except CommRevokedError:
            revoked = comm.Comm_is_revoked()
            with pytest.raises(CommRevokedError):
                comm.Allreduce_init(send, recv).Start()
            comm.Comm_agree()
            new = comm.Comm_shrink()
            new.Allreduce(send, recv)
            return (revoked, new.Get_size(), float(recv.array[0]))
        return "never revoked"

    engine = Engine(thetagpu1, nranks=4)
    with_faults(engine, FaultPlan().kill(1, after_us=30.0))
    results = engine.run(body)
    assert results[1] is None
    assert [r for i, r in enumerate(results) if i != 1] == [(True, 3, 3.0)] * 3


def _polled(req):
    for _ in range(1000):
        if req.test()[0]:
            return
    raise AssertionError("a poll never learned its peer died")


#: every p2p spelling, as ``(comm, buf, peer) -> None``
P2P_SPELLINGS = {
    "Send": lambda c, b, p: c.Send(b, p),
    "Recv": lambda c, b, p: c.Recv(b, p),
    "Isend-wait": lambda c, b, p: c.Isend(b, p).wait(),
    "Irecv-wait": lambda c, b, p: c.Irecv(b, p).wait(),
    "Send_init-Start-wait": lambda c, b, p: c.Send_init(b, p).Start().wait(),
    "Recv_init-Start-wait": lambda c, b, p: c.Recv_init(b, p).Start().wait(),
    "Irecv-test-loop": lambda c, b, p: _polled(c.Irecv(b, p)),
}


@pytest.mark.parametrize("spelling", sorted(P2P_SPELLINGS))
def test_every_p2p_spelling_obeys_the_elastic_contract(thetagpu1, spelling):
    """A rendezvous-size exchange with a peer that died raises
    ``CommRevokedError`` from every blocking, nonblocking and
    persistent spelling, and leaves the communicator revoked
    engine-wide."""
    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(1 << 18)         # 1 MiB of float32
        if ctx.rank == 1:  # the mirror call; dies at its first advance
            P2P_SPELLINGS["Recv" if "Send" in spelling else "Send"](
                comm, buf, 0)
            return "survived"
        with pytest.raises(CommRevokedError):
            P2P_SPELLINGS[spelling](comm, buf, 1)
        return comm.Comm_is_revoked()

    engine = Engine(thetagpu1, nranks=2)
    with_faults(engine, FaultPlan().kill(1, after_us=0.0))
    results = engine.run(body)
    assert results == [True, None]
    assert engine.is_revoked("w")


class TestRevokeSemantics:
    def test_ops_on_revoked_comm_raise(self, thetagpu1):
        def body(ctx):
            comm = Communicator.world(ctx)
            if ctx.rank == 0:
                comm.Comm_revoke()
            # revoke is engine-wide and immediate: every rank's next
            # operation (no barrier in between) must raise
            assert comm.Comm_is_revoked()
            with pytest.raises(CommRevokedError):
                comm.Allreduce(ctx.device.zeros(8), ctx.device.zeros(8),
                               op=SUM)
            with pytest.raises(CommRevokedError):
                comm.Send(ctx.device.zeros(8), (ctx.rank + 1) % 4)
            return "revoked"

        engine = Engine(thetagpu1, nranks=4)
        results = engine.run(body)
        assert results == ["revoked"] * 4

    def test_revoke_is_idempotent(self, thetagpu1):
        def body(ctx):
            comm = Communicator.world(ctx)
            comm.Comm_revoke()   # every rank revokes; counted once
            comm.Comm_revoke()
            return comm.Comm_is_revoked()

        engine = Engine(thetagpu1, nranks=4)
        results = engine.run(body)
        assert results == [True] * 4
        # 4 ranks x 2 calls each, deduplicated to one revocation
        assert fastpath.STATS.comm_revokes == 1

    def test_shrink_without_failure_is_identity_shaped(self, thetagpu1):
        """Revoke with no deaths: shrink keeps all ranks but yields a
        fresh, working communicator."""
        def body(ctx):
            comm = Communicator.world(ctx)
            comm.Comm_revoke()
            _flag, failed = comm.Comm_agree()
            new = comm.Comm_shrink()
            buf = ctx.device.zeros(16)
            buf.array[:] = 1.0
            out = ctx.device.zeros(16)
            new.Allreduce(buf, out, op=SUM)
            return (failed, new.Get_size(), float(out.array[0]))

        engine = Engine(thetagpu1, nranks=4)
        results = engine.run(body)
        assert results == [((), 4, 4.0)] * 4

    def test_agree_ands_flags(self, thetagpu1):
        def body(ctx):
            comm = Communicator.world(ctx)
            flag, failed = comm.Comm_agree(flag=0 if ctx.rank == 1 else 1)
            return (flag, failed)

        engine = Engine(thetagpu1, nranks=4)
        results = engine.run(body)
        assert results == [(0, ())] * 4
