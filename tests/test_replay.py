"""Round programs: a key's first MPI-route call records, later ones replay.

``tests/test_conformance.py``'s ``replay`` family holds every flat
algorithm's replayed calls to the clocks, payloads and counters the
algorithm bodies gave before any call replayed.  Here: that a replay
really runs the rows and not the body, that it makes the same endpoint
calls the body made (on a shape that replays per rank), that on one
switched node the last member runs every member's rows with no endpoint
call at all, that a collective that does not synchronise and members
that disagree on the key still give the per-rank answer, that
revocation and peer death surface at a replayed call as at a live one,
and which calls stay live.
"""

from __future__ import annotations

import collections
import functools

import numpy as np
import pytest

from repro.core.dispatch import DispatchMode
from repro.core.runtime import world_communicator
from repro.errors import CommRevokedError, DeadlockError, RankFailedError
from repro.hw.systems import make_system
from repro.mpi import SUM, Communicator
from repro.mpi.coll import MPICollDispatcher, _ALGORITHMS
from repro.mpi.communicator import IN_PLACE
from repro.mpi.datatypes import DOUBLE
from repro.mpi.p2p import P2PEndpoint
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults
from tests.test_conformance import REPLAY_ALGORITHMS

ROUNDS = ("send", "recv", "isend", "irecv", "sendrecv")
#: an engine with nothing on that keeps a hot key from running centrally
#: (whatever ``MPIX_*`` says)
QUIET = dict(trace=False, online_tune=False)
#: an engine whose hot keys replay per rank, through the row interpreter:
#: tracing only observes, and keeps every key off central and compiled
#: replay — the reference both are held to
PER_RANK = dict(trace=True, online_tune=False)


def test_replay_covers_every_flat_algorithm():
    """The ``replay`` conformance family forces every algorithm of the
    MPI suite but ``levels.py``'s, and runs the seven single-algorithm
    collectives."""
    flat = {key for key, fn in _ALGORITHMS.items()
            if fn.__module__ != "repro.mpi.coll.levels"}
    single = {"barrier", "scan", "exscan", "allgatherv", "alltoallv",
              "gatherv", "scatterv"}
    assert set(REPLAY_ALGORITHMS) == flat | {(c, None) for c in single}
    assert single == {name for name in MPICollDispatcher.__dict__
                      if not name.startswith("_")} - {
        coll for coll, _ in _ALGORITHMS} - {
        "reduce_scatter_block", "program", "run", "warm"}


@pytest.fixture
def counted(monkeypatch):
    """Per (rank, name), the calls of each endpoint round method and of
    the dispatcher's live ``allreduce`` / ``alltoall`` entries."""
    calls = collections.Counter()

    def wrap(owner, name):
        fn = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            calls[self.ctx.rank if owner is P2PEndpoint
                  else args[0].comm.rank, name] += 1
            return fn(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ROUNDS:
        wrap(P2PEndpoint, name)
    for name in ("allreduce", "alltoall"):
        wrap(MPICollDispatcher, name)
    return calls


def _three_calls(counted, coll, count):
    """A rank program calling one key three times: per call, the
    endpoint round calls it made and the receive buffer."""
    def body(ctx):
        comm = world_communicator(ctx, mode=DispatchMode.PURE_MPI)
        p = comm.size
        send = ctx.device.zeros(count * p)
        recv = ctx.device.zeros(count * p)
        out = []
        for k in range(3):
            send.array[:] = np.arange(count * p) + 10.0 * ctx.rank + k
            before = sum(n for (rank, name), n in counted.items()
                         if rank == ctx.rank and name in ROUNDS)
            if coll == "allreduce":
                comm.Allreduce(send, recv, SUM, count=count)
            else:
                comm.Alltoall(send, recv, count=count)
            after = sum(n for (rank, name), n in counted.items()
                        if rank == ctx.rank and name in ROUNDS)
            out.append((after - before, recv.array.copy(), ctx.now))
        return out
    return body


def _check_payloads(results, coll, count, p=4):
    for rank, calls in enumerate(results):
        for k, (_, got, _) in enumerate(calls):
            if coll == "allreduce":
                want = sum(np.arange(count) + 10.0 * r + k for r in range(p))
                assert np.array_equal(got[:count], want)
            else:
                want = np.concatenate([
                    np.arange(rank * count, (rank + 1) * count)
                    + 10.0 * r + k for r in range(p)])
                assert np.array_equal(got, want)


@pytest.mark.parametrize("coll,count", [("allreduce", 5), ("alltoall", 3)])
def test_a_key_records_once_then_replays(thetagpu2, counted, coll, count):
    """The body runs on the key's first call only; the second makes the
    same endpoint calls from the rows, and lands the same payloads as
    the body did.  On 2 x 2 ranks, a multi-node communicator, the third
    runs compiled: no endpoint call, the same payloads and clocks.  A
    traced run replays every later call per rank (on one switched node
    the later calls run centrally, below)."""
    engine = Engine(thetagpu2, nranks=4, ranks_per_node=2, **QUIET)
    results = engine.run(_three_calls(counted, coll, count))
    assert all(counted[rank, coll] == 1 for rank in range(4))
    assert (engine.central_replays, engine.compiled_replays) == (0, 1)
    for calls in results:
        assert calls[0][0] > 0 and [n for n, _, _ in calls] == \
            [calls[0][0]] * 2 + [0]
    _check_payloads(results, coll, count)
    traced = Engine(thetagpu2, nranks=4, ranks_per_node=2, trace=True)
    per_rank = traced.run(_three_calls(counted, coll, count))
    assert traced.compiled_replays == 0
    for calls in per_rank:
        assert calls[0][0] > 0 and len({n for n, _, _ in calls}) == 1
    _check_payloads(per_rank, coll, count)
    assert [[clock for *_, clock in calls] for calls in results] == \
        [[clock for *_, clock in calls] for calls in per_rank]


@pytest.mark.parametrize("coll,count", [("allreduce", 5), ("alltoall", 3)])
def test_a_hot_key_on_one_switched_node_runs_centrally(
        thetagpu1, counted, coll, count):
    """On one switched node the key's later calls make no endpoint call
    at all: the last member to arrive runs every member's rows — same
    payloads, and every clock identical to the bit with the per-rank
    replay's."""
    engine = Engine(thetagpu1, nranks=4, **QUIET)
    results = engine.run(_three_calls(counted, coll, count))
    assert engine.central_replays == 2
    for calls in results:
        assert calls[0][0] > 0 and [n for n, _, _ in calls[1:]] == [0, 0]
    _check_payloads(results, coll, count)
    reference = Engine(thetagpu1, nranks=4, **PER_RANK)
    per_rank = reference.run(_three_calls(collections.Counter(), coll,
                                          count))
    assert (reference.central_replays, reference.compiled_replays) == (0, 0)
    assert [[clock for *_, clock in calls] for calls in results] == \
        [[clock for *_, clock in calls] for calls in per_rank]


def _bcast_then_send(ctx, calls=3):
    """Root 0: ``Bcast`` then ``Send``; rank 1: ``Recv`` then ``Bcast``
    — a broadcast that does not synchronise (rank 1 needs the root's
    send before it reaches the broadcast), ``calls`` times so the key is
    hot; ranks 2 and 3 just broadcast."""
    comm = Communicator.world(ctx)
    buf = ctx.device.zeros(16)
    note = ctx.device.zeros(4)
    log = []
    for k in range(calls):
        if ctx.rank == 0:
            buf.fill(k + 1.0)
            comm.Bcast(buf, root=0)
            note.fill(k + 10.0)
            comm.Send(note, 1, tag=7)
        elif ctx.rank == 1:
            comm.Recv(note, 0, tag=7)
            comm.Bcast(buf, root=0)
        else:
            comm.Bcast(buf, root=0)
        log.append((buf.array.tobytes(), note.array.tobytes(), ctx.now))
    return log


def _disagreeing_keys(ctx, calls=3):
    """One ``Allreduce`` a call, ``calls`` times, legal MPI with keys
    that differ: even ranks pass host arrays, odd ranks device
    buffers."""
    comm = Communicator.world(ctx)
    log = []
    for k in range(calls):
        if ctx.rank % 2:
            send, recv = ctx.device.zeros(8), ctx.device.zeros(8)
            send.fill(ctx.rank + k)
            arr = recv.array
        else:
            send = np.full(8, ctx.rank + k, dtype=np.float32)
            recv = arr = np.zeros(8, dtype=np.float32)
        comm.Allreduce(send, recv, SUM)
        log.append((arr.tobytes(), ctx.now))
    return log


def _rooted_in_place(ctx, coll, root, calls=6):
    """``calls`` calls of a rooted collective whose root spells its own
    block ``IN_PLACE`` (3 floats a rank): the bytes and the clock after
    every call."""
    comm = Communicator.world(ctx)
    p, rank = comm.size, comm.rank
    counts = [3] * p
    send, recv = ctx.device.zeros(3 * p), ctx.device.zeros(3 * p)
    mine = slice(3 * rank, 3 * rank + 3)
    log = []
    for k in range(calls):
        send.array[:] = np.arange(3 * p) % 5 + rank + k
        recv.array[:] = -1
        here = rank == root
        if coll == "reduce":
            if here:
                recv.array[:3] = send.array[:3]
            comm.Reduce(IN_PLACE if here else send, recv, SUM, root=root,
                        count=3)
        elif coll == "gather":
            if here:
                recv.array[mine] = send.array[:3]
            comm.Gather(IN_PLACE if here else send, recv, root=root,
                        count=3)
        elif coll == "scatter":
            comm.Scatter(send, IN_PLACE if here else recv, root=root,
                         count=3)
        else:   # scatterv
            comm.Scatterv(send, counts, IN_PLACE if here else recv,
                          root=root)
        log.append((recv.array.tobytes(), ctx.now))
    return log


@pytest.mark.parametrize("root", [0, 2])
@pytest.mark.parametrize("coll", ["reduce", "gather", "scatter", "scatterv"])
def test_a_rooted_in_place_key_runs_centrally(thetagpu1, coll, root):
    """A root that spells its own block ``IN_PLACE`` agrees with its
    non-roots, which pass a buffer there (``replay.agree``): the key's
    hot calls run centrally, with the per-rank replay's bytes and every
    clock to the bit.  Its key once disagreed with theirs, so the call
    replayed per rank for good."""
    engine = Engine(thetagpu1, nranks=4, **QUIET)
    got = engine.run(_rooted_in_place, coll, root)
    assert engine.central_replays > 0
    assert got == Engine(thetagpu1, nranks=4, **PER_RANK).run(
        _rooted_in_place, coll, root)


@pytest.mark.parametrize("body", [_bcast_then_send, _disagreeing_keys])
def test_a_central_wait_gives_way_before_a_deadlock(thetagpu1, body):
    """Members gathered for a central replay wait for company that only
    comes once they have run their own rows (a broadcast that does not
    synchronise: once every rank is parked they are released), or meet
    members of another key (the last to arrive sends them all back):
    each then replays per rank — the payloads and every clock those
    replays give, to the bit."""
    engine = Engine(thetagpu1, nranks=4, **QUIET)
    got = engine.run(body)
    assert engine.central_replays == 0
    assert got == Engine(thetagpu1, nranks=4, **PER_RANK).run(body)


@pytest.mark.parametrize("body", [_bcast_then_send, _disagreeing_keys])
def test_a_meeting_that_failed_is_not_tried_again(thetagpu1, body):
    """A key whose members gave way, or disagreed, replays per rank from
    then on: the parks central replay costs over the per-rank replay's —
    one meeting's — are the same after one replayed call as after
    five."""
    def extra(calls):
        run = functools.partial(body, calls=calls)
        central = Engine(thetagpu1, nranks=4, **QUIET)
        central.run(run)
        per_rank = Engine(thetagpu1, nranks=4, **PER_RANK)
        per_rank.run(run)
        return central.scheduler.parks - per_rank.scheduler.parks

    assert extra(2) == extra(6)


def test_a_real_deadlock_still_raises_at_once(thetagpu1):
    """A member waits in a central slot while another waits for a
    message nobody sends: the slot gives way, its members finish, and
    the receive that can never match raises at once."""
    def body(ctx):
        comm = Communicator.world(ctx)
        send, recv = ctx.device.zeros(8), ctx.device.zeros(8)
        for _ in range(2):
            comm.Allreduce(send, recv, SUM)
        if ctx.rank == 1:
            comm.Recv(recv, 0, tag=3)       # never sent
            return
        comm.Allreduce(send, recv, SUM)     # rank 1 never comes

    with pytest.raises(RankFailedError) as failed:
        Engine(thetagpu1, nranks=4, **QUIET).run(body)
    assert failed.value.failures
    assert all(isinstance(exc, DeadlockError)
               for exc in failed.value.failures.values())


#: a kill deadline no rank reaches by itself: the victim crosses it on
#: purpose between two calls of a recorded key
DEADLINE = 1e6


@pytest.mark.parametrize("how", ["revoke", "kill"])
def test_revocation_between_calls_of_a_recorded_key(thetagpu1, how):
    """Revoke a communicator (or kill a member) between two calls of
    one recorded key: every survivor raises ``CommRevokedError`` at the
    replayed call."""
    victim = 3

    def body(ctx):
        comm = Communicator.world(ctx)
        send = ctx.device.zeros(64)
        send.fill(1.0)
        recv = ctx.device.zeros(64)
        comm.Allreduce(send, recv, SUM)     # recorded
        comm.Barrier()
        assert _recorded(comm) == [True, True]
        if ctx.rank == victim:
            if how == "revoke":
                comm.Comm_revoke()
            else:
                ctx.clock.advance(DEADLINE)     # dies here
        try:
            comm.Allreduce(send, recv, SUM)     # replayed
        except CommRevokedError:
            return "revoked"
        return "completed"

    engine = Engine(thetagpu1, nranks=4)
    with_faults(engine, FaultPlan().kill(victim, after_us=DEADLINE))
    results = engine.run(body)
    survivors = [r for i, r in enumerate(results)
                 if how == "revoke" or i != victim]
    assert survivors == ["revoked"] * len(survivors)
    assert how == "revoke" or results[victim] is None


def test_a_failed_recording_keeps_nothing(thetagpu1):
    """A first call that fails part-way (a member dies in it) records
    nothing, and its key stays replayable: the next call records from
    scratch."""
    victim = 2

    def body(ctx):
        comm = Communicator.world(ctx)
        try:
            comm.Allreduce(ctx.device.zeros(32), ctx.device.zeros(32), SUM)
        except CommRevokedError:
            pass
        return [(prog.rows, prog.replayable)
                for prog in comm.routing_cache["rounds"].values()]

    engine = Engine(thetagpu1, nranks=4)
    with_faults(engine, FaultPlan().kill(victim, after_us=0.0))
    results = engine.run(body)
    assert results[victim] is None
    assert [r for i, r in enumerate(results) if i != victim] == \
        [[(None, True)]] * 3


def _recorded(comm):
    return [prog.rows is not None
            for prog in comm.routing_cache["rounds"].values()]


def test_what_stays_live(thetagpu1):
    """A send buffer that is the receive buffer (not ``IN_PLACE``), a
    window whose elements are not the datatype's, and the hierarchical
    algorithms are never recorded; ``IN_PLACE`` is."""
    def body(ctx):
        comm = Communicator.world(ctx)
        buf = ctx.device.zeros(16)
        for _ in range(2):
            comm.Allreduce(buf, buf, SUM)
        aliased = _recorded(comm)
        comm.routing_cache.clear()
        wide = ctx.device.zeros(16, dtype=np.float32)
        for _ in range(2):
            comm.Allreduce(wide, ctx.device.zeros(16, dtype=np.float32),
                           SUM, datatype=DOUBLE, count=8)
        mismatched = _recorded(comm)
        comm.routing_cache.clear()
        for _ in range(2):
            comm.Allreduce(IN_PLACE, buf, SUM)
        in_place = _recorded(comm)
        comm.routing_cache.clear()
        comm.coll = MPICollDispatcher(force="hierarchical")
        for _ in range(2):
            comm.Allreduce(ctx.device.zeros(16), buf, SUM)
        return aliased, mismatched, in_place, _recorded(comm)

    for aliased, mismatched, in_place, leveled in \
            Engine(thetagpu1, nranks=4).run(body):
        assert aliased == [False]
        assert mismatched == []           # no key: nothing is kept
        assert in_place == [True]
        assert leveled == [False]


@pytest.mark.parametrize("payloads", [True, False],
                         ids=["real", "storage_free"])
def test_a_pending_rendezvous_send_keeps_its_call_per_rank(payloads):
    """A member that reaches a hot key with a rendezvous send no receiver
    has matched yet (its receiver will book the member's wire later, in
    the receiver's order) sends the call back to per-rank replay — also
    storage-free, where the send lends nothing: the clocks are the
    per-rank replay's."""
    def body(ctx):
        comm = Communicator.world(ctx)
        send, recv = ctx.device.zeros(8), ctx.device.zeros(8)
        big = ctx.device.zeros(1 << 14)     # 64 KiB: rendezvous
        for _ in range(2):
            comm.Allreduce(send, recv, SUM)
        if ctx.rank == 0:
            req = comm.Isend(big, 1)
            comm.Allreduce(send, recv, SUM)
            req.wait()
        elif ctx.rank == 1:
            comm.Recv(big, 0)
            comm.Allreduce(send, recv, SUM)
        else:
            comm.Allreduce(send, recv, SUM)
        return ctx.now

    cluster = make_system("thetagpu", 1, payloads=payloads)
    engine = Engine(cluster, nranks=4, **QUIET)
    got = engine.run(body)
    assert engine.central_replays == 1      # the second warm-up call
    assert got == Engine(cluster, nranks=4, **PER_RANK).run(body)
