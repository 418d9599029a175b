"""Round programs: a key's first MPI-route call records, later ones replay.

``tests/test_conformance.py``'s ``replay`` family holds every flat
algorithm's replayed calls to the clocks, payloads and counters the
algorithm bodies gave before any call replayed.  Here: that a replay
really runs the rows and not the body, that it makes the same endpoint
calls the body made, that revocation and peer death surface at a
replayed call as at a live one, and which calls stay live.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from repro.core.dispatch import DispatchMode
from repro.core.runtime import world_communicator
from repro.errors import CommRevokedError
from repro.mpi import SUM, Communicator
from repro.mpi.coll import MPICollDispatcher, _ALGORITHMS
from repro.mpi.communicator import IN_PLACE
from repro.mpi.datatypes import DOUBLE
from repro.mpi.p2p import P2PEndpoint
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults
from tests.test_conformance import REPLAY_ALGORITHMS

ROUNDS = ("send", "recv", "isend", "irecv", "sendrecv")


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


@pytest.mark.parametrize("coll,count", [("allreduce", 5), ("alltoall", 3)])
def test_a_key_records_once_then_replays(thetagpu1, counted, coll, count):
    """The body runs on the key's first call only; every later call
    makes the same endpoint calls from the rows, and lands the same
    payloads as the body did."""
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
            out.append((after - before, recv.array.copy()))
        return out

    results = Engine(thetagpu1, nranks=4).run(body)
    assert all(counted[rank, coll] == 1 for rank in range(4))
    p = 4
    for rank, calls in enumerate(results):
        assert calls[0][0] > 0 and len({n for n, _ in calls}) == 1
        for k, (_, got) in enumerate(calls):
            if coll == "allreduce":
                want = sum(np.arange(count) + 10.0 * r + k for r in range(p))
                assert np.array_equal(got[:count], want)
            else:
                want = np.concatenate([
                    np.arange(rank * count, (rank + 1) * count)
                    + 10.0 * r + k for r in range(p)])
                assert np.array_equal(got, want)


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
