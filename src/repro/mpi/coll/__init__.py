"""Collective algorithms and the default MPI dispatcher.

:class:`MPICollDispatcher` is the strategy object a
:class:`~repro.mpi.communicator.Communicator` calls into; it consults
the MPI-internal tuning table (:mod:`repro.mpi.coll.tuning`) and runs
the chosen algorithm.  The xCCL abstraction layer installs its own
dispatcher in its place (:class:`repro.core.dispatch.CollectivePipeline`)
— the "hook in the MPI runtime" of §3.3 — and hands it the calls that
stay on MPI.

An algorithm's rounds go through the communicator's internal round
entries (``comm._send`` / ``_recv`` / ``_isend`` / ``_irecv`` /
``_sendrecv``), never through the public point-to-point API.  The
collective's :class:`~repro.mpi.communicator.CollectiveCall` checked its
arguments once and its one elastic guard covers every round, so a round
re-resolves nothing: it translates its peers, re-checks revocation and
makes one endpoint call.  A message window is ``(buffer, offset,
count)``, cut by the endpoint, and so is a local copy, fold or block
permutation (:mod:`repro.mpi.compute`).  This keeps the small-message
route's per-message cost in the transport, and makes every step one
call a round program records: the first call of a key on a
communicator runs the body and writes its rows, every later one
replays them (:mod:`repro.mpi.coll.replay`).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MPIError
from repro.mpi.coll import tuning
from repro.mpi.coll.allgather import (
    allgather_bruck,
    allgather_recursive_doubling,
    allgather_ring,
    allgatherv_ring,
)
from repro.mpi.coll.allreduce import (
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
)
from repro.mpi.coll.alltoall import (
    alltoall_bruck,
    alltoall_pairwise,
    alltoall_scattered,
    alltoallv_scattered,
)
from repro.mpi.coll.barrier import barrier_dissemination, exscan_linear, scan_linear
from repro.mpi.coll.bcast import bcast_binomial, bcast_scatter_ring_allgather
from repro.mpi.coll.gather import (
    gather_binomial,
    gather_linear,
    gatherv_linear,
    scatter_binomial,
    scatter_linear,
    scatterv_linear,
)
from repro.mpi.coll.levels import (
    allreduce_hierarchical,
    bcast_hierarchical,
    reduce_hierarchical,
)
from repro.mpi.coll.reduce import (
    reduce_binomial,
    reduce_linear,
    reduce_scatter_gather,
)
from repro.mpi.coll.reduce_scatter import (
    reduce_scatter_pairwise,
    reduce_scatter_recursive_halving,
)
from repro.mpi.coll.replay import RoundProgram, RoundPrograms, abandon
from repro.mpi.communicator import ALIASED

_ALGORITHMS = {
    ("bcast", "binomial"): bcast_binomial,
    ("bcast", "scatter_ring_allgather"): bcast_scatter_ring_allgather,
    ("reduce", "binomial"): reduce_binomial,
    ("reduce", "linear"): reduce_linear,
    ("reduce", "reduce_scatter_gather"): reduce_scatter_gather,
    ("allreduce", "recursive_doubling"): allreduce_recursive_doubling,
    ("allreduce", "ring"): allreduce_ring,
    ("allreduce", "rabenseifner"): allreduce_rabenseifner,
    ("allreduce", "hierarchical"): allreduce_hierarchical,
    ("bcast", "hierarchical"): bcast_hierarchical,
    ("reduce", "hierarchical"): reduce_hierarchical,
    ("allgather", "ring"): allgather_ring,
    ("allgather", "recursive_doubling"): allgather_recursive_doubling,
    ("allgather", "bruck"): allgather_bruck,
    ("alltoall", "scattered"): alltoall_scattered,
    ("alltoall", "pairwise"): alltoall_pairwise,
    ("alltoall", "bruck"): alltoall_bruck,
    ("reduce_scatter", "recursive_halving"): reduce_scatter_recursive_halving,
    ("reduce_scatter", "pairwise"): reduce_scatter_pairwise,
    ("gather", "binomial"): gather_binomial,
    ("gather", "linear"): gather_linear,
    ("scatter", "binomial"): scatter_binomial,
    ("scatter", "linear"): scatter_linear,
}


def algorithm(coll: str, name: str):
    """Look up one algorithm implementation by name."""
    try:
        return _ALGORITHMS[(coll, name)]
    except KeyError:
        raise MPIError(f"no {coll} algorithm named {name!r}") from None


class MPICollDispatcher:
    """Default dispatcher: pure-MPI algorithms per the internal table.

    A dispatcher receives :class:`~repro.mpi.communicator.CollectiveCall`
    descriptors: :meth:`run` executes one, :meth:`warm` plans one ahead
    of its first run.  The per-collective methods are the one place a
    descriptor is unpacked for the positional algorithm functions.

    ``force`` pins one algorithm name for every collective (used by
    benchmarks and the offline tuner to sweep algorithms); set it at
    construction — the round programs recorded under it are kept.

    Each call's algorithm runs as a round program
    (:class:`~repro.mpi.coll.replay.RoundProgram`), one per call key in
    the communicator's ledger: the key's first call picks the
    algorithm and runs it live, recording its rows; every later call
    replays them.
    """

    def __init__(self, force: Optional[str] = None) -> None:
        self.force = force

    def _pick(self, c, coll: str, commutative: bool = True):
        name = self.force or tuning.select(coll, c.count * c.dt.itemsize,
                                           c.comm.size, commutative)
        if name == "hierarchical":
            abandon(c.comm)     # levels.py's algorithms stay live
        return algorithm(coll, name)

    def program(self, call) -> RoundProgram:
        """This dispatcher's round program for ``call``'s key on its
        communicator (a ledger entry; another dispatcher's store is
        replaced), unrecorded until the key's first run."""
        comm = call.comm
        programs = comm.routing_cache.get("rounds")
        if programs is None or programs.owner is not self:
            programs = comm.routing_cache["rounds"] = RoundPrograms(self)
        key = call.key
        prog = programs.get(key)
        if prog is None:
            prog = RoundProgram(getattr(self, call.coll),
                                key is not None and ALIASED not in key)
            if key is not None:
                programs[key] = prog
        return prog

    def run(self, call) -> None:
        """Execute one descriptor on the MPI algorithms."""
        self.program(call).run(call)

    def warm(self, call) -> None:
        """Persistent-collective init hook; the first ``Start`` records
        the round program, so there is nothing to plan here."""

    # one method per Communicator entry point: the live run of a call,
    # which a round program records ---------------------------------------

    def barrier(self, c) -> None:
        barrier_dissemination(c.comm)

    def bcast(self, c) -> None:
        self._pick(c, "bcast")(c.comm, c.recvbuf, c.count, c.dt, c.root)

    def reduce(self, c) -> None:
        self._pick(c, "reduce", c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op, c.root)

    def allreduce(self, c) -> None:
        self._pick(c, "allreduce", c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def allgather(self, c) -> None:
        self._pick(c, "allgather")(c.comm, c.sendbuf, c.recvbuf, c.count,
                                   c.dt)

    def allgatherv(self, c) -> None:
        allgatherv_ring(c.comm, c.sendbuf, c.recvbuf, c.recvcounts,
                        c.rdispls, c.dt)

    def alltoall(self, c) -> None:
        self._pick(c, "alltoall")(c.comm, c.sendbuf, c.recvbuf, c.count,
                                  c.dt)

    def alltoallv(self, c) -> None:
        alltoallv_scattered(c.comm, c.sendbuf, c.sendcounts, c.sdispls,
                            c.recvbuf, c.recvcounts, c.rdispls, c.dt)

    def gather(self, c) -> None:
        self._pick(c, "gather")(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt,
                                c.root)

    def gatherv(self, c) -> None:
        gatherv_linear(c.comm, c.sendbuf, c.recvbuf, c.recvcounts, c.rdispls,
                       c.dt, c.root)

    def scatter(self, c) -> None:
        self._pick(c, "scatter")(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt,
                                 c.root)

    def scatterv(self, c) -> None:
        scatterv_linear(c.comm, c.sendbuf, c.sendcounts, c.sdispls,
                        c.recvbuf, c.dt, c.root)

    def reduce_scatter_block(self, c) -> None:
        self._pick(c, "reduce_scatter", c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def scan(self, c) -> None:
        scan_linear(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def exscan(self, c) -> None:
        exscan_linear(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)
