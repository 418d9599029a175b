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
count)``, cut by the endpoint; ``seg`` views are for local copies and
reductions only.  This keeps the small-message route's per-message cost
in the transport, and makes a round one endpoint call — the unit a
compiled step program would replay.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
    benchmarks and the offline tuner to sweep algorithms).
    """

    def __init__(self, force: Optional[str] = None) -> None:
        self.force = force
        self._algo_cache: Dict[Tuple, object] = {}

    def _pick(self, coll: str, nbytes: int, p: int, commutative: bool = True):
        # self.force joins the key so mutating it cannot go stale
        key = (self.force, coll, nbytes, p, commutative)
        fn = self._algo_cache.get(key)
        if fn is None:
            name = self.force or tuning.select(coll, nbytes, p, commutative)
            fn = self._algo_cache[key] = algorithm(coll, name)
        return fn

    def run(self, call) -> None:
        """Execute one descriptor on the MPI algorithms."""
        getattr(self, call.coll)(call)

    def warm(self, call) -> None:
        """Persistent-collective init hook; the algorithm choice is
        cached by the first run, so there is nothing to plan here."""

    # one method per Communicator entry point ---------------------------

    def barrier(self, c) -> None:
        barrier_dissemination(c.comm)

    def bcast(self, c) -> None:
        self._pick("bcast", c.count * c.dt.itemsize, c.comm.size)(
            c.comm, c.recvbuf, c.count, c.dt, c.root)

    def reduce(self, c) -> None:
        self._pick("reduce", c.count * c.dt.itemsize, c.comm.size,
                   c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op, c.root)

    def allreduce(self, c) -> None:
        self._pick("allreduce", c.count * c.dt.itemsize, c.comm.size,
                   c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def allgather(self, c) -> None:
        self._pick("allgather", c.count * c.dt.itemsize, c.comm.size)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt)

    def allgatherv(self, c) -> None:
        allgatherv_ring(c.comm, c.sendbuf, c.recvbuf, c.recvcounts,
                        c.rdispls, c.dt)

    def alltoall(self, c) -> None:
        self._pick("alltoall", c.count * c.dt.itemsize, c.comm.size)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt)

    def alltoallv(self, c) -> None:
        alltoallv_scattered(c.comm, c.sendbuf, c.sendcounts, c.sdispls,
                            c.recvbuf, c.recvcounts, c.rdispls, c.dt)

    def gather(self, c) -> None:
        self._pick("gather", c.count * c.dt.itemsize, c.comm.size)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.root)

    def gatherv(self, c) -> None:
        gatherv_linear(c.comm, c.sendbuf, c.recvbuf, c.recvcounts, c.rdispls,
                       c.dt, c.root)

    def scatter(self, c) -> None:
        self._pick("scatter", c.count * c.dt.itemsize, c.comm.size)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.root)

    def scatterv(self, c) -> None:
        scatterv_linear(c.comm, c.sendbuf, c.sendcounts, c.sdispls,
                        c.recvbuf, c.dt, c.root)

    def reduce_scatter_block(self, c) -> None:
        self._pick("reduce_scatter", c.count * c.dt.itemsize, c.comm.size,
                   c.op.commutative)(
            c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def scan(self, c) -> None:
        scan_linear(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)

    def exscan(self, c) -> None:
        exscan_linear(c.comm, c.sendbuf, c.recvbuf, c.count, c.dt, c.op)
