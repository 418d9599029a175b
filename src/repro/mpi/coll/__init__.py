"""Collective algorithms and the default MPI dispatcher.

:class:`MPICollDispatcher` is the strategy object a
:class:`~repro.mpi.communicator.Communicator` calls into; it consults
the MPI-internal tuning table (:mod:`repro.mpi.coll.tuning`) and runs
the chosen algorithm.  The xCCL abstraction layer subclasses it
(:class:`repro.core.hybrid.HybridDispatcher`) — the "hook in the MPI
runtime" of §3.3.
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

    ``force`` pins one algorithm name for every collective (used by
    benchmarks and the offline tuner to sweep algorithms).
    """

    name = "mpi"

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

    def release(self, comm) -> None:
        """Communicator-free hook; nothing to drop for the plain MPI
        dispatcher (subclasses release their plan caches here)."""

    # each method mirrors a Communicator entry point ------------------

    def barrier(self, comm) -> None:
        barrier_dissemination(comm)

    def bcast(self, comm, buf, count, dt, root) -> None:
        self._pick("bcast", count * dt.itemsize, comm.size)(
            comm, buf, count, dt, root)

    def reduce(self, comm, sendbuf, recvbuf, count, dt, op, root) -> None:
        self._pick("reduce", count * dt.itemsize, comm.size, op.commutative)(
            comm, sendbuf, recvbuf, count, dt, op, root)

    def allreduce(self, comm, sendbuf, recvbuf, count, dt, op) -> None:
        self._pick("allreduce", count * dt.itemsize, comm.size, op.commutative)(
            comm, sendbuf, recvbuf, count, dt, op)

    def allgather(self, comm, sendbuf, recvbuf, count, dt) -> None:
        self._pick("allgather", count * dt.itemsize, comm.size)(
            comm, sendbuf, recvbuf, count, dt)

    def allgatherv(self, comm, sendbuf, recvbuf, counts, displs, dt) -> None:
        allgatherv_ring(comm, sendbuf, recvbuf, counts, displs, dt)

    def alltoall(self, comm, sendbuf, recvbuf, count, dt) -> None:
        self._pick("alltoall", count * dt.itemsize, comm.size)(
            comm, sendbuf, recvbuf, count, dt)

    def alltoallv(self, comm, sendbuf, sendcounts, sdispls,
                  recvbuf, recvcounts, rdispls, dt) -> None:
        alltoallv_scattered(comm, sendbuf, sendcounts, sdispls,
                            recvbuf, recvcounts, rdispls, dt)

    def gather(self, comm, sendbuf, recvbuf, count, dt, root) -> None:
        self._pick("gather", count * dt.itemsize, comm.size)(
            comm, sendbuf, recvbuf, count, dt, root)

    def gatherv(self, comm, sendbuf, recvbuf, counts, displs, dt, root) -> None:
        gatherv_linear(comm, sendbuf, recvbuf, counts, displs, dt, root)

    def scatter(self, comm, sendbuf, recvbuf, count, dt, root) -> None:
        self._pick("scatter", count * dt.itemsize, comm.size)(
            comm, sendbuf, recvbuf, count, dt, root)

    def scatterv(self, comm, sendbuf, counts, displs, recvbuf, dt, root) -> None:
        scatterv_linear(comm, sendbuf, counts, displs, recvbuf, dt, root)

    def reduce_scatter_block(self, comm, sendbuf, recvbuf, count, dt, op) -> None:
        self._pick("reduce_scatter", count * dt.itemsize, comm.size,
                   op.commutative)(comm, sendbuf, recvbuf, count, dt, op)

    def scan(self, comm, sendbuf, recvbuf, count, dt, op) -> None:
        scan_linear(comm, sendbuf, recvbuf, count, dt, op)

    def exscan(self, comm, sendbuf, recvbuf, count, dt, op) -> None:
        exscan_linear(comm, sendbuf, recvbuf, count, dt, op)
