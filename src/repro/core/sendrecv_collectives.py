"""Send-recv-based collectives over the unified xCCL API (§3.3).

The CCL APIs provide only five collectives; everything else is built
from group calls and point-to-point primitives.  Listing 1 of the paper
shows the AlltoAllv — :func:`xccl_alltoallv` is that code, line for
line, against the unified API.  The others follow the same pattern.
These functions are the *fused sendrecv-group* executors of the
dispatch registry (:data:`repro.core.dispatch.REGISTRY`): the
pipeline's execute stage calls them when a collective without a direct
§3.2 mapping routes to the CCL.

The *symmetric* exchanges (alltoall(v), allgatherv — every rank both
sends and receives) open their group with the communicator hint
(``xcclGroupStart(comm)``): each send's matching recv is queued in the
peer's same group call, so the transport flushes the group as one
rendezvous instead of one mailbox round trip per message.  The
*rooted* collectives (gather(v), scatter(v)) deliberately omit the
hint — a whole-group rendezvous would make the leaf ranks wait for
everyone where the mailbox lets them post-and-go — and ride the bulk
post/match path instead.  Every message is priced and booked the same
way on both transports; only simulator wall-clock differs.

Sends flushed through the whole-group rendezvous travel as borrowed
read-only views of the caller's segments instead of per-peer
snapshots; the group's consume barrier hands the buffers back once
every peer has copied out.  ``MPI_IN_PLACE`` spellings, where a send
segment aliases a receive window of the same call (allgatherv), are
detected per message and snapshotted instead — see
:meth:`repro.xccl.backend.CCLBackend._execute_group`.

Buffers are element-addressed (offsets/counts in elements of ``dt``),
exactly like the MPI calls they implement.
"""

from __future__ import annotations

from typing import Sequence

from repro.mpi.coll._util import seg
from repro.mpi.communicator import IN_PLACE
from repro.mpi.datatypes import Datatype
from repro.xccl.api import (
    aborts_group_on_error,
    xcclGroupEnd,
    xcclGroupStart,
    xcclRecv,
    xcclSend,
    xcclStreamSynchronize,
)
from repro.xccl.comm import XCCLComm


@aborts_group_on_error
def xccl_alltoallv(comm: XCCLComm, sendbuf, sendcounts: Sequence[int],
                   sdispls: Sequence[int], recvbuf,
                   recvcounts: Sequence[int], rdispls: Sequence[int],
                   dt: Datatype) -> None:
    """Listing 1: AlltoAllv as one send+recv pair per peer in a group."""
    xcclGroupStart(comm)
    for r in range(comm.size):
        if sendcounts[r]:
            xcclSend(seg(sendbuf, sdispls[r], sendcounts[r]),
                     sendcounts[r], dt, r, comm)
        if recvcounts[r]:
            xcclRecv(seg(recvbuf, rdispls[r], recvcounts[r]),
                     recvcounts[r], dt, r, comm)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


def _uniform_geometry(comm: XCCLComm, count: int):
    """``(counts, displs)`` for a uniform per-peer exchange, compiled
    once per (collective geometry, count) and replayed from the CCL
    communicator."""
    key = ("uniform", count)
    geom = comm.plan_geometry.get(key)
    if geom is None:
        p = comm.size
        geom = ([count] * p, [r * count for r in range(p)])
        comm.plan_geometry[key] = geom
    return geom


def xccl_alltoall(comm: XCCLComm, sendbuf, recvbuf, count: int,
                  dt: Datatype) -> None:
    """MPI_Alltoall: the uniform special case of Listing 1."""
    counts, displs = _uniform_geometry(comm, count)
    xccl_alltoallv(comm, sendbuf, counts, displs, recvbuf, counts, displs, dt)


@aborts_group_on_error
def xccl_gather(comm: XCCLComm, sendbuf, recvbuf, count: int, dt: Datatype,
                root: int) -> None:
    """MPI_Gather: everyone sends its block to root inside one group."""
    xcclGroupStart()
    if comm.rank == root:
        for r in range(comm.size):
            xcclRecv(seg(recvbuf, r * count, count), count, dt, r, comm)
    src = _own_block(sendbuf, recvbuf, comm.rank, count)
    xcclSend(src, count, dt, root, comm)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


@aborts_group_on_error
def xccl_gatherv(comm: XCCLComm, sendbuf, recvbuf, counts: Sequence[int],
                 displs: Sequence[int], dt: Datatype, root: int) -> None:
    """MPI_Gatherv via one grouped exchange."""
    xcclGroupStart()
    if comm.rank == root:
        for r in range(comm.size):
            if counts[r]:
                xcclRecv(seg(recvbuf, displs[r], counts[r]), counts[r],
                         dt, r, comm)
    if counts[comm.rank]:
        src = sendbuf if sendbuf is not IN_PLACE else \
            seg(recvbuf, displs[comm.rank], counts[comm.rank])
        xcclSend(seg(src, 0, counts[comm.rank]), counts[comm.rank], dt,
                 root, comm)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


@aborts_group_on_error
def xccl_scatter(comm: XCCLComm, sendbuf, recvbuf, count: int, dt: Datatype,
                 root: int) -> None:
    """MPI_Scatter: root sends each rank its block inside one group."""
    xcclGroupStart()
    if comm.rank == root:
        for r in range(comm.size):
            xcclSend(seg(sendbuf, r * count, count), count, dt, r, comm)
    xcclRecv(seg(recvbuf, 0, count), count, dt, root, comm)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


@aborts_group_on_error
def xccl_scatterv(comm: XCCLComm, sendbuf, counts: Sequence[int],
                  displs: Sequence[int], recvbuf, dt: Datatype,
                  root: int) -> None:
    """MPI_Scatterv via one grouped exchange."""
    xcclGroupStart()
    if comm.rank == root:
        for r in range(comm.size):
            if counts[r]:
                xcclSend(seg(sendbuf, displs[r], counts[r]), counts[r],
                         dt, r, comm)
    if counts[comm.rank]:
        xcclRecv(seg(recvbuf, 0, counts[comm.rank]), counts[comm.rank],
                 dt, root, comm)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


@aborts_group_on_error
def xccl_allgatherv(comm: XCCLComm, sendbuf, recvbuf,
                    counts: Sequence[int], displs: Sequence[int],
                    dt: Datatype) -> None:
    """MPI_Allgatherv: each rank sends its block to every peer.

    (Uniform Allgather maps to the built-in ``xcclAllGather`` instead —
    this path exists for the vector form the CCLs lack.)
    """
    rank = comm.rank
    xcclGroupStart(comm)
    src = sendbuf if sendbuf is not IN_PLACE else \
        seg(recvbuf, displs[rank], counts[rank])
    for r in range(comm.size):
        if counts[rank]:
            xcclSend(seg(src, 0, counts[rank]), counts[rank], dt, r, comm)
        if counts[r]:
            xcclRecv(seg(recvbuf, displs[r], counts[r]), counts[r], dt, r,
                     comm)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


def _own_block(sendbuf, recvbuf, rank: int, count: int):
    """This rank's contribution (handles MPI_IN_PLACE at the root)."""
    if sendbuf is IN_PLACE or sendbuf is None:
        return seg(recvbuf, rank * count, count)
    return seg(sendbuf, 0, count)
