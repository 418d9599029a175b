"""Send-recv-based collectives over the unified xCCL API (§3.3).

The CCL APIs provide only five collectives; everything else is built
from group calls and point-to-point primitives.  Listing 1 of the paper
shows the AlltoAllv — :func:`xccl_alltoallv` is that code against the
unified API: one group, one send and one receive per peer.  The others
follow the same pattern.  These functions are the *fused sendrecv-group*
executors of the dispatch registry (:data:`repro.core.dispatch.REGISTRY`):
the pipeline's execute stage calls them when a collective without a
direct §3.2 mapping routes to the CCL.

Every message is one row of the open group.  The backend's ``send`` /
``recv`` — what ``xcclSend`` / ``xcclRecv`` call, looked up once per
collective instead of once per message — check the row and append it,
on a plain slice of the caller's window: no buffer object is built per
segment.  The flush (:meth:`repro.xccl.backend.CCLBackend._execute_group`)
keeps the rows as columns: it numbers, prices, books and lands them with
no Python call per message.

The *symmetric* exchanges (alltoall(v), allgatherv — every rank both
sends and receives) open their group with the communicator hint
(``xcclGroupStart(comm)``): each send's matching recv is queued in the
peer's same group call, so the transport flushes the group as one
rendezvous instead of one mailbox round trip per message.  The
*rooted* collectives (gather(v), scatter(v)) deliberately omit the
hint — a whole-group rendezvous would make the leaf ranks wait for
everyone where the mailbox lets them post-and-go — and ride the bulk
post/match path instead.  Every message is priced and booked the same
way on both transports; a fault plan's message rules filter the hinted
exchange and never move it to the bulk transport.

Sends flushed through the whole-group rendezvous travel as borrowed
read-only views of the caller's windows instead of per-peer snapshots;
the group's consume barrier hands the buffers back once every peer has
copied out.  The symmetric exchanges lend their send buffer once, as a
read-only view, so every row cut from it already is one.
``MPI_IN_PLACE`` spellings, where a send window aliases a receive
window of the same call (allgatherv), are found by one comparison of
the send and receive allocations per flush and then snapshotted
message by message.

Buffers are element-addressed (offsets/counts in elements of ``dt``),
exactly like the MPI calls they implement.
"""

from __future__ import annotations

from typing import Sequence

from repro.hw.memory import as_array, borrow_view
from repro.mpi.communicator import IN_PLACE
from repro.mpi.datatypes import Datatype
from repro.xccl.api import (
    aborts_group_on_error,
    backend_of,
    xcclGroupEnd,
    xcclGroupStart,
    xcclStreamSynchronize,
)
from repro.xccl.comm import XCCLComm


@aborts_group_on_error
def xccl_alltoallv(comm: XCCLComm, sendbuf, sendcounts: Sequence[int],
                   sdispls: Sequence[int], recvbuf,
                   recvcounts: Sequence[int], rdispls: Sequence[int],
                   dt: Datatype) -> None:
    """Listing 1: AlltoAllv as one send+recv pair per peer in a group."""
    backend = backend_of(comm)
    send, recv = backend.send, backend.recv
    sa, ra = borrow_view(as_array(sendbuf)), as_array(recvbuf)
    xcclGroupStart(comm)
    for r in range(comm.size):
        n = sendcounts[r]
        if n:
            lo = sdispls[r]
            send(comm, sa[lo:lo + n], n, dt, r)
        n = recvcounts[r]
        if n:
            lo = rdispls[r]
            recv(comm, ra[lo:lo + n], n, dt, r)
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
    backend = backend_of(comm)
    xcclGroupStart()
    if comm.rank == root:
        ra = as_array(recvbuf)
        for r in range(comm.size):
            backend.recv(comm, ra[r * count:(r + 1) * count], count, dt, r)
    src = _own_block(sendbuf, recvbuf, comm.rank, count)
    backend.send(comm, src, count, dt, root)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


@aborts_group_on_error
def xccl_gatherv(comm: XCCLComm, sendbuf, recvbuf, counts: Sequence[int],
                 displs: Sequence[int], dt: Datatype, root: int) -> None:
    """MPI_Gatherv via one grouped exchange."""
    backend = backend_of(comm)
    xcclGroupStart()
    if comm.rank == root:
        ra = as_array(recvbuf)
        for r in range(comm.size):
            n = counts[r]
            if n:
                backend.recv(comm, ra[displs[r]:displs[r] + n], n, dt, r)
    n = counts[comm.rank]
    if n:
        lo = displs[comm.rank] if sendbuf is IN_PLACE else 0
        src = as_array(recvbuf if sendbuf is IN_PLACE else sendbuf)
        backend.send(comm, src[lo:lo + n], n, dt, root)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


@aborts_group_on_error
def xccl_scatter(comm: XCCLComm, sendbuf, recvbuf, count: int, dt: Datatype,
                 root: int) -> None:
    """MPI_Scatter: root sends each rank its block inside one group."""
    backend = backend_of(comm)
    xcclGroupStart()
    if comm.rank == root:
        sa = as_array(sendbuf)
        for r in range(comm.size):
            backend.send(comm, sa[r * count:(r + 1) * count], count, dt, r)
    backend.recv(comm, as_array(recvbuf)[:count], count, dt, root)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


@aborts_group_on_error
def xccl_scatterv(comm: XCCLComm, sendbuf, counts: Sequence[int],
                  displs: Sequence[int], recvbuf, dt: Datatype,
                  root: int) -> None:
    """MPI_Scatterv via one grouped exchange."""
    backend = backend_of(comm)
    xcclGroupStart()
    if comm.rank == root:
        sa = as_array(sendbuf)
        for r in range(comm.size):
            n = counts[r]
            if n:
                backend.send(comm, sa[displs[r]:displs[r] + n], n, dt, r)
    n = counts[comm.rank]
    if n:
        backend.recv(comm, as_array(recvbuf)[:n], n, dt, root)
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
    backend = backend_of(comm)
    send, recv = backend.send, backend.recv
    rank = comm.rank
    ra = as_array(recvbuf)
    n = counts[rank]
    src = ra[displs[rank]:displs[rank] + n] if sendbuf is IN_PLACE \
        else borrow_view(as_array(sendbuf))
    xcclGroupStart(comm)
    for r in range(comm.size):
        if n:
            send(comm, src, n, dt, r)
        m = counts[r]
        if m:
            recv(comm, ra[displs[r]:displs[r] + m], m, dt, r)
    xcclGroupEnd()
    xcclStreamSynchronize(comm)


def _own_block(sendbuf, recvbuf, rank: int, count: int):
    """This rank's contribution (handles MPI_IN_PLACE at the root)."""
    if sendbuf is IN_PLACE or sendbuf is None:
        return as_array(recvbuf)[rank * count:(rank + 1) * count]
    return as_array(sendbuf)
