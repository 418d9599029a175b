"""The unified ``xccl*`` API (§3.1).

"At a lower level, xCCL APIs map corresponding NVIDIA, AMD, Habana, or
Microsoft libraries under the ``xccl`` prefix, offering unified APIs
for upper layers."  These functions are that prefix: the same call
works whether the communicator's backend is NCCL, RCCL, HCCL, or MSCCL
— the vendor differences (``ncclReduce`` vs ``hcclReduce``, datatype
enums) are resolved underneath.  A call completes on the rank's virtual
clock before it returns, so no call takes a stream: the vendor stream
is the one piece of the C signatures this API leaves out.

Function names intentionally mirror the C API (camelCase) to read like
Listing 1 of the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.errors import CCLInvalidUsage
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op
from repro.sim.engine import RankContext
from repro.xccl import backend as _backend_mod
from repro.xccl.backend import CCLBackend
from repro.xccl.comm import XCCLComm, xccl_get_unique_id
from repro.xccl.registry import backend_for_vendor, get_backend


def xcclGetUniqueId(ctx: RankContext, parties: int, key) -> int:
    """Agree on a communicator uid (``ncclGetUniqueId`` + bootstrap)."""
    return xccl_get_unique_id(ctx, parties, key)


def xcclCommInitRank(ctx: RankContext, group: Sequence[int], rank: int,
                     uid: int,
                     backend: Optional[Union[str, CCLBackend]] = None) -> XCCLComm:
    """Create this rank's communicator handle (``ncclCommInitRank``).

    ``backend`` may be a name, an instance, or None — in which case the
    local accelerator's vendor picks its native CCL (the portability
    core of the paper: the same call yields NCCL on ThetaGPU, RCCL on
    MRI, HCCL on Voyager).
    """
    if isinstance(backend, str):
        be: CCLBackend = get_backend(backend)
    elif backend is None:
        be = backend_for_vendor(ctx.device.vendor)
    else:
        be = backend
    if ctx.device.vendor not in be.vendors:
        raise CCLInvalidUsage(
            f"backend {be.name} cannot drive {ctx.device.vendor.value} devices")
    return XCCLComm(ctx, uid, group, rank, backend=be)


def xcclCommDestroy(comm: XCCLComm) -> None:
    """``ncclCommDestroy``."""
    comm.destroy()


def backend_of(comm: XCCLComm) -> CCLBackend:
    """The backend every ``xccl*`` call on ``comm`` dispatches to (a
    destroyed or backend-less communicator raises)."""
    if comm.backend is None:
        raise CCLInvalidUsage("communicator has no backend attached")
    if comm.aborted:
        raise CCLInvalidUsage("communicator used after destroy")
    return comm.backend


def xcclAllReduce(sendbuff, recvbuff, count: int, datatype: Datatype,
                  op: Op, comm: XCCLComm) -> None:
    """Unified AllReduce (maps to ``ncclAllReduce`` / ``hcclAllReduce``)."""
    backend_of(comm).all_reduce(comm, sendbuff, recvbuff, count, datatype, op)


def xcclBroadcast(buff, count: int, datatype: Datatype, root: int,
                  comm: XCCLComm) -> None:
    """Unified in-place Broadcast."""
    backend_of(comm).broadcast(comm, buff, count, datatype, root)


#: NCCL's legacy name for the in-place broadcast.
xcclBcast = xcclBroadcast


def xcclReduce(sendbuff, recvbuff, count: int, datatype: Datatype, op: Op,
               root: int, comm: XCCLComm) -> None:
    """Unified Reduce-to-root."""
    backend_of(comm).reduce(comm, sendbuff, recvbuff, count, datatype, op, root)


def xcclAllGather(sendbuff, recvbuff, count: int, datatype: Datatype,
                  comm: XCCLComm) -> None:
    """Unified AllGather (``count`` contributed per rank)."""
    backend_of(comm).all_gather(comm, sendbuff, recvbuff, count, datatype)


def xcclReduceScatter(sendbuff, recvbuff, count: int, datatype: Datatype,
                      op: Op, comm: XCCLComm) -> None:
    """Unified ReduceScatter (``count`` produced per rank)."""
    backend_of(comm).reduce_scatter(comm, sendbuff, recvbuff, count, datatype, op)


def xcclSend(sendbuff, count: int, datatype: Datatype, peer: int,
             comm: XCCLComm) -> None:
    """Unified point-to-point send (group-aware, Listing 1 line 5)."""
    backend_of(comm).send(comm, sendbuff, count, datatype, peer)


def xcclRecv(recvbuff, count: int, datatype: Datatype, peer: int,
             comm: XCCLComm) -> None:
    """Unified point-to-point receive (Listing 1 line 6)."""
    backend_of(comm).recv(comm, recvbuff, count, datatype, peer)


def xcclGroupStart(comm: Optional[XCCLComm] = None) -> None:
    """``ncclGroupStart``: begin fusing p2p calls.

    ``comm`` optionally hints that this group is a symmetric exchange
    over that communicator (every rank opens the same group and every
    send has its matching recv queued in the peer's group — the shape
    of every §3.3 send-recv collective).  The hint lets the transport
    flush the whole group as one engine rendezvous; omitted, the call
    is exactly ``ncclGroupStart`` and the batch rides the bulk mailbox
    transport.
    """
    _backend_mod.group_start(exchange=comm)


def xcclGroupEnd() -> None:
    """``ncclGroupEnd``: launch the fused batch."""
    _backend_mod.group_end()


#: for functions that open groups (see the backend module)
aborts_group_on_error = _backend_mod.aborts_group_on_error


def xcclStreamSynchronize(comm: XCCLComm) -> float:
    """Join the communicator's work (Listing 1 line 9); returns the
    rank's virtual time after the join.  Every CCL call here has already
    completed on the rank's clock when it returns, so the join is that
    clock."""
    return comm.ctx.now
