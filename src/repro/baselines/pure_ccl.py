"""Pure-CCL harness: the vendor library without any MPI wrapper.

OMB's NCCL benchmarks produce the paper's dashed "Pure NCCL/MSCCL"
lines; this harness is their analogue: collectives issued straight
through the ``xccl*`` API, with only a CCL-level synchronization
between iterations (no MPI middleware anywhere on the path).
"""

from __future__ import annotations

from repro.hw.memory import as_array
from repro.mpi.datatypes import FLOAT, Datatype
from repro.mpi.ops import SUM, Op
from repro.sim.engine import RankContext
from repro.xccl import api as xapi
from repro.xccl.comm import XCCLComm


class PureCCLHarness:
    """Per-rank handle for direct CCL benchmarking.

    Args:
        ctx: the rank's engine context.
        backend: CCL backend name (must be able to drive the local
            accelerator's vendor).
    """

    def __init__(self, ctx: RankContext, backend: str) -> None:
        self.ctx = ctx
        uid = xapi.xcclGetUniqueId(ctx, ctx.size,
                                   ("pure", backend, next(ctx.program_seq)))
        self.comm: XCCLComm = xapi.xcclCommInitRank(
            ctx, ctx.engine.world_group, ctx.rank, uid, backend)
        # ``sync``'s operand: summed in place, zeros stay zeros
        self._sync_buf = ctx.device.zeros(1)

    @property
    def size(self) -> int:
        """Job size."""
        return self.comm.size

    @property
    def rank(self) -> int:
        """This rank."""
        return self.comm.rank

    def sync(self) -> None:
        """CCL-level barrier: a 1-element allreduce + stream join
        (how OMB's NCCL benchmarks align iterations)."""
        xapi.xcclAllReduce(self._sync_buf, self._sync_buf, 1, FLOAT, SUM,
                           self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    # -- collectives ---------------------------------------------------------

    def allreduce(self, sendbuf, recvbuf, count: int,
                  dt: Datatype = FLOAT, op: Op = SUM) -> None:
        """Direct ``xcclAllReduce`` + stream sync."""
        xapi.xcclAllReduce(sendbuf, recvbuf, count, dt, op, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def reduce(self, sendbuf, recvbuf, count: int, root: int = 0,
               dt: Datatype = FLOAT, op: Op = SUM) -> None:
        """Direct ``xcclReduce`` + stream sync."""
        xapi.xcclReduce(sendbuf, recvbuf, count, dt, op, root, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def bcast(self, buf, count: int, root: int = 0,
              dt: Datatype = FLOAT) -> None:
        """Direct ``xcclBroadcast`` + stream sync."""
        xapi.xcclBroadcast(buf, count, dt, root, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def allgather(self, sendbuf, recvbuf, count: int,
                  dt: Datatype = FLOAT) -> None:
        """Direct ``xcclAllGather`` + stream sync."""
        xapi.xcclAllGather(sendbuf, recvbuf, count, dt, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    @xapi.aborts_group_on_error
    def alltoall(self, sendbuf, recvbuf, count: int,
                 dt: Datatype = FLOAT) -> None:
        """Grouped send/recv alltoall, as a user would hand-write it
        with the raw CCL API (§3.3's motivation): one unhinted group,
        a send and a receive per peer on slices of the two windows."""
        comm = self.comm
        backend = xapi.backend_of(comm)
        sa, ra = as_array(sendbuf), as_array(recvbuf)
        xapi.xcclGroupStart()
        for r in range(comm.size):
            lo = r * count
            backend.send(comm, sa[lo:lo + count], count, dt, r)
            backend.recv(comm, ra[lo:lo + count], count, dt, r)
        xapi.xcclGroupEnd()
        xapi.xcclStreamSynchronize(self.comm)

    # -- point-to-point -------------------------------------------------------

    def send(self, buf, count: int, peer: int, dt: Datatype = FLOAT) -> None:
        """Direct ``xcclSend`` (immediate group of one)."""
        xapi.xcclSend(buf, count, dt, peer, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def recv(self, buf, count: int, peer: int, dt: Datatype = FLOAT) -> None:
        """Direct ``xcclRecv``."""
        xapi.xcclRecv(buf, count, dt, peer, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    @xapi.aborts_group_on_error
    def sendrecv(self, sendbuf, recvbuf, count: int, peer: int,
                 dt: Datatype = FLOAT) -> None:
        """Fused bidirectional exchange (one group)."""
        xapi.xcclGroupStart()
        xapi.xcclSend(sendbuf, count, dt, peer, self.comm)
        xapi.xcclRecv(recvbuf, count, dt, peer, self.comm)
        xapi.xcclGroupEnd()
        xapi.xcclStreamSynchronize(self.comm)

