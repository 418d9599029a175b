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
    """Per-rank handle for direct CCL benchmarking: the MPI collective
    spellings of a stack, run straight on the CCL.

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
        #: job size, this rank and the shared record, as on a stack
        self.size, self.rank = self.comm.size, self.comm.rank
        self.record = self.comm.record
        # ``Barrier``'s operand: summed in place, zeros stay zeros
        self._sync_buf = ctx.device.zeros(1)

    # -- the stacks' collective surface ----------------------------------------
    #
    # The MPI spellings every stack is driven with, each one direct
    # ``xccl*`` call (Alltoall: the hand-written group) and a stream
    # sync.

    def Barrier(self) -> None:
        """CCL-level barrier: a 1-element allreduce + stream join
        (how OMB's NCCL benchmarks align iterations)."""
        xapi.xcclAllReduce(self._sync_buf, self._sync_buf, 1, FLOAT, SUM,
                           self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def Allreduce(self, sendbuf, recvbuf, op: Op = SUM, *, count: int,
                  datatype: Datatype = FLOAT) -> None:
        """Direct ``xcclAllReduce`` + stream sync."""
        xapi.xcclAllReduce(sendbuf, recvbuf, count, datatype, op, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def Reduce(self, sendbuf, recvbuf, op: Op = SUM, root: int = 0, *,
               count: int, datatype: Datatype = FLOAT) -> None:
        """Direct ``xcclReduce`` + stream sync."""
        xapi.xcclReduce(sendbuf, recvbuf, count, datatype, op, root,
                        self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def Bcast(self, buf, root: int = 0, *, count: int,
              datatype: Datatype = FLOAT) -> None:
        """Direct ``xcclBroadcast`` + stream sync."""
        xapi.xcclBroadcast(buf, count, datatype, root, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def Allgather(self, sendbuf, recvbuf, *, count: int,
                  datatype: Datatype = FLOAT) -> None:
        """Direct ``xcclAllGather`` + stream sync."""
        xapi.xcclAllGather(sendbuf, recvbuf, count, datatype, self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    def Reduce_scatter_block(self, sendbuf, recvbuf, op: Op = SUM, *,
                             count: int, datatype: Datatype = FLOAT) -> None:
        """Direct ``xcclReduceScatter`` + stream sync."""
        xapi.xcclReduceScatter(sendbuf, recvbuf, count, datatype, op,
                               self.comm)
        xapi.xcclStreamSynchronize(self.comm)

    @xapi.aborts_group_on_error
    def Alltoall(self, sendbuf, recvbuf, *, count: int,
                 datatype: Datatype = FLOAT) -> None:
        """Grouped send/recv alltoall, as a user would hand-write it
        with the raw CCL API (§3.3's motivation): one unhinted group,
        a send and a receive per peer on slices of the two windows."""
        comm = self.comm
        backend = xapi.backend_of(comm)
        sa, ra = as_array(sendbuf), as_array(recvbuf)
        xapi.xcclGroupStart()
        for r in range(comm.size):
            lo = r * count
            backend.send(comm, sa[lo:lo + count], count, datatype, r)
            backend.recv(comm, ra[lo:lo + count], count, datatype, r)
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
