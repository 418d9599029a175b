"""One-sided communication (``MPI_Win``: Put / Get / Accumulate).

RMA decouples data movement from the target's participation — the
origin reads or writes the target's exposed *window* directly, with
synchronization via fences (active target) or per-rank locks (passive
target).  In the simulation, windows are the target rank's real device
buffers shared through the engine; transfers are priced on the same
wire tracker as two-sided traffic, and completion semantics follow the
MPI model: RMA operations issued in an epoch are guaranteed complete
(and their virtual time merged) at the closing ``fence``/``unlock``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import MPICommError, MPIRankError, MPITypeError
from repro.hw.cluster import PathScope
from repro.hw.memory import as_array
from repro.mpi.communicator import Communicator
from repro.mpi.datatypes import FLOAT, Datatype, datatype_of
from repro.mpi.ops import SUM, Op


class Win:
    """One rank's handle on a window (create with :meth:`allocate`).

    Everyone's exposed buffers are distributed through an engine
    rendezvous at creation, so every rank's handle sees the same
    physical windows.  An RMA operation touches the target's memory
    while its rank holds the run token (:mod:`repro.sim.sched`), so
    ``accumulate`` is atomic without a per-target lock.
    """

    def __init__(self, comm: Communicator, local, buffers: Dict[int, object],
                 uid: Tuple) -> None:
        self.comm = comm
        self.local = local
        self._buffers = buffers
        self.uid = uid
        self._pending_until = 0.0   # completion horizon of issued ops
        self._freed = False

    # -- construction -------------------------------------------------------

    @classmethod
    def allocate(cls, comm: Communicator, count: int,
                 dtype: Datatype = FLOAT) -> "Win":
        """Collective window allocation (``MPI_Win_allocate``).

        Every rank exposes ``count`` elements of device memory.
        """
        if count < 0:
            raise MPICommError(f"negative window size {count}")
        local = comm.ctx.device.zeros(max(count, 1), dtype=dtype.storage)
        seq = comm.next_coll_tag()
        slot = comm.ctx.collective_slot((comm.ctx_id, "win", seq), comm.size)
        buffers = slot.exchange(comm.rank, local, dict)
        comm.ctx.clock.advance(2.0)  # allocation + address exchange
        return cls(comm, local, buffers, uid=(comm.ctx_id, seq))

    def free(self) -> None:
        """Collective window teardown (``MPI_Win_free``)."""
        self._check_live()
        self.fence()
        self._freed = True

    def _check_live(self) -> None:
        if self._freed:
            raise MPICommError("window used after free")

    # -- plumbing -----------------------------------------------------------

    def _target(self, rank: int):
        if not 0 <= rank < self.comm.size:
            raise MPIRankError(f"window target {rank} out of range")
        return self._buffers[rank]

    def _transfer_time(self, target: int, nbytes: int) -> float:
        """Arrival time of an RMA transfer to/from ``target``."""
        ctx = self.comm.ctx
        cfg = self.comm.config
        src_dev = ctx.device
        dst_dev = ctx.device_of(self.comm.world_rank(target))
        path = ctx.cluster.path(src_dev, dst_dev)
        resources = ctx.cluster.transfer_resources(src_dev, dst_dev)
        if path.scope == PathScope.INTER and path.fabric is not None:
            beta = cfg.effective_beta(path.scope, path.fabric.beta_bpus)
        else:
            beta = cfg.effective_beta(path.scope, path.beta_bpus)
            beta = path.bottleneck.effective_beta(beta)
        alpha = path.alpha_us + cfg.gpu_alpha_extra_us
        t0 = ctx.clock.advance(cfg.send_overhead_us)
        return ctx.engine.wires.book(resources, t0, nbytes, beta, alpha)

    def _slice(self, target: int, offset: int, count: int) -> np.ndarray:
        window = as_array(self._target(target))
        if offset < 0 or count < 0 or offset + count > window.size:
            raise MPICommError(
                f"RMA range [{offset}, {offset + count}) exceeds window "
                f"of {window.size}")
        return window[offset:offset + count]

    # -- RMA operations ---------------------------------------------------------

    def put(self, srcbuf, target_rank: int, target_offset: int = 0,
            count: Optional[int] = None) -> None:
        """``MPI_Put``: write into the target's window."""
        self._check_live()
        src = as_array(srcbuf)
        n = count if count is not None else src.size
        dst = self._slice(target_rank, target_offset, n)
        if src.dtype != dst.dtype:
            raise MPITypeError(
                f"put dtype {src.dtype} into window of {dst.dtype}")
        dst[...] = src[:n]
        arrival = self._transfer_time(target_rank, int(n * src.itemsize))
        self._pending_until = max(self._pending_until, arrival)

    def get(self, dstbuf, target_rank: int, target_offset: int = 0,
            count: Optional[int] = None) -> None:
        """``MPI_Get``: read from the target's window."""
        self._check_live()
        dst = as_array(dstbuf)
        n = count if count is not None else dst.size
        src = self._slice(target_rank, target_offset, n)
        dst[:n] = src
        arrival = self._transfer_time(target_rank, int(n * dst.itemsize))
        self._pending_until = max(self._pending_until, arrival)

    def accumulate(self, srcbuf, target_rank: int, op: Op = SUM,
                   target_offset: int = 0,
                   count: Optional[int] = None) -> None:
        """``MPI_Accumulate``: atomic elementwise ``op`` into the
        target's window."""
        self._check_live()
        src = as_array(srcbuf)
        n = count if count is not None else src.size
        dst = self._slice(target_rank, target_offset, n)
        op.validate(datatype_of(dst.dtype))
        dst[...] = op(dst, src[:n])
        arrival = self._transfer_time(target_rank, int(n * src.itemsize))
        self._pending_until = max(self._pending_until, arrival)

    # -- synchronization ----------------------------------------------------------

    def fence(self) -> None:
        """Active-target epoch boundary (``MPI_Win_fence``): completes
        this rank's issued RMA and synchronizes all ranks."""
        self._check_live()
        ctx = self.comm.ctx
        ctx.clock.merge(self._pending_until)
        self._pending_until = 0.0
        self.comm.Barrier()

    def lock(self, target_rank: int) -> None:
        """Passive-target lock (``MPI_Win_lock``), priced as one
        control round trip."""
        self._check_live()
        self._target(target_rank)
        self.comm.ctx.clock.advance(2.0 * self.comm.config.tag_matching_us + 1.0)

    def unlock(self, target_rank: int) -> None:
        """``MPI_Win_unlock``: completes RMA issued under the lock."""
        self._check_live()
        self._target(target_rank)
        self.comm.ctx.clock.merge(self._pending_until)
        self._pending_until = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Win uid={self.uid} size={as_array(self.local).size}>"
