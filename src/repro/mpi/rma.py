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

from repro.errors import (MPICommError, MPICountError, MPIRankError,
                          MPITypeError)
from repro.hw.memory import as_array, copy_payload
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

    def _resolve(self, buf, target_rank: int, target_offset: int,
                 count: Optional[int], op: Optional[Op] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """``(origin, target)`` arrays of one RMA operation, checked
        before anything moves — ``count`` (default: all of ``buf``) fits
        the origin, ``target_rank`` the communicator, the range the
        window, both sides hold one type, ``op`` suits it — then priced
        on the p2p send descriptor's wires: the epoch completes no
        earlier than the transfer arrives."""
        self._check_live()
        origin = as_array(buf)
        n = origin.size if count is None else count
        if not 0 <= n <= origin.size:
            raise MPICountError(
                f"RMA count {n} does not fit a {origin.size}-element "
                f"origin buffer")
        window = as_array(self._target(target_rank))
        if target_offset < 0 or target_offset + n > window.size:
            raise MPICommError(
                f"RMA range [{target_offset}, {target_offset + n}) exceeds "
                f"window of {window.size}")
        if origin.dtype != window.dtype:
            raise MPITypeError(
                f"RMA origin dtype {origin.dtype} against a window of "
                f"{window.dtype}")
        if op is not None:
            op.validate(datatype_of(window.dtype))
        comm = self.comm
        ctx = comm.ctx
        resources, alpha, beta, _, _ = comm.endpoint._path_for(
            comm.group[target_rank], True)
        t0 = ctx.clock.advance(comm.config.send_overhead_us)
        arrival = ctx.engine.wires.book(resources, t0, n * origin.itemsize,
                                        beta, alpha)
        self._pending_until = max(self._pending_until, arrival)
        return origin[:n], window[target_offset:target_offset + n]

    # -- RMA operations ---------------------------------------------------------

    def put(self, srcbuf, target_rank: int, target_offset: int = 0,
            count: Optional[int] = None) -> None:
        """``MPI_Put``: write into the target's window."""
        origin, target = self._resolve(srcbuf, target_rank, target_offset,
                                       count)
        copy_payload(target, origin)

    def get(self, dstbuf, target_rank: int, target_offset: int = 0,
            count: Optional[int] = None) -> None:
        """``MPI_Get``: read from the target's window."""
        origin, target = self._resolve(dstbuf, target_rank, target_offset,
                                       count)
        copy_payload(origin, target)

    def accumulate(self, srcbuf, target_rank: int, op: Op = SUM,
                   target_offset: int = 0,
                   count: Optional[int] = None) -> None:
        """``MPI_Accumulate``: atomic elementwise ``op`` into the
        target's window."""
        origin, target = self._resolve(srcbuf, target_rank, target_offset,
                                       count, op)
        op.reduce_into(target, origin)

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
