"""Local compute steps inside collectives: reductions and copies.

Each reduction or copy that a collective algorithm performs costs
virtual time.  Where the work runs depends on buffer residency, the
same way a real GPU-aware MPI decides: small device-buffer reductions
are staged to the host (a kernel launch would dominate), large ones run
as device kernels at HBM bandwidth.
"""

from __future__ import annotations


import numpy as np

from repro.errors import InvalidBufferError
from repro.hw.memory import (NO_CONTENTS, as_array, has_storage,
                             host_scratch, is_device_buffer)
from repro.mpi.config import MPIConfig
from repro.mpi.ops import Op
from repro.sim.engine import RankContext

#: below this, device reductions are done host-side (kernel launch
#: would dominate); matches MVAPICH-style small-message staging.
HOST_REDUCE_THRESHOLD = 8192


def reduce_time_us(ctx: RankContext, config: MPIConfig, nbytes: int,
                   on_device: bool) -> float:
    """Virtual cost of reducing ``nbytes`` into an accumulator.

    Device-kernel pricing needs a GPU-aware build: a non-GPU-aware MPI
    (§2.2) only ever sees host-staged copies of device payloads, so its
    internal reductions run on the host CPU at ``host_reduce_bpus`` —
    the hidden compute tax of whole-job host staging, on top of the
    per-hop staging copies the transport already charges.
    """
    if on_device and config.gpu_direct and nbytes > HOST_REDUCE_THRESHOLD:
        # read both operands, write one: 3x traffic over HBM
        return ctx.device.kernel_time_us(3 * nbytes)
    return 0.15 + nbytes / config.host_reduce_bpus


def fold_into(ctx: RankContext, op: Op, acc: np.ndarray, operand: np.ndarray,
              us) -> None:
    """``acc = op(acc, operand)`` on two arrays of equal length, then
    ``us`` of virtual time (None: uncharged) — the fold both a live
    algorithm body and a replayed round program run."""
    op.reduce_into(acc, operand)
    if us is not None:
        ctx.clock.advance(us)
        if ctx.trace.enabled:
            ctx.trace.record("kernel", ctx.now, ctx.now, nbytes=int(acc.nbytes),
                             label=f"reduce:{op.name}")


def apply_reduce(ctx: RankContext, config: MPIConfig, op: Op,
                 acc, operand, charge: bool = True) -> None:
    """``acc = op(acc, operand)`` elementwise, charging virtual time.

    ``acc``/``operand`` are buffers or arrays of equal element count.
    """
    a = as_array(acc)
    us = reduce_time_us(ctx, config, int(a.nbytes), is_device_buffer(acc)
                        or is_device_buffer(operand)) if charge else None
    fold_into(ctx, op, a, as_array(operand), us)


def reduce_window(comm, op: Op, acc, aoff: int, operand, ooff: int,
                  count: int) -> None:
    """:func:`apply_reduce` of the windows ``(acc, aoff, count)`` and
    ``(operand, ooff, count)`` — an algorithm body's fold, recorded
    while its communicator records a round program."""
    ctx = comm.ctx
    a = as_array(acc)[aoff:aoff + count]
    us = reduce_time_us(ctx, comm.config, int(a.nbytes),
                        is_device_buffer(acc) or is_device_buffer(operand))
    tape = comm._tape
    if tape is not None:
        tape.fold(op, acc, aoff, operand, ooff, count, us)
    fold_into(ctx, op, a, as_array(operand)[ooff:ooff + count], us)


def copy_time_us(ctx: RankContext, nbytes: int, on_device: bool) -> float:
    """Virtual cost of a local buffer-to-buffer copy."""
    if on_device:
        return ctx.device.kernel_time_us(2 * nbytes) if nbytes > HOST_REDUCE_THRESHOLD \
            else 0.3 + nbytes / 20000.0
    return 0.05 + nbytes / 24000.0


def copy_into(ctx: RankContext, d: np.ndarray, s: np.ndarray, us) -> None:
    """``d[...] = s`` (the copy itself as
    :func:`~repro.hw.memory.copy_payload`, spelled inline), then ``us``
    of virtual time (None: uncharged)."""
    if d.strides[0]:
        if not s.strides[0] and s.size:
            raise InvalidBufferError(NO_CONTENTS)
        d[...] = s if d.dtype == s.dtype else s.astype(d.dtype)
    if us is not None:
        ctx.clock.advance(us)


def local_copy(ctx: RankContext, dst, src, charge: bool = True) -> None:
    """``dst[...] = src`` with virtual-time charging."""
    d = as_array(dst)
    us = copy_time_us(ctx, int(d.nbytes), is_device_buffer(dst)
                      or is_device_buffer(src)) if charge else None
    copy_into(ctx, d, as_array(src), us)


def copy_window(comm, dst, doff: int, src, soff: int, count: int,
                charge: bool = True) -> None:
    """:func:`local_copy` of the windows ``(src, soff, count)`` into
    ``(dst, doff, count)`` — an algorithm body's copy, recorded while
    its communicator records a round program."""
    ctx = comm.ctx
    d = as_array(dst)[doff:doff + count]
    us = copy_time_us(ctx, int(d.nbytes), is_device_buffer(dst)
                      or is_device_buffer(src)) if charge else None
    tape = comm._tape
    if tape is not None:
        tape.copy(dst, doff, src, soff, count, us)
    copy_into(ctx, d, as_array(src)[soff:soff + count], us)


def permute_blocks(ctx: RankContext, d: np.ndarray, drows, s: np.ndarray,
                   srows, count: int, us) -> None:
    """Block ``drows[i]`` of ``d`` = block ``srows[i]`` of ``s`` for every
    ``i``, blocks of ``count`` elements (``None`` rows: blocks ``0, 1,
    ...`` in order), then one charge of ``us`` (None: uncharged) — a
    rotation, pack or unpack done as one gather or scatter instead of a
    copy a block.  A storage-free ``d`` takes nothing; a storage-free
    ``s`` has nothing to give a stored ``d``."""
    if count and d.strides[0]:
        if not s.strides[0]:
            raise InvalidBufferError(NO_CONTENTS)
        d2 = d[:d.size // count * count].reshape(-1, count)
        s2 = s[:s.size // count * count].reshape(-1, count)
        if drows is None:
            rows = s2[srows]
            d2[:len(rows)] = rows if rows.dtype == d2.dtype \
                else rows.astype(d2.dtype)
        else:
            rows = s2[:len(drows)] if srows is None else s2[srows]
            d2[drows] = rows if rows.dtype == d2.dtype \
                else rows.astype(d2.dtype)
    if us is not None:
        ctx.clock.advance(us)


def move_blocks(comm, dst, drows, src, srows, count: int, us: float) -> None:
    """:func:`permute_blocks` of two buffers — an algorithm body's
    block permutation, recorded while its communicator records a round
    program.  ``us`` is the body's own charge for it."""
    tape = comm._tape
    if tape is not None:
        tape.blocks(dst, drows, src, srows, count, us)
    permute_blocks(comm.ctx, as_array(dst), drows, as_array(src), srows,
                   count, us)


def alloc_like(ctx: RankContext, ref, count: int, dtype=None):
    """Scratch buffer matching ``ref``'s residency, and its storage:
    storage-free scratch for a storage-free ``ref``.

    Device-resident scratch keeps collective traffic on the device
    path; released with its last reference.
    """
    dtype = dtype if dtype is not None else as_array(ref).dtype
    if is_device_buffer(ref):
        return ctx.device.empty(count, dtype=dtype)
    return host_scratch(as_array(ref), count, dtype)


def acquire_staging(comm, ref, count: int, dtype=None):
    """Scratch buffer like :func:`alloc_like`, drawn from the rank's
    staging pool (recorded while ``comm`` records a round program).

    Contents are undefined (like ``np.empty``); pair with
    :func:`release_staging` in a try/finally.  Allocation charges no
    virtual time, so pooling is invisible to the clock.
    """
    dtype = dtype if dtype is not None else as_array(ref).dtype
    # np.dtype objects hash/compare like their .str form but cost no
    # string build on this per-operation path
    key = (is_device_buffer(ref), np.dtype(dtype), int(count))
    buf = staging(comm.ctx, key, ref)
    tape = comm._tape
    if tape is not None:
        tape.stage(buf, ref, key)
    return buf


def staging(ctx: RankContext, key, ref):
    """The pool's buffer for ``key`` (residency, dtype, count; the
    residency ``ref``'s), or a fresh one: :func:`acquire_staging`,
    unrecorded (a replayed round program's staging row).

    A pool holds scratch of one storage, which the pool key adds to
    ``key``: device scratch holds storage as the device does, host
    scratch as ``ref`` does, and empty scratch always — so a recorded
    key's storage is the call's, not the recording's.  :func:`unstage`
    reads it off the scratch itself."""
    if ctx.staging_pool is None:
        from repro.core.plan import BufferPool
        ctx.staging_pool = BufferPool()
    buf = ctx.staging_pool.acquire(key + (not key[2] or (
        ctx.device.payloads if key[0] else has_storage(as_array(ref))),))
    return buf if buf is not None else alloc_like(ctx, ref, key[2], key[1])


def release_staging(comm, buf) -> None:
    """Return a staging buffer acquired with :func:`acquire_staging` to
    the rank's pool (recorded while ``comm`` records a round program).

    The key is recomputed from the buffer itself — its residency, dtype
    and element count are exactly what keyed the acquire.
    """
    a = as_array(buf)
    key = (is_device_buffer(buf), a.dtype, int(a.size))
    tape = comm._tape
    if tape is not None:
        tape.unstage(buf, key)
    unstage(comm.ctx, key, buf)


def unstage(ctx: RankContext, key, buf) -> None:
    """:func:`release_staging` under ``key``, unrecorded (its pool's
    storage as :func:`staging` keys it)."""
    if ctx.staging_pool is not None:
        ctx.staging_pool.release(key + (not key[2] or (
            ctx.device.payloads if key[0]
            else has_storage(as_array(buf))),), buf)
