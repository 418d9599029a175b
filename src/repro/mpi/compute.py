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
from repro.hw.memory import (NO_CONTENTS, as_array, host_scratch,
                             is_device_buffer)
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


def apply_reduce(ctx: RankContext, config: MPIConfig, op: Op,
                 acc, operand, charge: bool = True) -> None:
    """``acc = op(acc, operand)`` elementwise, charging virtual time.

    ``acc``/``operand`` are buffers or arrays of equal element count.
    """
    a = as_array(acc)
    b = as_array(operand)
    op.reduce_into(a, b)
    if charge:
        on_dev = is_device_buffer(acc) or is_device_buffer(operand)
        ctx.clock.advance(reduce_time_us(ctx, config, int(a.nbytes), on_dev))
        if ctx.trace.enabled:
            ctx.trace.record("kernel", ctx.now, ctx.now, nbytes=int(a.nbytes),
                             label=f"reduce:{op.name}")


def copy_time_us(ctx: RankContext, nbytes: int, on_device: bool) -> float:
    """Virtual cost of a local buffer-to-buffer copy."""
    if on_device:
        return ctx.device.kernel_time_us(2 * nbytes) if nbytes > HOST_REDUCE_THRESHOLD \
            else 0.3 + nbytes / 20000.0
    return 0.05 + nbytes / 24000.0


def local_copy(ctx: RankContext, dst, src, charge: bool = True) -> None:
    """``dst[...] = src`` with virtual-time charging (the copy itself
    as :func:`~repro.hw.memory.copy_payload`, spelled inline)."""
    d = as_array(dst)
    s = as_array(src)
    if d.strides[0]:
        if not s.strides[0] and s.size:
            raise InvalidBufferError(NO_CONTENTS)
        d[...] = s if d.dtype == s.dtype else s.astype(d.dtype)
    if charge:
        on_dev = is_device_buffer(dst) or is_device_buffer(src)
        ctx.clock.advance(copy_time_us(ctx, int(d.nbytes), on_dev))


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


def acquire_staging(ctx: RankContext, ref, count: int, dtype=None):
    """Scratch buffer like :func:`alloc_like`, drawn from the rank's
    staging pool.

    Contents are undefined (like ``np.empty``); pair with
    :func:`release_staging` in a try/finally.  Allocation charges no
    virtual time, so pooling is invisible to the clock.
    """
    if ctx.staging_pool is None:
        from repro.core.plan import BufferPool
        ctx.staging_pool = BufferPool()
    dtype = dtype if dtype is not None else as_array(ref).dtype
    # np.dtype objects hash/compare like their .str form but cost no
    # string build on this per-operation path
    key = (is_device_buffer(ref), np.dtype(dtype), int(count))
    buf = ctx.staging_pool.acquire(key)
    return buf if buf is not None else alloc_like(ctx, ref, count, dtype)


def release_staging(ctx: RankContext, buf) -> None:
    """Return a staging buffer acquired with :func:`acquire_staging` to
    the rank's pool.

    The pool key is recomputed from the buffer itself — its residency,
    dtype and element count are exactly what keyed the acquire.
    """
    if ctx.staging_pool is None:
        return
    a = as_array(buf)
    key = (is_device_buffer(buf), a.dtype, int(a.size))
    ctx.staging_pool.release(key, buf)
