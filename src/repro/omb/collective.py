"""Collective benchmarks: osu_allreduce / reduce / bcast / alltoall /
alltoallv / allgather / reduce_scatter.

Each benchmark runs an SPMD body on a prepared communication *stack* —
any object exposing the MPI collective surface (a hybrid-dispatched
communicator, a plain MPI communicator, an Open MPI baseline) or a
:class:`PureCCLHarness` — and reports cross-rank (avg, min, max)
latency per message size, like real OMB.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.baselines.pure_ccl import PureCCLHarness
from repro.mpi.datatypes import FLOAT
from repro.mpi.ops import SUM
from repro.omb.harness import LatencyStats, OMBConfig, aggregate_latency, timed_loop
from repro.sim.engine import RankContext


def _alloc(ctx: RankContext, count: int, dtype=np.float32,
           recv_only: bool = False):
    """A benchmark window.  The rule: what a rank sends or reduces from
    is zeroed (uninitialised floats must never reach a reduction; the
    root sends ``osu_bcast``'s one buffer), what the collective only
    writes (``recv_only``) is overwritten before anything reads it."""
    make = ctx.device.empty if recv_only else ctx.device.zeros
    return make(max(count, 1), dtype=dtype)


def _run_sweep(ctx: RankContext, config: OMBConfig, key: str,
               barrier: Callable[[], None],
               make_op: Callable[[int], Callable[[], None]]) -> Dict[int, LatencyStats]:
    results: Dict[int, LatencyStats] = {}
    for size in config.sizes:
        op = make_op(size)
        local = timed_loop(ctx, config, barrier, op)
        results[size] = aggregate_latency(ctx, key, size, local, ctx.size)
    return results


def _is_pure(stack) -> bool:
    return isinstance(stack, PureCCLHarness)


def _barrier_for(stack) -> Callable[[], None]:
    if _is_pure(stack):
        return stack.sync
    return stack.Barrier


def osu_allreduce(ctx: RankContext, stack,
                  config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Allreduce (or direct xcclAllReduce) latency sweep.

    Message size is the full buffer, float elements (OMB convention).
    """
    config = config or OMBConfig()
    maxn = max(config.sizes) // 4
    send = _alloc(ctx, maxn)
    recv = _alloc(ctx, maxn, recv_only=True)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        if _is_pure(stack):
            return lambda: stack.allreduce(send.view(0, count),
                                           recv.view(0, count), count)
        if hasattr(stack, "Allreduce_init"):
            # persistent collective: resolve + plan once per size,
            # replay per iteration (mpi4py-style MPI 4.0 API)
            req = stack.Allreduce_init(send.view(0, count),
                                       recv.view(0, count), SUM,
                                       count=count, datatype=FLOAT)
            return lambda: req.Start().wait()
        return lambda: stack.Allreduce(send.view(0, count),
                                       recv.view(0, count), SUM,
                                       count=count, datatype=FLOAT)

    return _run_sweep(ctx, config, "allreduce", _barrier_for(stack), make_op)


def osu_reduce(ctx: RankContext, stack,
               config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Reduce latency sweep (root 0)."""
    config = config or OMBConfig()
    maxn = max(config.sizes) // 4
    send = _alloc(ctx, maxn)
    recv = _alloc(ctx, maxn, recv_only=True)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        if _is_pure(stack):
            return lambda: stack.reduce(send.view(0, count),
                                        recv.view(0, count), count, 0)
        return lambda: stack.Reduce(send.view(0, count), recv.view(0, count),
                                    SUM, 0, count=count, datatype=FLOAT)

    return _run_sweep(ctx, config, "reduce", _barrier_for(stack), make_op)


def osu_bcast(ctx: RankContext, stack,
              config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Bcast latency sweep (root 0)."""
    config = config or OMBConfig()
    buf = _alloc(ctx, max(config.sizes) // 4)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        if _is_pure(stack):
            return lambda: stack.bcast(buf.view(0, count), count, 0)
        return lambda: stack.Bcast(buf.view(0, count), 0,
                                   count=count, datatype=FLOAT)

    return _run_sweep(ctx, config, "bcast", _barrier_for(stack), make_op)


def osu_alltoall(ctx: RankContext, stack,
                 config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Alltoall latency sweep; message size is the per-destination
    block (OMB convention)."""
    config = config or OMBConfig()
    p = ctx.size
    maxn = (max(config.sizes) // 4) * p
    send = _alloc(ctx, maxn)
    recv = _alloc(ctx, maxn, recv_only=True)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        if _is_pure(stack):
            return lambda: stack.alltoall(send.view(0, count * p),
                                          recv.view(0, count * p), count)
        if hasattr(stack, "Alltoall_init"):
            req = stack.Alltoall_init(send.view(0, count * p),
                                      recv.view(0, count * p),
                                      count=count, datatype=FLOAT)
            return lambda: req.Start().wait()
        return lambda: stack.Alltoall(send.view(0, count * p),
                                      recv.view(0, count * p),
                                      count=count, datatype=FLOAT)

    return _run_sweep(ctx, config, "alltoall", _barrier_for(stack), make_op)


def osu_alltoallv(ctx: RankContext, stack,
                  config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Alltoallv latency sweep; message size is the *mean*
    per-destination block (counts alternate around it, OMB's
    osu_alltoallv style), exercising the vector dispatch path.

    No pure-CCL variant — the CCL APIs have no alltoallv, which is the
    paper's Listing-1 motivation; use the hybrid/pure-xccl stacks.
    """
    config = config or OMBConfig()
    p = ctx.size
    maxn = (max(config.sizes) // 4 + 1) * p
    send = _alloc(ctx, maxn)
    recv = _alloc(ctx, maxn, recv_only=True)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        # alternate the per-destination counts around the mean; every
        # rank derives the matching recvcounts from the senders' rule
        sendcounts = [max(count + (1 if (ctx.rank + d) % 2 else -1), 1)
                      for d in range(p)]
        recvcounts = [max(count + (1 if (s + ctx.rank) % 2 else -1), 1)
                      for s in range(p)]
        return lambda: stack.Alltoallv(send.view(0, sum(sendcounts)),
                                       sendcounts,
                                       recv.view(0, sum(recvcounts)),
                                       recvcounts, datatype=FLOAT)

    return _run_sweep(ctx, config, "alltoallv", _barrier_for(stack), make_op)


def osu_allgather(ctx: RankContext, stack,
                  config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Allgather latency sweep; message size is the per-rank
    contribution."""
    config = config or OMBConfig()
    p = ctx.size
    maxn = max(config.sizes) // 4
    send = _alloc(ctx, maxn)
    recv = _alloc(ctx, maxn * p, recv_only=True)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        if _is_pure(stack):
            return lambda: stack.allgather(send.view(0, count),
                                           recv.view(0, count * p), count)
        return lambda: stack.Allgather(send.view(0, count),
                                       recv.view(0, count * p),
                                       count=count, datatype=FLOAT)

    return _run_sweep(ctx, config, "allgather", _barrier_for(stack), make_op)


def osu_reduce_scatter(ctx: RankContext, stack,
                       config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Reduce_scatter_block latency sweep; size is the per-rank
    output block."""
    config = config or OMBConfig()
    p = ctx.size
    maxn = max(config.sizes) // 4
    send = _alloc(ctx, maxn * p)
    recv = _alloc(ctx, maxn, recv_only=True)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        if _is_pure(stack):
            def op() -> None:
                from repro.xccl import api as xapi
                xapi.xcclReduceScatter(send.view(0, count * p),
                                       recv.view(0, count), count,
                                       FLOAT, SUM, stack.comm)
                xapi.xcclStreamSynchronize(stack.comm)
            return op
        return lambda: stack.Reduce_scatter_block(send.view(0, count * p),
                                                  recv.view(0, count), SUM,
                                                  count=count, datatype=FLOAT)

    return _run_sweep(ctx, config, "reduce_scatter", _barrier_for(stack), make_op)


def osu_gather(ctx: RankContext, stack,
               config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Gather latency sweep (root 0); per-rank contribution size.

    No pure-CCL variant exists — the CCL APIs lack gather, which is
    the paper's §3.3 motivation; use the hybrid/pure-xccl stacks.
    """
    config = config or OMBConfig()
    p = ctx.size
    maxn = max(config.sizes) // 4
    send = _alloc(ctx, maxn)
    recv = _alloc(ctx, maxn * p, recv_only=True)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        return lambda: stack.Gather(send.view(0, count),
                                    recv.view(0, count * p), root=0,
                                    count=count, datatype=FLOAT)

    return _run_sweep(ctx, config, "gather", _barrier_for(stack), make_op)


def osu_scatter(ctx: RankContext, stack,
                config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Scatter latency sweep (root 0); per-rank block size.

    No pure-CCL variant exists — the CCL APIs lack scatter (§3.3); use
    the hybrid/pure-xccl stacks.
    """
    config = config or OMBConfig()
    p = ctx.size
    maxn = max(config.sizes) // 4
    send = _alloc(ctx, maxn * p)
    recv = _alloc(ctx, maxn, recv_only=True)

    def make_op(size: int) -> Callable[[], None]:
        count = max(size // 4, 1)
        return lambda: stack.Scatter(send.view(0, count * p),
                                     recv.view(0, count), root=0,
                                     count=count, datatype=FLOAT)

    return _run_sweep(ctx, config, "scatter", _barrier_for(stack), make_op)


def osu_barrier(ctx: RankContext, stack,
                config: Optional[OMBConfig] = None) -> Dict[int, LatencyStats]:
    """MPI_Barrier latency (single "size" of 0 bytes)."""
    config = config or OMBConfig()

    def make_op(_size: int) -> Callable[[], None]:
        if _is_pure(stack):
            return stack.sync
        return stack.Barrier

    sweep = OMBConfig(sizes=(0,), warmup=config.warmup,
                      iterations=config.iterations)
    return _run_sweep(ctx, sweep, "barrier", _barrier_for(stack), make_op)


#: benchmarks with no pure-CCL variant: the CCL APIs lack the
#: collective (§3.3), so only a stack with MPI above the CCL runs them
NO_PURE_CCL = ("alltoallv", "gather", "scatter")

#: name -> benchmark function, for the CLI and experiment drivers.
COLLECTIVE_BENCHMARKS = {
    "allreduce": osu_allreduce,
    "reduce": osu_reduce,
    "bcast": osu_bcast,
    "alltoall": osu_alltoall,
    "alltoallv": osu_alltoallv,
    "allgather": osu_allgather,
    "reduce_scatter": osu_reduce_scatter,
    "gather": osu_gather,
    "scatter": osu_scatter,
    "barrier": osu_barrier,
}
