"""Point-to-point benchmarks: osu_latency, osu_bw, osu_bibw.

Rank 0 and rank 1 (placed intra- or inter-node via the engine's
``ranks_per_node``) exchange messages through a
:class:`PureCCLHarness` — the paper's Fig. 3/4 measure the CCL
backends directly.  Run these with exactly two ranks, like real OMB
pt2pt benchmarks; extra ranks idle out immediately.

* ``osu_latency``: ping-pong; half the round trip.
* ``osu_bw``: sender streams a window of messages, receiver acks the
  window; bandwidth = window bytes / elapsed.
* ``osu_bibw``: both directions stream windows simultaneously.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.pure_ccl import PureCCLHarness
from repro.mpi.datatypes import FLOAT
from repro.omb.harness import OMBConfig
from repro.sim.engine import RankContext
from repro.xccl import api as xapi


def _pair_buffers(ctx: RankContext, max_size: int):
    # float elements: every backend's datatype table includes float32
    # (HCCL supports nothing else), matching the paper's methodology
    sendbuf = ctx.device.zeros(max(max_size // 4, 1), dtype="float32")
    # only ever written by a receive (see ``omb.collective._alloc``)
    recvbuf = ctx.device.empty(max(max_size // 4, 1), dtype="float32")
    return sendbuf, recvbuf


def osu_latency(ctx: RankContext, backend: str,
                config: Optional[OMBConfig] = None) -> Dict[int, float]:
    """Ping-pong latency per message size (us; empty on idle ranks)."""
    config = config or OMBConfig()
    harness = PureCCLHarness(ctx, backend)
    if ctx.rank > 1:
        return {}
    peer = 1 - ctx.rank
    sendbuf, recvbuf = _pair_buffers(ctx, max(config.sizes))
    results: Dict[int, float] = {}
    for size in config.sizes:
        count = max(size // 4, 1)
        s = sendbuf.view(0, count)
        r = recvbuf.view(0, count)

        def pingpong() -> None:
            if ctx.rank == 0:
                harness.send(s, count, peer, FLOAT)
                harness.recv(r, count, peer, FLOAT)
            else:
                harness.recv(r, count, peer, FLOAT)
                harness.send(s, count, peer, FLOAT)

        for _ in range(config.warmup):
            pingpong()
        total = 0.0
        for _ in range(config.iterations):
            t0 = ctx.now
            pingpong()
            total += (ctx.now - t0) / 2.0
        results[size] = total / config.iterations
    return results


@xapi.aborts_group_on_error
def _window_stream(ctx: RankContext, harness: PureCCLHarness, size: int,
                   window: int, sendbuf, recvbuf, directions: str) -> float:
    """One bw window; returns elapsed us on this rank.

    ``directions``: "fwd" (0 sends to 1) or "both" (bidirectional).
    """
    i_send = (ctx.rank == 0) or (directions == "both" and ctx.rank == 1)
    i_recv = (ctx.rank == 1) or (directions == "both" and ctx.rank == 0)
    peer = 1 - ctx.rank
    count = max(size // 4, 1)
    t0 = ctx.now
    xapi.xcclGroupStart()
    for _ in range(window):
        if i_send:
            xapi.xcclSend(sendbuf.view(0, count), count, FLOAT, peer, harness.comm)
        if i_recv:
            xapi.xcclRecv(recvbuf.view(0, count), count, FLOAT, peer, harness.comm)
    xapi.xcclGroupEnd()
    xapi.xcclStreamSynchronize(harness.comm)
    # window-completion ack (one-element exchange), as real osu_bw does
    harness.sendrecv(sendbuf.view(0, 1), recvbuf.view(0, 1), 1, peer, FLOAT)
    return ctx.now - t0


def _bw_common(ctx: RankContext, backend: str, config: Optional[OMBConfig],
               directions: str) -> Dict[int, float]:
    config = config or OMBConfig()
    harness = PureCCLHarness(ctx, backend)
    if ctx.rank > 1:
        return {}
    sendbuf, recvbuf = _pair_buffers(ctx, max(config.sizes))
    results: Dict[int, float] = {}
    for size in config.sizes:
        for _ in range(config.warmup):
            _window_stream(ctx, harness, size, config.window,
                           sendbuf, recvbuf, directions)
        total_time = 0.0
        for _ in range(config.iterations):
            total_time += _window_stream(ctx, harness, size, config.window,
                                         sendbuf, recvbuf, directions)
        elapsed = total_time / config.iterations
        moved = size * config.window
        if directions == "both":
            moved *= 2  # aggregate both directions, OMB bibw convention
        results[size] = moved / elapsed if elapsed > 0 else 0.0  # B/us == MB/s
    return results


def osu_bw(ctx: RankContext, backend: str,
           config: Optional[OMBConfig] = None) -> Dict[int, float]:
    """Unidirectional streaming bandwidth (MB/s) per size."""
    return _bw_common(ctx, backend, config, "fwd")


def osu_bibw(ctx: RankContext, backend: str,
             config: Optional[OMBConfig] = None) -> Dict[int, float]:
    """Bidirectional aggregate bandwidth (MB/s) per size."""
    return _bw_common(ctx, backend, config, "both")
