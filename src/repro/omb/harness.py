"""OMB measurement plumbing: iteration control and rank aggregation.

OMB's collective benchmarks time each iteration between barriers, keep
a per-rank average, then reduce min/avg/max across ranks.  We do the
same in virtual time; the cross-rank reduction uses an engine
rendezvous that charges no virtual time (it is outside the measured
region in real OMB too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.sim.engine import RankContext
from repro.util.sizes import DEFAULT_OMB_SIZES


@dataclass(frozen=True)
class OMBConfig:
    """Sweep configuration.

    OMB defaults are hundreds of iterations; virtual time is
    deterministic, so a handful suffices (the extra iterations only
    exercise pipelining against the wire tracker).
    """

    sizes: Tuple[int, ...] = tuple(DEFAULT_OMB_SIZES)
    warmup: int = 2
    iterations: int = 10
    window: int = 64           # osu_bw / osu_bibw window size


@dataclass
class LatencyStats:
    """Cross-rank latency summary for one message size."""

    size: int
    avg_us: float
    min_us: float
    max_us: float


def aggregate_latency(ctx: RankContext, key, size: int,
                      local_avg_us: float, parties: int) -> LatencyStats:
    """Reduce per-rank averages to (avg, min, max) across ranks.

    Free of virtual-time cost: stats aggregation is outside the timed
    region.  Every rank of the run calls it (the rendezvous is numbered
    by :attr:`RankContext.program_seq`).
    """
    slot = ctx.collective_slot(
        ("omb-stats", key, size, next(ctx.program_seq)), parties)

    def combine(payloads: Dict[int, float]) -> LatencyStats:
        values = list(payloads.values())
        return LatencyStats(size=size,
                            avg_us=sum(values) / len(values),
                            min_us=min(values),
                            max_us=max(values))

    return slot.exchange(ctx.rank, local_avg_us, combine)


def timed_loop(ctx: RankContext, config: OMBConfig, barrier, op) -> float:
    """One OMB size point: warmups, then the timed average.

    ``barrier()`` aligns ranks before each iteration; ``op()`` performs
    the measured operation.  Returns this rank's mean latency (us).
    """
    for _ in range(config.warmup):
        barrier()
        op()
    total = 0.0
    for _ in range(config.iterations):
        barrier()
        t0 = ctx.now
        op()
        total += ctx.now - t0
    return total / config.iterations
