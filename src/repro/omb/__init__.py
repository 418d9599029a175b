"""OSU Micro-Benchmarks (OMB) clone.

The paper evaluates with OMB v7.2 (CUDA/ROCm device buffers) plus the
authors' own OMB port for Habana device buffers (a stated contribution,
§1.3).  This package reimplements the OMB methodology on the simulated
runtime: power-of-two size sweeps, warmup + timed iterations,
barrier-aligned collective timing, window-based bandwidth tests, and
the familiar column output — over any of the communication stacks
(hybrid xCCL, pure-xCCL-via-MPI, pure MPI, Open MPI baselines, and
direct CCL).  Every benchmark allocates through the rank's device, so
Gaudi buffers need no port of their own here.
"""

from repro.omb.harness import OMBConfig, aggregate_latency
from repro.omb.pt2pt import osu_latency, osu_bw, osu_bibw
from repro.omb.collective import (
    osu_allreduce,
    osu_reduce,
    osu_bcast,
    osu_alltoall,
    osu_allgather,
    osu_reduce_scatter,
    osu_gather,
    osu_scatter,
    osu_barrier,
    COLLECTIVE_BENCHMARKS,
)

__all__ = [
    "OMBConfig",
    "aggregate_latency",
    "osu_latency",
    "osu_bw",
    "osu_bibw",
    "osu_allreduce",
    "osu_reduce",
    "osu_bcast",
    "osu_alltoall",
    "osu_allgather",
    "osu_reduce_scatter",
    "osu_gather",
    "osu_scatter",
    "osu_barrier",
    "COLLECTIVE_BENCHMARKS",
]
