"""Shared plumbing for the figure experiments."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hw.systems import make_system
from repro.omb.collective import COLLECTIVE_BENCHMARKS
from repro.omb.harness import OMBConfig
from repro.omb.stacks import make_stack, series_label
from repro.sim.engine import Engine
from repro.util.records import ResultRecord, ResultSet
from repro.util.sizes import DEFAULT_OMB_SIZES

#: quick-scale sweep for tests: a handful of sizes, few iterations.
QUICK_SIZES = (16, 1024, 65536, 1048576)


def omb_config(scale: str) -> OMBConfig:
    """OMB config per experiment scale."""
    if scale == "quick":
        return OMBConfig(sizes=QUICK_SIZES, warmup=1, iterations=3)
    return OMBConfig(sizes=tuple(DEFAULT_OMB_SIZES), warmup=1, iterations=5)


def run_collective_panel(exp_id: str, system: str, nodes: int, nranks: int,
                         backend: str, coll: str, stacks: Sequence[str],
                         scale: str,
                         baseline_backend: Optional[str] = None) -> ResultSet:
    """One figure panel: a collective on one system, several stacks.

    ``baseline_backend`` overrides the backend for the "ccl" (pure,
    dashed) series — Fig 5d compares MSCCL against pure NCCL 2.12.12.
    """
    config = omb_config(scale)
    # OMB times what it moves and never reads it: storage-free devices
    # give the same virtual times at O(1) memory per window
    cluster = make_system(system, nodes, payloads=False)
    bench = COLLECTIVE_BENCHMARKS[coll]
    results = ResultSet()
    for stack in stacks:
        be = baseline_backend if (stack == "ccl" and baseline_backend) else backend
        engine = Engine(cluster, nranks=nranks)

        def body(ctx, stack=stack, be=be):
            return bench(ctx, make_stack(ctx, stack, be), config)

        stats = engine.run(body)[0]
        label = series_label(stack, be)
        for size, s in stats.items():
            results.add(ResultRecord(exp_id, series=label, x=float(size),
                                     value=s.avg_us, unit="us",
                                     meta={"system": system, "nodes": nodes,
                                           "ranks": nranks, "backend": be,
                                           "collective": coll,
                                           "stack": stack,
                                           "min_us": s.min_us,
                                           "max_us": s.max_us}))
    return results


def value_near(results: ResultSet, series: str, x: float) -> float:
    """Series value at the sweep point closest to ``x``."""
    candidates = [(abs(r.x - x), r.value) for r in results if r.series == series]
    if not candidates:
        raise KeyError(f"series {series!r} absent")
    return min(candidates)[1]
