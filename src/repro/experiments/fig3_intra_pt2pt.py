"""Figure 3: intra-node point-to-point performance, 4 backends.

(a) small-message latency, (b) large-message latency, (c) bandwidth,
(d) bidirectional bandwidth — NCCL on ThetaGPU, RCCL on MRI, HCCL on
Voyager, MSCCL on ThetaGPU; two ranks on one node.  Engine-driven.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments._common import omb_config, value_near
from repro.experiments.registry import AnchorCheck, Experiment, register
from repro.hw.systems import make_system
from repro.omb.pt2pt import osu_bibw, osu_bw, osu_latency
from repro.sim.engine import Engine
from repro.util.records import ResultRecord, ResultSet

#: (backend, system) pairs of the figure.
PAIRS: Tuple[Tuple[str, str], ...] = (
    ("nccl", "thetagpu"),
    ("rccl", "mri"),
    ("hccl", "voyager"),
    ("msccl", "thetagpu"),
)

M4 = 4 * 1024 * 1024


def _sweep(exp_id: str, scale: str, nodes: int, ranks_per_node) -> ResultSet:
    config = omb_config(scale)
    results = ResultSet()
    for backend, system in PAIRS:
        cluster = make_system(system, nodes, payloads=False)  # OMB reads nothing
        for metric, bench, unit in (("latency", osu_latency, "us"),
                                    ("bw", osu_bw, "MB/s"),
                                    ("bibw", osu_bibw, "MB/s")):
            engine = Engine(cluster, nranks=2, ranks_per_node=ranks_per_node)
            data: Dict[int, float] = engine.run(
                lambda ctx, b=backend: bench(ctx, b, config))[0]
            for size, value in data.items():
                results.add(ResultRecord(
                    exp_id, series=f"{backend.upper()} {metric}",
                    x=float(size), value=value, unit=unit,
                    meta={"system": system, "backend": backend,
                          "metric": metric, "scope": exp_id}))
    return results


def run(scale: str = "paper") -> ResultSet:
    return _sweep("fig3", scale, nodes=1, ranks_per_node=None)


def _at(series: str, x: float):
    def get(results: ResultSet) -> float:
        return value_near(results, series, x)
    return get


EXPERIMENT = register(Experiment(
    id="fig3",
    title="Intra-node point-to-point performance",
    paper_ref="Figure 3",
    run=run,
    method="engine",
    checks=(
        AnchorCheck("NCCL 4MB latency (us)", 56, _at("NCCL latency", M4),
                    0.15, "us"),
        AnchorCheck("NCCL bandwidth (MB/s)", 137031, _at("NCCL bw", M4),
                    0.1, "MB/s"),
        AnchorCheck("NCCL bi-bandwidth (MB/s)", 181204, _at("NCCL bibw", M4),
                    0.1, "MB/s"),
        AnchorCheck("RCCL 4MB latency (us)", 836, _at("RCCL latency", M4),
                    0.15, "us"),
        AnchorCheck("RCCL bandwidth (MB/s)", 6351, _at("RCCL bw", M4),
                    0.1, "MB/s"),
        AnchorCheck("HCCL 4MB latency (us)", 1651, _at("HCCL latency", M4),
                    0.15, "us"),
        AnchorCheck("HCCL bandwidth (MB/s)", 3044, _at("HCCL bw", M4),
                    0.1, "MB/s"),
        AnchorCheck("MSCCL 4MB latency (us)", 100, _at("MSCCL latency", M4),
                    0.15, "us"),
        AnchorCheck("MSCCL bandwidth (MB/s)", 112439, _at("MSCCL bw", M4),
                    0.1, "MB/s"),
        AnchorCheck("MSCCL bi-bandwidth (MB/s)", 131859, _at("MSCCL bibw", M4),
                    0.1, "MB/s"),
        # launch-overhead floors (paper: 20 / 25 / 270 / 28 us)
        AnchorCheck("NCCL launch floor (us)", 20, _at("NCCL latency", 16.0),
                    0.35, "us"),
        AnchorCheck("RCCL launch floor (us)", 25, _at("RCCL latency", 16.0),
                    0.35, "us"),
        AnchorCheck("HCCL launch floor (us)", 270, _at("HCCL latency", 16.0),
                    0.35, "us"),
        AnchorCheck("MSCCL launch floor (us)", 28, _at("MSCCL latency", 16.0),
                    0.35, "us"),
    ),
))
