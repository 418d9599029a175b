"""Figure 1: the motivation — MPI wins small, xCCL wins large.

(a) MPI vs pure NCCL Allreduce, 32 GPUs on 4 DGX A100 nodes; NCCL
    overtakes MPI beyond ~16 KB.
(b) MPI vs pure RCCL Allgather, 8 GPUs on 4 MRI nodes; RCCL carries
    extra overhead up to ~64 KB, then wins.

Both panels run on the engine at the paper's scale (32 and 8 ranks),
storage-free, through the OMB sweep Fig 5 uses.
"""

from __future__ import annotations

from repro.experiments._common import run_collective_panel, value_near
from repro.experiments.registry import AnchorCheck, Experiment, register
from repro.util.records import ResultSet

KIB = 1024


def run(scale: str = "paper") -> ResultSet:
    results = ResultSet()
    # (a) NVIDIA: allreduce, 32 GPUs / 4 nodes
    results.extend(run_collective_panel(
        "fig1a", "thetagpu", nodes=4, nranks=32, backend="nccl",
        coll="allreduce", stacks=("mpi", "ccl"), scale=scale))
    # (b) AMD: allgather, 8 GPUs / 4 nodes
    results.extend(run_collective_panel(
        "fig1b", "mri", nodes=4, nranks=8, backend="rccl",
        coll="allgather", stacks=("mpi", "ccl"), scale=scale))
    return results


def _crossover(exp: str, mpi_series: str, ccl_series: str):
    def get(results: ResultSet) -> float:
        sub = results.filter(lambda r: r.experiment == exp)
        x = sub.crossover(mpi_series, ccl_series)
        return float(x) if x is not None else float("inf")
    return get


def _ratio_small(exp: str, mpi_series: str, ccl_series: str, at: float):
    def get(results: ResultSet) -> float:
        sub = results.filter(lambda r: r.experiment == exp)
        return value_near(sub, ccl_series, at) / value_near(sub, mpi_series, at)
    return get


EXPERIMENT = register(Experiment(
    id="fig1",
    title="MPI vs vendor CCL latency crossover (motivation)",
    paper_ref="Figure 1",
    run=run,
    checks=(
        # paper: "NCCL surpasses MPI Allreduce performance beyond the
        # 16 KB threshold" — accept within a factor of 4 in size
        AnchorCheck("Fig1a NCCL/MPI allreduce crossover (bytes)", 16 * KIB,
                    _crossover("fig1a", "MPI", "Pure NCCL"), rel_tol=3.0,
                    unit="B"),
        # paper: "RCCL initially presents higher overheads up to 64 KB"
        AnchorCheck("Fig1b RCCL/MPI allgather crossover (bytes)", 64 * KIB,
                    _crossover("fig1b", "MPI", "Pure RCCL"), rel_tol=3.0,
                    unit="B"),
        # small-message regime: the CCLs are clearly slower than MPI
        AnchorCheck("Fig1a NCCL/MPI ratio at 64 B (>1 means MPI wins)",
                    2.5, _ratio_small("fig1a", "MPI", "Pure NCCL", 64.0),
                    rel_tol=0.8),
        AnchorCheck("Fig1b RCCL/MPI ratio at 64 B", 3.0,
                    _ratio_small("fig1b", "MPI", "Pure RCCL", 64.0),
                    rel_tol=0.8),
    ),
))
