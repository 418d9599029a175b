"""Figure 6: multi-node collective performance (16 panels).

{Allreduce, Reduce, Bcast, Alltoall} x {NCCL 16 nodes/128 GPUs, RCCL
8 nodes/16 GPUs, HCCL 4 nodes/32 HPUs, MSCCL 2 nodes/16 GPUs}.

Every panel runs on the engine, storage-free, through the OMB sweep
Fig 5 uses: at the paper's rank counts at paper scale, at reduced ones
at quick scale.
"""

from __future__ import annotations

from typing import Tuple

from repro.experiments._common import run_collective_panel, value_near
from repro.experiments.registry import AnchorCheck, Experiment, register
from repro.util.records import ResultSet

#: (backend, system, nodes, nranks, baseline backend, extra stacks)
PANEL_COLUMNS: Tuple = (
    ("nccl", "thetagpu", 16, 128, None, ("ucc",)),
    ("rccl", "mri", 8, 16, None, ()),
    ("hccl", "voyager", 4, 32, None, ()),
    ("msccl", "thetagpu", 2, 16, "nccl-2.12", ()),
)

QUICK_COLUMNS: Tuple = (
    ("nccl", "thetagpu", 2, 16, None, ("ucc",)),
    ("rccl", "mri", 2, 4, None, ()),
    ("hccl", "voyager", 2, 16, None, ()),
    ("msccl", "thetagpu", 2, 16, "nccl-2.12", ()),
)

COLLECTIVES = ("allreduce", "reduce", "bcast", "alltoall")


def run(scale: str = "paper") -> ResultSet:
    columns = QUICK_COLUMNS if scale == "quick" else PANEL_COLUMNS
    results = ResultSet()
    for backend, system, nodes, nranks, baseline, extra in columns:
        for coll in COLLECTIVES:
            stacks = ("hybrid", "pure-xccl", "ccl") + extra
            results.extend(run_collective_panel(
                f"fig6:{coll}:{backend}", system, nodes=nodes, nranks=nranks,
                backend=backend, coll=coll, stacks=stacks, scale=scale,
                baseline_backend=baseline))
    return results


def _panel(results: ResultSet, coll: str, backend: str) -> ResultSet:
    return results.filter(lambda r: r.experiment == f"fig6:{coll}:{backend}")


def _hccl_step_degradation(results: ResultSet) -> float:
    """Paper: HCCL-backend small-message latency degrades 7-12x (steps
    near 16-64 B) relative to the NCCL backend's small messages."""
    hccl = value_near(_panel(results, "allreduce", "hccl"),
                      "Proposed xCCL w/ Pure HCCL", 64.0)
    nccl = value_near(_panel(results, "allreduce", "nccl"),
                      "Proposed xCCL w/ Pure NCCL", 64.0)
    return hccl / nccl


def _hybrid_fixes_hccl(results: ResultSet) -> float:
    """Hybrid routes small Habana messages to MPI: hybrid/pure ratio
    at 64 B should be well below 1."""
    p = _panel(results, "allreduce", "hccl")
    return (value_near(p, "Proposed Hybrid xCCL", 64.0)
            / value_near(p, "Proposed xCCL w/ Pure HCCL", 64.0))


def _ucc_small_allreduce_ratio(results: ResultSet) -> float:
    """Fig 6a: hybrid beats UCC for small messages at 128 GPUs."""
    p = _panel(results, "allreduce", "nccl")
    return (value_near(p, "Open MPI + UCX + UCC", 1024.0)
            / value_near(p, "Proposed Hybrid xCCL", 1024.0))


def _large_allreduce_hybrid_is_ccl(results: ResultSet) -> float:
    """At 4 MB the hybrid path must ride the CCL (ratio ~ 1)."""
    p = _panel(results, "allreduce", "nccl")
    m4 = 4 * 1024 * 1024
    return (value_near(p, "Proposed Hybrid xCCL", m4)
            / value_near(p, "Pure NCCL", m4))


EXPERIMENT = register(Experiment(
    id="fig6",
    title="Collective performance on multiple nodes",
    paper_ref="Figure 6",
    run=run,
    checks=(
        AnchorCheck("HCCL small-msg degradation vs NCCL (x)", 9.5,
                    _hccl_step_degradation, 0.6),
        AnchorCheck("hybrid/pure-HCCL ratio at 64 B (<1)", 0.2,
                    _hybrid_fixes_hccl, 1.5),
        AnchorCheck("Fig6a UCC/hybrid small allreduce ratio (>1)", 2.0,
                    _ucc_small_allreduce_ratio, 0.9),
        AnchorCheck("Fig6a hybrid==CCL at 4MB (ratio)", 1.02,
                    _large_allreduce_hybrid_is_ccl, 0.1),
    ),
))
