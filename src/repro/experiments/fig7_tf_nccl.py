"""Figure 7: TensorFlow+Horovod on the NVIDIA system (NCCL backend).

(a) 1 node / 8 GPUs, engine-driven: xCCL vs pure NCCL vs Open MPI +
    UCX vs Open MPI + UCX + UCC, batch sizes 32/64/128.
(b) 16 nodes / 128 GPUs, closed-form projection: xCCL 94600 img/s =
    1.35x UCX = 1.5x UCC at batch 128.  The engine runs this shape, but
    it applies UCX's large-buffer pathology as a scalar on each bucket's
    measured allreduce, which puts Open MPI + UCX far below the paper.
"""

from __future__ import annotations

from repro.experiments._tf_common import (
    tf_panel,
    tf_projection_panel,
    throughput,
)
from repro.experiments.registry import AnchorCheck, Experiment, register
from repro.util.records import ResultSet


def run(scale: str = "paper") -> ResultSet:
    results = ResultSet()
    results.extend(tf_panel("fig7a", "thetagpu", nodes=1, nranks=8,
                            backend="nccl",
                            stacks=("hybrid", "ccl", "openmpi", "ucc"),
                            scale=scale))
    results.extend(tf_projection_panel(
        "fig7b", "thetagpu", nodes=16, nranks=128, backend="nccl",
        stacks=("hybrid", "openmpi", "ucc"), scale=scale))
    return results


def _ratio(exp: str, a: str, b: str, batch: int):
    def get(results: ResultSet) -> float:
        return (throughput(exp, a, batch)(results)
                / throughput(exp, b, batch)(results))
    return get


EXPERIMENT = register(Experiment(
    id="fig7",
    title="TensorFlow with Horovod on the NVIDIA system (NCCL)",
    paper_ref="Figure 7",
    run=run,
    method="mixed",
    checks=(
        AnchorCheck("Fig7a xCCL img/s @bs32", 4850,
                    throughput("fig7a", "Proposed Hybrid xCCL", 32),
                    0.15, "img/s"),
        AnchorCheck("Fig7a pure NCCL img/s @bs32", 4050,
                    throughput("fig7a", "Pure NCCL", 32),
                    0.2, "img/s"),
        AnchorCheck("Fig7a OpenMPI+UCX img/s @bs128", 3450,
                    throughput("fig7a", "Open MPI + UCX", 128),
                    0.2, "img/s"),
        AnchorCheck("Fig7a OpenMPI+UCX+UCC img/s @bs128", 4480,
                    throughput("fig7a", "Open MPI + UCX + UCC", 128),
                    0.2, "img/s"),
        AnchorCheck("Fig7b xCCL img/s @128 GPUs bs128", 94600,
                    throughput("fig7b", "Proposed Hybrid xCCL", 128),
                    0.15, "img/s"),
        AnchorCheck("Fig7b xCCL/UCX ratio", 1.35,
                    _ratio("fig7b", "Proposed Hybrid xCCL",
                           "Open MPI + UCX", 128), 0.2),
        AnchorCheck("Fig7b xCCL/UCC ratio", 1.5,
                    _ratio("fig7b", "Proposed Hybrid xCCL",
                           "Open MPI + UCX + UCC", 128), 0.2),
        AnchorCheck("Fig7b UCC underperforms UCX by ~10%", 0.9,
                    _ratio("fig7b", "Open MPI + UCX + UCC",
                           "Open MPI + UCX", 128), 0.15),
    ),
))
