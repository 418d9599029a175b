"""Shared TensorFlow+Horovod experiment plumbing (Figs. 7-10)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.dl import horovod_preset, train
from repro.dl.models import resnet50
from repro.dl.trainer import project_throughput
from repro.hw.systems import make_system
from repro.omb.stacks import make_stack, series_label
from repro.perfmodel.shape import shape_of
from repro.sim.engine import Engine
from repro.util.records import ResultRecord, ResultSet

#: batch sizes the paper sweeps in every TF figure.
BATCHES = (32, 64, 128)


def tf_panel(exp_id: str, system: str, nodes: int, nranks: int,
             backend: str, stacks: Sequence[str], scale: str,
             steps: int = 3,
             baseline_backend: Optional[str] = None) -> ResultSet:
    """One TF throughput panel: img/s per (stack, batch size)."""
    batches = (32, 128) if scale == "quick" else BATCHES
    cluster = make_system(system, nodes, payloads=False)
    model = resnet50()
    results = ResultSet()
    for stack in stacks:
        be = baseline_backend if (stack == "ccl" and baseline_backend) else backend
        for batch in batches:
            engine = Engine(cluster, nranks=nranks)

            def body(ctx, stack=stack, be=be, batch=batch):
                s = make_stack(ctx, stack, be)
                cfg = horovod_preset(stack, be, multi_node=nodes > 1)
                return train(ctx, s, model, batch, steps=steps, config=cfg)

            r = engine.run(body)[0]
            results.add(ResultRecord(exp_id, series=series_label(stack, be),
                                     x=float(batch), value=r.img_per_sec,
                                     unit="img/s",
                                     meta={"system": system, "nodes": nodes,
                                           "ranks": nranks, "backend": be,
                                           "stack": stack,
                                           "comm_ms": r.comm_time_us / 1000}))
    return results


def tf_projection_panel(exp_id: str, system: str, nodes: int, nranks: int,
                        backend: str, stacks: Sequence[str], scale: str,
                        baseline_backend: Optional[str] = None) -> ResultSet:
    """Closed-form TF panel for scales beyond the engine (Fig 7b,
    128 GPUs)."""
    batches = (32, 128) if scale == "quick" else BATCHES
    cluster = make_system(system, nodes)
    shape = shape_of(cluster, range(nranks))
    results = ResultSet()
    for stack in stacks:
        be = baseline_backend if (stack == "ccl" and baseline_backend) else backend
        for batch in batches:
            r = project_throughput(shape, stack, be, batch_per_device=batch)
            results.add(ResultRecord(exp_id, series=series_label(stack, be),
                                     x=float(batch), value=r.img_per_sec,
                                     unit="img/s",
                                     meta={"system": system, "nodes": nodes,
                                           "ranks": nranks, "backend": be,
                                           "stack": stack, "method": "model",
                                           "comm_ms": r.comm_time_us / 1000}))
    return results


def throughput(exp: str, series: str, batch: int):
    """Extractor factory for anchor checks."""
    def get(rs: ResultSet) -> float:
        sub = rs.filter(lambda r: r.experiment == exp and r.series == series
                        and r.x == float(batch))
        if not len(sub):
            raise KeyError(f"{exp}/{series}/bs{batch} missing")
        return sub[0].value
    return get
