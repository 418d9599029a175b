"""Deep-learning application substrate (TensorFlow + Horovod analogue).

The paper's application-level evaluation (§4.4) trains ResNet-50-class
models with TensorFlow + Horovod and reports images/second under each
communication stack.  This package reproduces that methodology
synthetically: models with realistic per-layer gradient sizes, a
per-accelerator compute-time model, and a Horovod-style data-parallel
trainer (gradient fusion buffer, allreduce per bucket, partial
communication/compute overlap) that runs its allreduces through any of
the repo's communication stacks in virtual time.
"""

from repro.dl.models import Layer, ModelSpec, resnet50, vgg16
from repro.dl.compute import ComputeModel, compute_model_for
from repro.dl.horovod import HorovodConfig, GradientBucket, DistributedOptimizer
from repro.dl.trainer import TrainResult, train, project_throughput
from repro.dl.presets import horovod_preset

__all__ = [
    "Layer",
    "ModelSpec",
    "resnet50",
    "vgg16",
    "ComputeModel",
    "compute_model_for",
    "HorovodConfig",
    "GradientBucket",
    "DistributedOptimizer",
    "TrainResult",
    "train",
    "project_throughput",
    "horovod_preset",
]
