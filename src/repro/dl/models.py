"""Synthetic model specs with realistic gradient-tensor sizes.

The communication pattern of data-parallel training is fully determined
by the list of gradient tensors (sizes and backward order), so a model
here is exactly that: named layers with parameter counts, plus the
per-image forward FLOP count for the compute model.  ResNet-50 is
constructed block-by-block with the real architecture's parameter
counts (~25.6 M), matching what Horovod would see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Layer:
    """One trainable tensor (a Horovod allreduce unit)."""

    name: str
    params: int

    @property
    def grad_bytes(self) -> int:
        """fp32 gradient size."""
        return self.params * 4


@dataclass(frozen=True)
class ModelSpec:
    """A synthetic model.

    Attributes:
        name: model identifier.
        layers: trainable tensors in *forward* order (Horovod reduces
            them in reverse during backprop).
        fwd_flops_per_image: forward-pass FLOPs for one image.
    """

    name: str
    layers: Tuple[Layer, ...]
    fwd_flops_per_image: float

    @property
    def total_params(self) -> int:
        """Total trainable parameters."""
        return sum(l.params for l in self.layers)

    @property
    def flops_per_image(self) -> float:
        """Forward+backward FLOPs per image (backward ~ 2x forward)."""
        return 3.0 * self.fwd_flops_per_image


def _conv(name: str, cin: int, cout: int, k: int) -> List[Layer]:
    return [Layer(f"{name}.weight", cin * cout * k * k)]


def _bn(name: str, c: int) -> List[Layer]:
    return [Layer(f"{name}.gamma", c), Layer(f"{name}.beta", c)]


def _bottleneck(name: str, cin: int, mid: int, cout: int,
                downsample: bool) -> List[Layer]:
    layers: List[Layer] = []
    layers += _conv(f"{name}.conv1", cin, mid, 1) + _bn(f"{name}.bn1", mid)
    layers += _conv(f"{name}.conv2", mid, mid, 3) + _bn(f"{name}.bn2", mid)
    layers += _conv(f"{name}.conv3", mid, cout, 1) + _bn(f"{name}.bn3", cout)
    if downsample:
        layers += _conv(f"{name}.down", cin, cout, 1) + _bn(f"{name}.dbn", cout)
    return layers


def resnet50() -> ModelSpec:
    """ResNet-50 (ImageNet): ~25.6 M params, ~4.1 GFLOP/image forward.

    The long tail of tiny BN tensors (dozens of 256 B – 8 KB
    gradients) is the workload the paper's hybrid small-message path
    targets.
    """
    layers: List[Layer] = []
    layers += _conv("conv1", 3, 64, 7) + _bn("bn1", 64)
    stage_cfg = [  # (blocks, cin, mid, cout)
        (3, 64, 64, 256),
        (4, 256, 128, 512),
        (6, 512, 256, 1024),
        (3, 1024, 512, 2048),
    ]
    for si, (blocks, cin, mid, cout) in enumerate(stage_cfg, start=1):
        for b in range(blocks):
            block_cin = cin if b == 0 else cout
            layers += _bottleneck(f"layer{si}.{b}", block_cin, mid, cout,
                                  downsample=(b == 0))
    layers += [Layer("fc.weight", 2048 * 1000), Layer("fc.bias", 1000)]
    return ModelSpec("resnet50", tuple(layers), fwd_flops_per_image=4.1e9)


def vgg16() -> ModelSpec:
    """VGG-16: ~138 M params (one giant 102 M-param FC gradient) —
    the bandwidth-bound counterpoint to ResNet-50."""
    cfg = [(3, 64), (64, 64), (64, 128), (128, 128), (128, 256), (256, 256),
           (256, 256), (256, 512), (512, 512), (512, 512), (512, 512),
           (512, 512), (512, 512)]
    layers: List[Layer] = []
    for i, (cin, cout) in enumerate(cfg):
        layers += _conv(f"conv{i}", cin, cout, 3)
        layers.append(Layer(f"conv{i}.bias", cout))
    layers += [
        Layer("fc1.weight", 25088 * 4096), Layer("fc1.bias", 4096),
        Layer("fc2.weight", 4096 * 4096), Layer("fc2.bias", 4096),
        Layer("fc3.weight", 4096 * 1000), Layer("fc3.bias", 1000),
    ]
    return ModelSpec("vgg16", tuple(layers), fwd_flops_per_image=15.5e9)

