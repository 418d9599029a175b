"""Real-gradient data-parallel SGD: the correctness twin of the trainer.

The synthetic trainer (:mod:`repro.dl.trainer`) models *throughput*;
this module trains an actual numpy MLP data-parallel, allreducing real
gradients through any communication stack — so tests can assert the
strongest property a communication runtime offers a training job:
**bit-equivalent learning** regardless of which stack (hybrid MPI-xCCL,
pure CCL, Open MPI) moves the gradients, and equivalence to a
single-process run on the concatenated batch.

:func:`tiny_mlp` is the small :class:`~repro.dl.models.ModelSpec` the
trainer tests drive the synthetic trainer with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.dl.models import Layer, ModelSpec
from repro.errors import ConfigError
from repro.mpi.datatypes import DOUBLE
from repro.mpi.ops import SUM


@dataclass
class MLP:
    """A tiny two-layer perceptron with explicit numpy math.

    Deterministic initialization from ``seed`` so every rank (and the
    single-process reference) starts identically.
    """

    in_dim: int
    hidden: int
    out_dim: int
    seed: int = 0
    w1: np.ndarray = field(init=False)
    b1: np.ndarray = field(init=False)
    w2: np.ndarray = field(init=False)
    b2: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.w1 = rng.standard_normal((self.in_dim, self.hidden)) * 0.1
        self.b1 = np.zeros(self.hidden)
        self.w2 = rng.standard_normal((self.hidden, self.out_dim)) * 0.1
        self.b2 = np.zeros(self.out_dim)

    # -- math ---------------------------------------------------------------

    def forward(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (hidden activations, predictions)."""
        h = np.tanh(x @ self.w1 + self.b1)
        return h, h @ self.w2 + self.b2

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray):
        """MSE loss and gradients, averaged over the local batch."""
        n = x.shape[0]
        h, pred = self.forward(x)
        err = pred - y
        loss = float((err ** 2).mean())
        dpred = 2.0 * err / (err.size)
        gw2 = h.T @ dpred
        gb2 = dpred.sum(axis=0)
        dh = (dpred @ self.w2.T) * (1.0 - h ** 2)
        gw1 = x.T @ dh
        gb1 = dh.sum(axis=0)
        return loss, [gw1, gb1, gw2, gb2]

    def apply(self, grads: Sequence[np.ndarray], lr: float) -> None:
        """SGD update."""
        self.w1 -= lr * grads[0]
        self.b1 -= lr * grads[1]
        self.w2 -= lr * grads[2]
        self.b2 -= lr * grads[3]

    # -- flat gradient vector (one fused allreduce, Horovod-style) -----

    @property
    def param_count(self) -> int:
        """Total trainable parameters."""
        return (self.w1.size + self.b1.size + self.w2.size + self.b2.size)

    @staticmethod
    def flatten(grads: Sequence[np.ndarray]) -> np.ndarray:
        """Pack gradients into one float64 vector."""
        return np.concatenate([g.reshape(-1) for g in grads])

    def unflatten(self, flat: np.ndarray) -> List[np.ndarray]:
        """Inverse of :meth:`flatten` for this model's shapes."""
        shapes = [self.w1.shape, self.b1.shape, self.w2.shape, self.b2.shape]
        out, off = [], 0
        for shape in shapes:
            size = int(np.prod(shape))
            out.append(flat[off:off + size].reshape(shape))
            off += size
        return out


def make_dataset(n: int, in_dim: int, out_dim: int,
                 seed: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """A fixed synthetic regression dataset."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, in_dim))
    w = rng.standard_normal((in_dim, out_dim))
    y = np.tanh(x @ w) + 0.01 * rng.standard_normal((n, out_dim))
    return x, y


def _allreduce_flat(ctx, stack, flat: np.ndarray) -> np.ndarray:
    send = ctx.device.from_numpy(flat)
    recv = ctx.device.empty(flat.size, dtype=np.float64)
    # float64 rides every NCCL-family backend; HCCL would reject it on
    # the pure-CCL harness
    stack.Allreduce(send, recv, SUM, count=flat.size, datatype=DOUBLE)
    return recv.to_numpy()


def train_data_parallel(ctx, stack, steps: int = 5, lr: float = 0.05,
                        in_dim: int = 8, hidden: int = 16, out_dim: int = 2,
                        global_batch: int = 64,
                        seed: int = 0) -> Tuple[List[float], MLP]:
    """Data-parallel SGD on this rank; returns (per-step losses of the
    *global* objective, the final model).

    Each rank computes gradients on its shard of the fixed global
    batch; one fused allreduce averages them; every rank applies the
    same update — so the model trajectory must match the
    single-process :func:`train_reference` exactly (up to float64
    summation order, hence tests use ``allclose``).
    """
    p = ctx.size
    if global_batch % p:
        raise ConfigError(f"global batch {global_batch} not divisible by {p}")
    x, y = make_dataset(global_batch, in_dim, out_dim)
    shard = global_batch // p
    lo = ctx.rank * shard
    model = MLP(in_dim, hidden, out_dim, seed=seed)
    losses: List[float] = []
    for _ in range(steps):
        _loss_local, grads = model.loss_and_grads(x[lo:lo + shard],
                                                  y[lo:lo + shard])
        flat = MLP.flatten(grads)
        summed = _allreduce_flat(ctx, stack, flat)
        model.apply(model.unflatten(summed / p), lr)
        # track the global loss for comparison with the reference
        _h, pred = model.forward(x)
        losses.append(float(((pred - y) ** 2).mean()))
    return losses, model


def train_reference(steps: int = 5, lr: float = 0.05, in_dim: int = 8,
                    hidden: int = 16, out_dim: int = 2,
                    global_batch: int = 64, world: int = 1,
                    seed: int = 0) -> Tuple[List[float], MLP]:
    """Single-process twin of :func:`train_data_parallel`.

    ``world`` reproduces the distributed gradient averaging order:
    gradients are computed per shard and averaged, exactly like the
    allreduce path, so results agree to float64 rounding.
    """
    x, y = make_dataset(global_batch, in_dim, out_dim)
    shard = global_batch // world
    model = MLP(in_dim, hidden, out_dim, seed=seed)
    losses: List[float] = []
    for _ in range(steps):
        flats = []
        for r in range(world):
            _loss, grads = model.loss_and_grads(x[r * shard:(r + 1) * shard],
                                                y[r * shard:(r + 1) * shard])
            flats.append(MLP.flatten(grads))
        mean_flat = np.sum(flats, axis=0) / world
        model.apply(model.unflatten(mean_flat), lr)
        _h, pred = model.forward(x)
        losses.append(float(((pred - y) ** 2).mean()))
    return losses, model


def tiny_mlp(hidden: int = 256, depth: int = 3) -> ModelSpec:
    """A small MLP's layer list, for fast trainer tests."""
    layers: List[Layer] = []
    prev = 64
    for i in range(depth):
        layers += [Layer(f"fc{i}.weight", prev * hidden),
                   Layer(f"fc{i}.bias", hidden)]
        prev = hidden
    layers += [Layer("out.weight", prev * 10), Layer("out.bias", 10)]
    return ModelSpec("tiny_mlp", tuple(layers),
                     fwd_flops_per_image=2.0 * sum(l.params for l in layers))
