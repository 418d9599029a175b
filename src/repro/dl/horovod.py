"""Horovod-style data-parallel gradient reduction.

A :class:`DistributedOptimizer` mirrors what ``hvd.DistributedOptimizer``
does per training step: gradients become available in reverse layer
order during backprop, get packed into a fusion buffer until the
threshold fills, and each full bucket is allreduced.  Which stack runs
the allreduce — hybrid MPI-xCCL, pure CCL, Open MPI — is exactly the
paper's §4.4 variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.baselines.pure_ccl import PureCCLHarness
from repro.dl.models import Layer, ModelSpec
from repro.mpi.datatypes import FLOAT
from repro.mpi.ops import SUM
from repro.sim.engine import RankContext


@dataclass(frozen=True)
class HorovodConfig:
    """Integration knobs of the Horovod layer on one stack.

    Attributes:
        fusion_threshold_bytes: fusion-buffer size; gradients pack into
            buckets of at most this size (Horovod's
            ``HOROVOD_FUSION_THRESHOLD``).
        cycle_time_us: coordination cost per bucket (negotiation,
            response cache, enqueue) — Horovod's cycle.
        overlap: fraction of allreduce time hidden under backward
            compute achieved by this integration (stream-async stacks
            overlap well; synchronous paths expose everything).
        large_message_penalty: multiplier on allreduce time for buckets
            above ``penalty_threshold_bytes`` — calibrated
            integration pathologies of the baseline stacks in the
            DL regime (see DESIGN.md substitution notes).
        penalty_threshold_bytes: where the penalty starts applying.
        compression_ratio: on-the-fly gradient compression factor
            (1.0 = off).  Models the MVAPICH-style compression of the
            paper's reference [22]: buckets shrink by the ratio on the
            wire, paying a compress+decompress cost per element.
        compression_bpus: compression engine throughput, bytes/us.
    """

    fusion_threshold_bytes: int = 64 * 1024 * 1024
    cycle_time_us: float = 300.0
    overlap: float = 0.9
    large_message_penalty: float = 1.0
    penalty_threshold_bytes: int = 4 * 1024 * 1024
    compression_ratio: float = 1.0
    compression_bpus: float = 200_000.0


@dataclass
class GradientBucket:
    """One fused allreduce unit."""

    index: int
    layers: List[Layer] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        """Fused gradient bytes."""
        return sum(l.grad_bytes for l in self.layers)

    @property
    def count(self) -> int:
        """fp32 element count."""
        return self.nbytes // 4


def build_buckets(model: ModelSpec, fusion_threshold_bytes: int) -> List[GradientBucket]:
    """Pack gradients (reverse layer order, as backprop emits them)
    into fusion buckets."""
    buckets: List[GradientBucket] = []
    current = GradientBucket(0)
    for layer in reversed(model.layers):
        if current.layers and current.nbytes + layer.grad_bytes > fusion_threshold_bytes:
            buckets.append(current)
            current = GradientBucket(len(buckets))
        current.layers.append(layer)
    if current.layers:
        buckets.append(current)
    return buckets


class DistributedOptimizer:
    """Per-rank gradient reducer over a communication stack.

    Args:
        ctx: engine context (device, clock).
        stack: hybrid/MPI communicator or :class:`PureCCLHarness`.
        model: the trained model spec.
        config: Horovod integration knobs (see
            :func:`repro.dl.presets.horovod_preset`).
    """

    def __init__(self, ctx: RankContext, stack, model: ModelSpec,
                 config: HorovodConfig) -> None:
        self.ctx = ctx
        self.stack = stack
        self.model = model
        self.config = config
        self.buckets = build_buckets(model, config.fusion_threshold_bytes)
        max_count = max(b.count for b in self.buckets)
        self._send = ctx.device.zeros(max_count, dtype=np.float32)
        # only ever written by the allreduce (``omb.collective._alloc``'s rule)
        self._recv = ctx.device.empty(max_count, dtype=np.float32)

    def _coordinate(self) -> None:
        """Horovod's coordinator round before a bucket: every rank of the
        stack starts its allreduce at the latest arrival.  Free here;
        ``cycle_time_us`` is its cost."""
        comm = self.stack.comm if isinstance(self.stack, PureCCLHarness) \
            else self.stack
        scope = comm.record.scope
        key = ((scope if isinstance(scope, tuple) else (scope,))
               + ("horovod-cycle", next(self.ctx.program_seq)))
        slot = self.ctx.collective_slot(key, self.stack.size)
        self.ctx.clock.merge(slot.exchange(
            self.stack.rank, self.ctx.now, lambda t: max(t.values())))

    def _allreduce_bucket(self, bucket: GradientBucket) -> None:
        count = bucket.count
        ratio = self.config.compression_ratio
        if ratio > 1.0:
            # compress before the wire, decompress after (ref [22] of
            # the paper: on-the-fly compression for GPU clusters)
            self.ctx.clock.advance(bucket.nbytes / self.config.compression_bpus)
            count = max(1, int(count / ratio))
        if isinstance(self.stack, PureCCLHarness):
            self.stack.allreduce(self._send.view(0, count),
                                 self._recv.view(0, count), count)
        else:
            self.stack.Allreduce(self._send.view(0, count),
                                 self._recv.view(0, count), SUM,
                                 count=count, datatype=FLOAT)
        if ratio > 1.0:
            self.ctx.clock.advance(bucket.nbytes / self.config.compression_bpus)

    def reduce_gradients(self) -> float:
        """Allreduce every bucket; returns the *raw* communication time
        (virtual us) including cycle costs and calibration penalties.

        The trainer decides how much of it is exposed (overlap).
        """
        cfg = self.config
        t0 = self.ctx.now
        for bucket in self.buckets:
            self.ctx.clock.advance(cfg.cycle_time_us)
            self._coordinate()
            tb = self.ctx.now
            self._allreduce_bucket(bucket)
            if (cfg.large_message_penalty > 1.0
                    and bucket.nbytes > cfg.penalty_threshold_bytes):
                measured = self.ctx.now - tb
                self.ctx.clock.advance(measured * (cfg.large_message_penalty - 1.0))
        return self.ctx.now - t0
