"""Closed-form cost models for CCL operations.

These formulas are the analytic twin of what the simulated backends
charge: launch overhead + per-step latencies + bytes over the
communicator's bottleneck bandwidth.  They serve three callers:

* the simulated CCL backends (:mod:`repro.xccl`) price their fused
  collectives with them;
* the offline tuner (:mod:`repro.core.tuning_table`) sweeps them to
  place MPI/xCCL thresholds;
* the Fig 7b Horovod projection
  (:func:`repro.dl.trainer.project_throughput`) prices its buckets
  with them.

All sizes are wire bytes; all returns are microseconds.
"""

from __future__ import annotations

import functools
import math

from repro.errors import ConfigError
from repro.hw.cluster import PathScope, TransferPath
from repro.perfmodel.params import CCLParams
from repro.perfmodel.shape import CommShape


def _memoized(fn):
    """Memoize a closed-form collective model.

    The models are pure in (params, shape, nbytes) — both dataclasses
    are frozen/hashable, and MSCCL's program registry is fixed at
    construction.  ``__wrapped__`` is the model itself.
    """
    cache = {}

    @functools.wraps(fn)
    def wrapper(params: CCLParams, shape: CommShape, nbytes: int) -> float:
        key = (params, shape, nbytes)
        try:
            return cache[key]
        except KeyError:
            if len(cache) > 1 << 16:
                cache.clear()
            t = cache[key] = fn(params, shape, nbytes)
            return t

    wrapper.__wrapped__ = fn
    return wrapper


def _launch(params: CCLParams, shape: CommShape) -> float:
    t = params.launch_us
    if shape.spans_nodes:
        t += params.inter_extra_launch_us
    return t


def _log2ceil(x: int) -> int:
    return max(0, (x - 1).bit_length())


def _ring_segments(params: CCLParams, nbytes: int) -> int:
    """Pipeline depth a ring can actually use: tiny payloads cannot be
    segmented, so per-step latencies are not amortized for them."""
    return min(params.ring_segments, max(1, nbytes // 8192))


def _ring_beta(params: CCLParams, shape: CommShape) -> float:
    """Bottleneck bandwidth of a node-contiguous ring, including the
    store-forward copy hop folded in harmonically."""
    beta = shape.bottleneck_beta(params.bw_eff_intra, params.bw_eff_inter)
    sf = params.store_forward_bpus(shape.spans_nodes)
    return 1.0 / (1.0 / beta + 1.0 / sf)


def _step_alphas(params: CCLParams, shape: CommShape) -> float:
    """Average per-step latency of a node-contiguous ring: most hops
    are intra-node, ``nodes`` of them cross the fabric."""
    base_intra = shape.intra.alpha_us + params.step_alpha_intra_us
    if not shape.spans_nodes:
        return base_intra
    assert shape.inter is not None
    base_inter = shape.inter.alpha_us + params.step_alpha_inter_us
    p = shape.p
    return ((p - shape.nodes) * base_intra + shape.nodes * base_inter) / p


def _tree_alpha_sum(params: CCLParams, shape: CommShape) -> float:
    """Total per-level latency of a binary tree spanning the comm."""
    intra_levels = _log2ceil(shape.ppn)
    inter_levels = _log2ceil(shape.nodes)
    t = intra_levels * (shape.intra.alpha_us + params.step_alpha_intra_us)
    if shape.spans_nodes:
        assert shape.inter is not None
        t += inter_levels * (shape.inter.alpha_us + params.step_alpha_inter_us)
    return t


# ---------------------------------------------------------------------------
# point-to-point
# ---------------------------------------------------------------------------

def p2p_time(params: CCLParams, path: TransferPath, nbytes: int,
             pipelined: bool = False, launched: bool = True) -> float:
    """One CCL send/recv pair: launch + path latency + wire +
    store-forward hop (hidden when ``pipelined``).

    Inter-node transfers price against the fabric (the RDMA engine
    streams through intermediate hops; ``bw_eff_inter`` is calibrated
    to the fabric)."""
    inter = path.scope == PathScope.INTER
    if path.scope == PathScope.LOCAL:
        beta = path.beta_bpus
    elif inter:
        assert path.fabric is not None
        beta = path.fabric.beta_bpus * params.bw_eff_inter
    else:
        beta = path.beta_bpus * params.bw_eff_intra
    t = path.alpha_us + nbytes / beta
    if launched:
        t += params.launch_us + (params.inter_extra_launch_us if inter else 0.0)
    if not pipelined:
        t += nbytes / params.store_forward_bpus(inter)
    return t


# ---------------------------------------------------------------------------
# built-in collectives (§3.2): the five the CCL APIs provide
# ---------------------------------------------------------------------------

@_memoized
def allreduce_time(params: CCLParams, shape: CommShape, nbytes: int) -> float:
    """AllReduce: double binary tree below the threshold, ring above."""
    p = shape.p
    if p == 1:
        return params.launch_us
    beta = _ring_beta(params, shape)
    tree = (_launch(params, shape) + 2.0 * _tree_alpha_sum(params, shape)
            + 2.0 * nbytes / (0.85 * beta))
    segs = _ring_segments(params, nbytes)
    ring = (_launch(params, shape)
            + 2.0 * (p - 1) * _step_alphas(params, shape) / segs
            + 2.0 * nbytes * (p - 1) / (p * beta))
    t = min(tree, ring)
    return _msccl(params, shape, "allreduce", nbytes, t)


@_memoized
def bcast_time(params: CCLParams, shape: CommShape, nbytes: int) -> float:
    """Broadcast: tree small, pipelined ring large."""
    p = shape.p
    if p == 1:
        return params.launch_us
    beta = _ring_beta(params, shape)
    tree = (_launch(params, shape) + _tree_alpha_sum(params, shape)
            + nbytes / (0.9 * beta))
    segs = _ring_segments(params, nbytes)
    ring = (_launch(params, shape)
            + (p - 1) * _step_alphas(params, shape) / segs
            + nbytes * (p - 1) / (p * beta) + nbytes / beta / segs)
    t = min(tree, ring)
    return _msccl(params, shape, "bcast", nbytes, t)


@_memoized
def reduce_time(params: CCLParams, shape: CommShape, nbytes: int) -> float:
    """Reduce: broadcast shape plus the reduction compute stream."""
    return bcast_time(params, shape, nbytes) * 1.12


@_memoized
def allgather_time(params: CCLParams, shape: CommShape, nbytes: int) -> float:
    """AllGather of ``nbytes`` per rank: ring, ``(p-1)`` hops."""
    p = shape.p
    if p == 1:
        return params.launch_us
    beta = _ring_beta(params, shape)
    t = (_launch(params, shape)
         + (p - 1) * _step_alphas(params, shape)
         / math.sqrt(_ring_segments(params, nbytes))
         + nbytes * (p - 1) / beta)
    return _msccl(params, shape, "allgather", nbytes, t)


@_memoized
def reduce_scatter_time(params: CCLParams, shape: CommShape, nbytes: int) -> float:
    """ReduceScatter producing ``nbytes`` per rank (ring)."""
    return allgather_time(params, shape, nbytes) * 1.08


@_memoized
def alltoall_time(params: CCLParams, shape: CommShape, nbytes: int) -> float:
    """Grouped send/recv alltoall: ``nbytes`` to each of ``p-1`` peers.

    Egress is the bottleneck: on a switched node each device drives its
    own port; inter-node traffic shares the NIC among the node's ranks.
    """
    p = shape.p
    if p == 1:
        return params.launch_us
    intra_peers = min(shape.ppn, p) - 1
    inter_peers = p - min(shape.ppn, p)
    intra_beta = shape.intra.beta_bpus * params.bw_eff_intra
    if not shape.switched and shape.ppn > 2:
        intra_beta /= (shape.ppn - 1)
    t = (_launch(params, shape) + _step_alphas(params, shape)
         + intra_peers * nbytes / intra_beta)
    if inter_peers:
        nic = shape.nic_beta(params.bw_eff_inter) / max(1, shape.ppn)
        t += inter_peers * nbytes / nic
    return _msccl(params, shape, "alltoall", nbytes, t)


@_memoized
def gather_time(params: CCLParams, shape: CommShape, nbytes: int) -> float:
    """Grouped send/recv gather: the root's ingress serializes
    ``(p-1)`` blocks of ``nbytes``."""
    p = shape.p
    if p == 1:
        return params.launch_us
    intra_srcs = min(shape.ppn, p) - 1
    inter_srcs = p - min(shape.ppn, p)
    intra_beta = shape.intra.beta_bpus * params.bw_eff_intra
    if not shape.switched and shape.ppn > 2:
        intra_beta /= (shape.ppn - 1)
    t = (_launch(params, shape) + _step_alphas(params, shape)
         + intra_srcs * nbytes / intra_beta)
    if inter_srcs:
        t += inter_srcs * nbytes / shape.nic_beta(params.bw_eff_inter)
    return _msccl(params, shape, "gather", nbytes, t)


@_memoized
def scatter_time(params: CCLParams, shape: CommShape, nbytes: int) -> float:
    """Grouped send/recv scatter (egress mirror of gather)."""
    return gather_time(params, shape, nbytes)


def _msccl(params: CCLParams, shape: CommShape, coll: str, nbytes: int,
           t: float) -> float:
    """MSCCL's loaded custom-algorithm programs accelerate calls inside
    their activation windows (see :mod:`repro.xccl.msccl_programs`)."""
    if params.name == "msccl":
        from repro.xccl.msccl_programs import default_registry
        return t / default_registry().factor(coll, nbytes, shape.p)
    return t


#: dispatch table used by the tuner and figure sweeps.
COLLECTIVE_MODELS = {
    "allreduce": allreduce_time,
    "bcast": bcast_time,
    "reduce": reduce_time,
    "allgather": allgather_time,
    "reduce_scatter": reduce_scatter_time,
    "alltoall": alltoall_time,
    "gather": gather_time,
    "scatter": scatter_time,
}


def collective_time(params: CCLParams, shape: CommShape, coll: str,
                    nbytes: int) -> float:
    """Time of any supported collective by name."""
    try:
        fn = COLLECTIVE_MODELS[coll]
    except KeyError:
        raise ConfigError(f"no CCL model for collective {coll!r}") from None
    return fn(params, shape, nbytes)
