"""Closed-form cost models for the MPI collective algorithms.

The analytic twin of :mod:`repro.mpi.coll`: the same algorithm step
structures priced with the same protocol constants, so the offline
hybrid tuner (§3.4) can compare MPI against CCL backends at any scale
without running the engine.  Validation tests check these against
engine-measured times on small communicators.

All sizes are wire bytes; returns are microseconds per operation.
"""

from __future__ import annotations

import functools

from repro.errors import ConfigError
from repro.hw.cluster import PathScope
from repro.mpi.coll import tuning
from repro.mpi.compute import HOST_REDUCE_THRESHOLD
from repro.mpi.config import MPIConfig
from repro.perfmodel.shape import CommShape


def _memoized(fn):
    """Memoize one analytic MPI model: pure in its (hashable frozen
    dataclass) arguments; ``__wrapped__`` is the model itself."""
    cache = {}

    @functools.wraps(fn)
    def wrapper(config: MPIConfig, shape: CommShape, nbytes: int,
                algorithm: str = "") -> float:
        key = (config, shape, nbytes, algorithm)
        try:
            return cache[key]
        except KeyError:
            if len(cache) > 1 << 16:
                cache.clear()
            t = cache[key] = fn(config, shape, nbytes, algorithm)
            return t

    wrapper.__wrapped__ = fn
    return wrapper


def _log2ceil(x: int) -> int:
    return max(0, (x - 1).bit_length())


def p2p_step(config: MPIConfig, shape: CommShape, nbytes: int,
             inter: bool, device: bool = True) -> float:
    """One matched send/recv (or full-duplex sendrecv) of ``nbytes``."""
    link = shape.inter if (inter and shape.inter is not None) else shape.intra
    scope = PathScope.INTER if inter else PathScope.INTRA
    hops = 2 if not inter else 3  # through switch / via both NICs
    alpha = link.alpha_us * (1 if inter else hops) \
        + (shape.intra.alpha_us * 2 if inter else 0.0)
    if device:
        alpha += config.gpu_alpha_extra_us
    beta = link.effective_beta(config.effective_beta(scope, link.beta_bpus))
    t = (config.send_overhead_us + config.recv_overhead_us
         + config.tag_matching_us + alpha + nbytes / beta)
    if nbytes <= config.eager_threshold(scope):
        t += nbytes / config.unpack_bpus
    else:
        t += 2.0 * (alpha + config.tag_matching_us)  # rendezvous RTT
    return t


def _round_cost(config: MPIConfig, shape: CommShape, nbytes: int,
                rounds_intra: int, rounds_inter: int) -> float:
    t = rounds_intra * p2p_step(config, shape, nbytes, inter=False)
    if rounds_inter:
        t += rounds_inter * p2p_step(config, shape, nbytes, inter=True)
    return t


def _split_rounds(shape: CommShape, rounds: int):
    """How many of ``rounds`` recursive-doubling rounds cross nodes."""
    intra_rounds = min(rounds, _log2ceil(shape.ppn))
    return intra_rounds, rounds - intra_rounds


def reduce_compute(config: MPIConfig, shape: CommShape, nbytes: int,
                   device: bool = True) -> float:
    """One local reduction of ``nbytes`` (mirrors
    :func:`repro.mpi.compute.reduce_time_us`)."""
    if device and nbytes > HOST_REDUCE_THRESHOLD:
        return shape.kernel_launch_us + 3.0 * nbytes / shape.hbm_bpus
    return 0.15 + nbytes / config.host_reduce_bpus


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------

@_memoized
def allreduce_time(config: MPIConfig, shape: CommShape, nbytes: int,
                   algorithm: str = "") -> float:
    """MPI allreduce (per the internal tuning table unless pinned)."""
    p = shape.p
    if p == 1:
        return 1.0
    algo = algorithm or tuning.select("allreduce", nbytes, p)
    rounds = _log2ceil(p)
    if algo == "recursive_doubling":
        ri, rx = _split_rounds(shape, rounds)
        t = _round_cost(config, shape, nbytes, ri, rx)
        t += rounds * reduce_compute(config, shape, nbytes)
        if p & (p - 1):  # non-pof2 pre/post folding
            t += 2.0 * p2p_step(config, shape, nbytes, inter=shape.spans_nodes)
        return t
    chunk = nbytes / p
    steps = 2 * (p - 1)
    inter_steps = 2 * shape.nodes if shape.spans_nodes else 0
    intra_steps = steps - inter_steps
    t = _round_cost(config, shape, int(chunk), intra_steps, inter_steps)
    t += (p - 1) * reduce_compute(config, shape, int(chunk))
    if algo == "rabenseifner":
        # halving/doubling does the same volume in fewer, fatter steps
        t *= 0.82
    return t


@_memoized
def bcast_time(config: MPIConfig, shape: CommShape, nbytes: int,
               algorithm: str = "") -> float:
    """MPI broadcast."""
    p = shape.p
    if p == 1:
        return 1.0
    algo = algorithm or tuning.select("bcast", nbytes, p)
    if algo == "binomial":
        ri, rx = _split_rounds(shape, _log2ceil(p))
        return _round_cost(config, shape, nbytes, ri, rx)
    # scatter (log p rounds of halving size) + ring allgather
    chunk = nbytes / p
    ri, rx = _split_rounds(shape, _log2ceil(p))
    scatter = _round_cost(config, shape, int(nbytes / 2), ri, rx) * 0.8
    inter_steps = shape.nodes if shape.spans_nodes else 0
    allgather = _round_cost(config, shape, int(chunk),
                            (p - 1) - inter_steps, inter_steps)
    return scatter + allgather


@_memoized
def reduce_time(config: MPIConfig, shape: CommShape, nbytes: int,
                algorithm: str = "") -> float:
    """MPI reduce."""
    p = shape.p
    if p == 1:
        return 1.0
    algo = algorithm or tuning.select("reduce", nbytes, p)
    if algo in ("binomial", "linear"):
        rounds = _log2ceil(p) if algo == "binomial" else (p - 1)
        ri, rx = _split_rounds(shape, rounds) if algo == "binomial" \
            else (rounds - (shape.nodes - 1 if shape.spans_nodes else 0),
                  shape.nodes - 1 if shape.spans_nodes else 0)
        t = _round_cost(config, shape, nbytes, ri, rx)
        t += min(rounds, _log2ceil(p)) * reduce_compute(config, shape, nbytes)
        return t
    # reduce_scatter + gather
    chunk = nbytes / p
    steps = p - 1
    inter_steps = shape.nodes if shape.spans_nodes else 0
    rs = _round_cost(config, shape, int(chunk), steps - inter_steps, inter_steps)
    rs += steps * reduce_compute(config, shape, int(chunk))
    gather = steps * (int(chunk) / config.effective_beta(
        PathScope.INTER if shape.spans_nodes else PathScope.INTRA,
        (shape.inter or shape.intra).beta_bpus)) \
        + p2p_step(config, shape, int(chunk), inter=shape.spans_nodes)
    return rs + gather


@_memoized
def allgather_time(config: MPIConfig, shape: CommShape, nbytes: int,
                   algorithm: str = "") -> float:
    """MPI allgather of ``nbytes`` per rank."""
    p = shape.p
    if p == 1:
        return 1.0
    algo = algorithm or tuning.select("allgather", nbytes, p)
    if algo in ("bruck", "recursive_doubling"):
        t = 0.0
        have = 1
        rounds = 0
        while have < p:
            cnt = min(have, p - have)
            inter = shape.spans_nodes and have >= shape.ppn
            t += p2p_step(config, shape, cnt * nbytes, inter=inter)
            have += cnt
            rounds += 1
        return t
    steps = p - 1
    inter_steps = shape.nodes if shape.spans_nodes else 0
    return _round_cost(config, shape, nbytes, steps - inter_steps, inter_steps)


@_memoized
def alltoall_time(config: MPIConfig, shape: CommShape, nbytes: int,
                  algorithm: str = "") -> float:
    """MPI alltoall, ``nbytes`` per destination."""
    p = shape.p
    if p == 1:
        return 1.0
    algo = algorithm or tuning.select("alltoall", nbytes, p)
    if algo == "bruck":
        rounds = _log2ceil(p)
        ri, rx = _split_rounds(shape, rounds)
        return _round_cost(config, shape, (p // 2) * nbytes, ri, rx) \
            + 3.0 * p * nbytes / config.unpack_bpus
    # scattered / pairwise: egress serialization dominates
    intra_peers = min(shape.ppn, p) - 1
    inter_peers = p - min(shape.ppn, p)
    beta_i = config.effective_beta(PathScope.INTRA, shape.intra.beta_bpus)
    if not shape.switched and shape.ppn > 2:
        beta_i /= (shape.ppn - 1)
    per_msg_sw = (config.send_overhead_us + config.recv_overhead_us
                  + config.tag_matching_us)
    t = (p - 1) * per_msg_sw + shape.intra.alpha_us * 2 \
        + intra_peers * nbytes / beta_i
    if inter_peers and shape.inter is not None:
        nic = config.effective_beta(PathScope.INTER, shape.inter.beta_bpus) \
            / max(1, shape.ppn)
        t += shape.inter.alpha_us + inter_peers * nbytes / nic
    if algo == "pairwise":
        scope = PathScope.INTER if shape.spans_nodes else PathScope.INTRA
        if nbytes > config.eager_threshold(scope):
            t += (p - 1) * 2.0 * (shape.intra.alpha_us + config.tag_matching_us)
    return t


@_memoized
def reduce_scatter_time(config: MPIConfig, shape: CommShape, nbytes: int,
                        algorithm: str = "") -> float:
    """MPI reduce_scatter_block producing ``nbytes`` per rank."""
    p = shape.p
    if p == 1:
        return 1.0
    steps = p - 1
    inter_steps = shape.nodes if shape.spans_nodes else 0
    t = _round_cost(config, shape, nbytes, steps - inter_steps, inter_steps)
    t += steps * reduce_compute(config, shape, nbytes)
    return t


@_memoized
def gather_time(config: MPIConfig, shape: CommShape, nbytes: int,
                algorithm: str = "") -> float:
    """MPI gather of ``nbytes`` per rank to one root."""
    p = shape.p
    if p == 1:
        return 1.0
    algo = algorithm or tuning.select("gather", nbytes, p)
    if algo == "binomial":
        t = 0.0
        have = 1
        while have < p:
            inter = shape.spans_nodes and have >= shape.ppn
            t += p2p_step(config, shape, have * nbytes, inter=inter)
            have *= 2
        return t
    # linear: root ingress serializes
    scope = PathScope.INTER if shape.spans_nodes else PathScope.INTRA
    link = shape.inter if shape.spans_nodes and shape.inter else shape.intra
    beta = config.effective_beta(scope, link.beta_bpus)
    return (p - 1) * (config.recv_overhead_us + config.tag_matching_us
                      + nbytes / beta) + link.alpha_us


@_memoized
def scatter_time(config: MPIConfig, shape: CommShape, nbytes: int,
                 algorithm: str = "") -> float:
    """MPI scatter (mirror of gather)."""
    return gather_time(config, shape, nbytes, algorithm)


def barrier_time(config: MPIConfig, shape: CommShape) -> float:
    """Dissemination barrier."""
    ri, rx = _split_rounds(shape, _log2ceil(shape.p))
    return _round_cost(config, shape, 0, ri, rx)


MODEL_FUNCS = {
    "allreduce": allreduce_time,
    "bcast": bcast_time,
    "reduce": reduce_time,
    "allgather": allgather_time,
    "alltoall": alltoall_time,
    "reduce_scatter": reduce_scatter_time,
    "gather": gather_time,
    "scatter": scatter_time,
}


def collective_time(config: MPIConfig, shape: CommShape, coll: str,
                    nbytes: int, algorithm: str = "") -> float:
    """Time of any modeled MPI collective by name."""
    try:
        fn = MODEL_FUNCS[coll]
    except KeyError:
        raise ConfigError(f"no MPI model for collective {coll!r}") from None
    return fn(config, shape, nbytes, algorithm)
