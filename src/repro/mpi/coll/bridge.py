"""Cross-vendor bridge collective executor (the ``hetero`` option).

A communicator spanning NVIDIA + AMD (+ Gaudi, + Intel) nodes cannot
run one xCCL collective: the vendors' CCLs share no rendezvous, and
per-rank capability answers diverge, which on a collective means
divergent routes and deadlock.  The HetCCL-style answer implemented
here decomposes the communicator into **vendor islands**:

* **Island-native collectives** — the ranks of each vendor run their
  island phase on a cached single-vendor sub-communicator driven by
  its own :class:`~repro.core.hybrid.HybridDispatcher`, so each island
  keeps its native xCCL route, plan caching, zero-copy views, tuning
  table, and tracing.
* **Host-staged leader hops** — island leaders (lowest comm rank per
  island) exchange island aggregates point-to-point over the parent
  communicator, staged through scratch buffers in the negotiated
  common wire format.  Hops always copy (zero-copy degrades to
  copying across the vendor boundary, never corrupts), and leaders
  fold remote aggregates in fixed island order 0..K-1, so results are
  deterministic and — for exact datatypes — bit-identical to the
  homogeneous flat routes.

Eligibility is decided from **pure-local facts** (the communicator's
group and the cluster's device placement — :func:`hetero_info`), so
every rank picks the same route; the capability questions are answered
once per communicator by the negotiated intersection descriptor
(:func:`negotiated_descriptor` / :mod:`repro.xccl.caps`), not per call
per backend.  Structurally this is the hier executor's level
decomposition with vendor islands as the level boundary; an island
that spans several nodes may itself re-enter the hierarchical route
on its (homogeneous) sub-communicator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import fastpath
from repro.hw.vendors import default_ccl_for
from repro.mpi.coll._util import is_inplace, materialize_input, seg
from repro.mpi.communicator import IN_PLACE

__all__ = [
    "BRIDGE_TUNING_KEYS", "EXECUTORS", "hetero_info", "is_hetero",
    "negotiated_descriptor", "topology",
]

#: tuning-table keys the route stage may hand to this executor; vector
#: siblings sharing a key (allgatherv) degrade to the MPI route.
BRIDGE_TUNING_KEYS = frozenset(
    {"allreduce", "bcast", "allgather", "reduce_scatter"})

#: parent-comm tag base for leader hops (island index is added), clear
#: of the small tags the flat algorithms use on sub-communicators.
_TAG = 0x7e70


# ---------------------------------------------------------------------------
# placement facts and negotiation
# ---------------------------------------------------------------------------

class HeteroInfo:
    """Pure-local vendor placement facts for one communicator.

    Derived from the group and the cluster without communication, so
    every rank computes the identical island decomposition.
    """

    __slots__ = ("hetero", "vendors", "islands", "my_island")

    def __init__(self, vendors, islands, my_island: int) -> None:
        #: distinct device vendors in the group, sorted by name — the
        #: canonical island order every rank agrees on
        self.vendors = vendors
        #: island index -> comm ranks on that vendor, ascending
        self.islands = islands
        self.my_island = my_island
        self.hetero = len(islands) >= 2


def hetero_info(comm) -> HeteroInfo:
    """Vendor placement facts for ``comm``, cached on the communicator."""
    cached = comm.routing_cache.get("bridge_info")
    if cached is not None:
        return cached
    ctx = comm.ctx
    by_vendor: Dict[object, List[int]] = {}
    for r, w in enumerate(comm.group):
        by_vendor.setdefault(ctx.device_of(w).vendor, []).append(r)
    vendors = tuple(sorted(by_vendor, key=lambda v: v.value))
    islands = tuple(tuple(by_vendor[v]) for v in vendors)
    mine = ctx.device.vendor
    my_island = vendors.index(mine) if mine in by_vendor else 0
    info = HeteroInfo(vendors, islands, my_island)
    comm.routing_cache["bridge_info"] = info
    return info


def is_hetero(comm) -> bool:
    """True when ``comm`` spans devices from more than one vendor."""
    return hetero_info(comm).hetero


def negotiated_descriptor(comm, info: Optional[HeteroInfo] = None):
    """The communicator's negotiated intersection descriptor, computed
    once at first routing and cached (pinned by the ``negotiations``
    counter, which rank 0 alone reports so it counts communicators,
    not ranks).

    Raises :class:`repro.errors.MPIXNegotiationError` — identically on
    every rank — when the islands' backends share no usable
    capability surface.
    """
    cached = comm.routing_cache.get("hetero_desc")
    if cached is not None:
        return cached
    from repro.xccl.caps import descriptor_for, negotiate
    if info is None:
        info = hetero_info(comm)
    desc = negotiate(descriptor_for(default_ccl_for(v))
                     for v in info.vendors)
    comm.routing_cache["hetero_desc"] = desc
    if comm.rank == 0:
        fastpath.STATS.note_negotiation()
    return desc


# ---------------------------------------------------------------------------
# island sub-communicators
# ---------------------------------------------------------------------------

def topology(pipeline, comm):
    """This rank's single-vendor island sub-communicator of ``comm``,
    built on first use and cached; freed by ``Comm_free``.  Its rank 0
    (the lowest parent rank of the island) is the island leader.

    One ``Split`` colored by island index builds every island at once;
    each island comm gets its own
    :class:`~repro.core.hybrid.HybridDispatcher` sharing the parent
    pipeline's abstraction layer, so (homogeneous) island collectives
    route through their native CCL exactly like top-level ones.
    """
    island = comm.routing_cache.get("bridge_island")
    if island is None:
        from repro.core.hybrid import HybridDispatcher  # local: avoid cycle
        island = comm.Split(color=hetero_info(comm).my_island, key=comm.rank)
        island.coll = HybridDispatcher(pipeline.layer, pipeline.mode)
        comm.routing_cache["bridge_island"] = island
    return island


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _span(ctx, t0: float, label: str, nbytes: int = 0) -> None:
    """One ``bridge`` span; skipped when the phase was free (the trace
    validator rejects zero-duration complete events)."""
    if ctx.trace.enabled and ctx.now > t0:
        ctx.trace.record("bridge", t0, ctx.now, nbytes=nbytes, label=label)


# ---------------------------------------------------------------------------
# leader hops
# ---------------------------------------------------------------------------

def _host_wire(ctx, ref, count: int):
    """A fresh *host* scratch buffer in the wire dtype of ``ref``.

    The wire format is host-resident by definition: no GPU-direct
    transport spans two vendors, so hop payloads travel as plain host
    memory and the endpoint charges no extra device staging on them
    (the bridge pays its D2H/H2D copies explicitly, exactly once)."""
    import numpy as np
    from repro.hw.memory import as_array
    return np.empty(count, dtype=as_array(ref).dtype)


def _stage(ctx, ref, src, count: int):
    """Host-stage ``count`` elements of ``src`` into a fresh wire
    buffer.  The bridge always copies across the vendor boundary —
    zero-copy views never cross it — which is what keeps foreign reads
    safe no matter which island mutates its native buffer next."""
    from repro.mpi.compute import local_copy
    wire = _host_wire(ctx, ref, count)
    local_copy(ctx, wire, seg(src, 0, count))
    return wire


def _exchange_pairwise(comm, info: HeteroInfo, wire, scratch_for, count: int,
                       dt, rail: int = 0) -> Tuple[Dict[int, object], int]:
    """Swap one staged aggregate with the peer rank of every other
    island over the parent comm — ``Sendrecv`` per pair, so both wire
    directions share the duplex link instead of serializing.  ``rail``
    selects the peer within each remote island (0 = the leader).
    Returns the received buffers keyed by island index, and the hop
    (message) count."""
    k = info.my_island
    remote: Dict[int, object] = {}
    hops = 0
    for j in range(len(info.islands)):
        if j == k:
            continue
        peer = info.islands[j][rail]
        scratch = scratch_for(j)
        comm.Sendrecv(wire, peer, scratch, peer,
                      sendtag=_TAG + k, recvtag=_TAG + j, datatype=dt)
        remote[j] = scratch
        hops += 1
    return remote, hops


def _fold_leaders(comm, island, info: HeteroInfo, buf, count: int, dt, op,
                  label: str) -> None:
    """Leaders-only reduction hop: exchange host-staged island
    aggregates pairwise, then fold them in fixed island order 0..K-1 —
    every leader applies ``op`` in the same association order, so the
    folded value is identical everywhere (and bit-identical to any
    other order for exact datatypes).

    The fold runs *device-side* (priced with the island's GPU-aware
    config): unlike a non-GPU-aware MPI, the bridge knows its vendor
    and re-devices each remote wire buffer to feed a native reduction
    kernel — host arithmetic never touches the hot path."""
    ctx = comm.ctx
    t0 = ctx.now
    wire = _stage(ctx, buf, buf, count)
    remote, hops = _exchange_pairwise(
        comm, info, wire, lambda j: _host_wire(ctx, buf, count), count, dt)
    acc = _fold_ordered(ctx, island, info, seg(buf, 0, count), remote,
                        buf, count, op)
    from repro.mpi.compute import local_copy
    local_copy(ctx, seg(buf, 0, count), acc)
    fastpath.STATS.note_bridge(hops)
    _span(ctx, t0, label, count * dt.itemsize * hops)


def _fold_ordered(ctx, island, info: HeteroInfo, own, remote, ref,
                  count: int, op):
    """Fold own + remote island aggregates in fixed island order
    0..K-1 into a fresh device accumulator (see :func:`_fold_leaders`
    for why the order and the device residency matter)."""
    from repro.mpi.compute import alloc_like, apply_reduce, local_copy
    acc = alloc_like(ctx, ref, count)
    scratch = alloc_like(ctx, ref, count)
    for j in range(len(info.islands)):
        if j == info.my_island:
            operand = own  # own aggregate, still on device
        else:
            local_copy(ctx, scratch, remote[j])  # re-device the wire bytes
            operand = scratch
        if j == 0:
            local_copy(ctx, acc, operand)
        else:
            apply_reduce(ctx, island.config, op, acc, operand)
    return acc


# ---------------------------------------------------------------------------
# the executors
# ---------------------------------------------------------------------------

def bridge_allreduce(pipeline, call) -> None:
    """Equal-size islands ride the *rail* decomposition: native island
    reduce-scatter -> every rank swaps its block with its counterpart
    ("rail mate") in each remote island -> per-block ordered fold ->
    native island allgather.  The hop is spread over every rank and
    NIC instead of funnelling through one leader pair, and the island
    phases are the cheap bandwidth-optimal pair (RS+AG, ~2n/m per
    rank) rather than reduce+bcast (~2n).  Unequal islands (no rail
    mates) or blocks that don't divide fall back to island
    allreduce-to-leader -> leader fold hop -> native island fan-out."""
    comm, dt, op, count = call.comm, call.dt, call.op, call.count
    recvbuf = call.recvbuf
    ctx = comm.ctx
    info = hetero_info(comm)
    island = topology(pipeline, comm)
    vendor = info.vendors[info.my_island].value
    nb = dt.itemsize
    materialize_input(comm, call.sendbuf, recvbuf, count)
    m = island.size
    if (m > 1 and count % m == 0
            and all(len(r) == m for r in info.islands)):
        _rail_allreduce(comm, island, info, recvbuf, count, dt, op, vendor)
        return
    t0 = ctx.now
    if island.size > 1:
        island.Reduce(IN_PLACE, seg(recvbuf, 0, count), op, root=0,
                      count=count, datatype=dt)
    _span(ctx, t0, f"bridge:allreduce:island:{vendor}", count * nb)
    if island.rank == 0:
        _fold_leaders(comm, island, info, recvbuf, count, dt, op,
                      "bridge:allreduce:hop")
    t0 = ctx.now
    if island.size > 1:
        island.Bcast(seg(recvbuf, 0, count), root=0, count=count,
                     datatype=dt)
    _span(ctx, t0, f"bridge:allreduce:island:{vendor}:fanout", count * nb)


def _rail_allreduce(comm, island, info: HeteroInfo, recvbuf, count: int,
                    dt, op, vendor: str) -> None:
    """The equal-island allreduce decomposition (see
    :func:`bridge_allreduce`).  Every rank ends up folding its block in
    the same fixed island order, and the blocks each rank re-gathers
    were folded identically on every rail — so the result is
    deterministic and, for exact datatypes, independent of which rail
    carried which block."""
    from repro.mpi.compute import alloc_like, local_copy
    ctx = comm.ctx
    m = island.size
    block = count // m
    nb = dt.itemsize

    # phase 1: native island reduce-scatter — this rank now owns one
    # block of the island aggregate
    t0 = ctx.now
    mine = alloc_like(ctx, recvbuf, block)
    island.Reduce_scatter_block(seg(recvbuf, 0, count), mine, op,
                                count=block, datatype=dt)
    _span(ctx, t0, f"bridge:allreduce:island:{vendor}", count * nb)

    # phase 2: swap the block with the rail mates (host-staged wire,
    # duplex), then fold in island order on the device
    t0 = ctx.now
    wire = _stage(ctx, recvbuf, mine, block)
    remote, hops = _exchange_pairwise(
        comm, info, wire, lambda j: _host_wire(ctx, recvbuf, block),
        block, dt, rail=island.rank)
    acc = _fold_ordered(ctx, island, info, mine, remote, recvbuf, block, op)
    fastpath.STATS.note_bridge(hops)
    _span(ctx, t0, "bridge:allreduce:hop", block * nb * hops)

    # phase 3: native island allgather re-assembles the folded blocks
    t0 = ctx.now
    island.Allgather(acc, seg(recvbuf, 0, count), count=block, datatype=dt)
    _span(ctx, t0, f"bridge:allreduce:island:{vendor}:fanout", count * nb)


def bridge_bcast(pipeline, call) -> None:
    """root hands the payload to the other island leaders (host-staged
    hops) -> native island broadcasts."""
    comm, dt, count = call.comm, call.dt, call.count
    buf = call.recvbuf
    ctx = comm.ctx
    info = hetero_info(comm)
    island = topology(pipeline, comm)
    vendor = info.vendors[info.my_island].value
    root_island = next(j for j, ranks in enumerate(info.islands)
                       if call.root in ranks)
    t0 = ctx.now
    if comm.rank == call.root:
        wire = _stage(ctx, buf, buf, count)
        hops = 0
        for j in range(len(info.islands)):
            if j == root_island:
                continue
            comm.Send(wire, info.islands[j][0], tag=_TAG + j,
                      count=count, datatype=dt)
            hops += 1
        fastpath.STATS.note_bridge(hops)
    elif island.rank == 0 and info.my_island != root_island:
        comm.Recv(seg(buf, 0, count), source=call.root,
                  tag=_TAG + info.my_island, count=count, datatype=dt)
    _span(ctx, t0, "bridge:bcast:hop", count * dt.itemsize)
    t0 = ctx.now
    if island.size > 1:
        local_root = (info.islands[root_island].index(call.root)
                      if info.my_island == root_island else 0)
        island.Bcast(seg(buf, 0, count), root=local_root, count=count,
                     datatype=dt)
    _span(ctx, t0, f"bridge:bcast:island:{vendor}", count * dt.itemsize)


def bridge_allgather(pipeline, call) -> None:
    """native island allgather -> leaders swap island aggregates ->
    native island fan-out of the foreign aggregates -> reassemble into
    comm-rank slots."""
    from repro.mpi.compute import alloc_like, local_copy
    comm, dt, count = call.comm, call.dt, call.count
    recvbuf = call.recvbuf
    ctx = comm.ctx
    info = hetero_info(comm)
    island = topology(pipeline, comm)
    vendor = info.vendors[info.my_island].value
    k = info.my_island
    nb = dt.itemsize
    if is_inplace(call.sendbuf):
        contrib = seg(recvbuf, comm.rank * count, count)
    else:
        contrib = seg(call.sendbuf, 0, count)

    # phase 1: native allgather of the island's contributions
    t0 = ctx.now
    agg = alloc_like(ctx, recvbuf, len(info.islands[k]) * count)
    if island.size > 1:
        island.Allgather(contrib, agg, count=count, datatype=dt)
    else:
        local_copy(ctx, agg, contrib)
    _span(ctx, t0, f"bridge:allgather:island:{vendor}",
          len(info.islands[k]) * count * nb)

    # phase 2: leaders swap island aggregates (sizes differ per island,
    # so the pairwise helper can't be reused verbatim)
    aggs: Dict[int, object] = {k: agg}
    t0 = ctx.now
    if island.rank == 0:
        wire = _stage(ctx, recvbuf, agg, len(info.islands[k]) * count)
        hops = 0
        for j in range(len(info.islands)):
            if j == k:
                continue
            peer = info.islands[j][0]
            scratch = alloc_like(ctx, recvbuf, len(info.islands[j]) * count)
            if k < j:
                comm.Send(wire, peer, tag=_TAG + k,
                          count=len(info.islands[k]) * count, datatype=dt)
                comm.Recv(scratch, source=peer, tag=_TAG + j,
                          count=len(info.islands[j]) * count, datatype=dt)
            else:
                comm.Recv(scratch, source=peer, tag=_TAG + j,
                          count=len(info.islands[j]) * count, datatype=dt)
                comm.Send(wire, peer, tag=_TAG + k,
                          count=len(info.islands[k]) * count, datatype=dt)
            aggs[j] = scratch
            hops += 1
        fastpath.STATS.note_bridge(hops)
        _span(ctx, t0, "bridge:allgather:hop",
              (comm.size - len(info.islands[k])) * count * nb)

    # phase 3: leaders fan the foreign aggregates out natively
    t0 = ctx.now
    if island.size > 1:
        for j in range(len(info.islands)):
            if j == k:
                continue
            if island.rank != 0:
                aggs[j] = alloc_like(ctx, recvbuf,
                                     len(info.islands[j]) * count)
            island.Bcast(aggs[j], root=0,
                         count=len(info.islands[j]) * count, datatype=dt)
        _span(ctx, t0, f"bridge:allgather:island:{vendor}:fanout",
              (comm.size - len(info.islands[k])) * count * nb)

    # phase 4: copy every island aggregate into its comm-rank slots
    for j in range(len(info.islands)):
        for i, r in enumerate(info.islands[j]):
            local_copy(ctx, seg(recvbuf, r * count, count),
                       seg(aggs[j], i * count, count))


def bridge_reduce_scatter_block(pipeline, call) -> None:
    """native island reduce of the full vector to the leader -> leader
    fold hop -> native island fan-out -> copy out the own block."""
    from repro.mpi.compute import alloc_like, local_copy
    comm, dt, op, count = call.comm, call.dt, call.op, call.count
    recvbuf = call.recvbuf
    ctx = comm.ctx
    info = hetero_info(comm)
    island = topology(pipeline, comm)
    vendor = info.vendors[info.my_island].value
    nb = dt.itemsize
    total = comm.size * count
    contrib = recvbuf if is_inplace(call.sendbuf) else call.sendbuf
    staging = alloc_like(ctx, recvbuf, total)
    local_copy(ctx, staging, seg(contrib, 0, total))
    t0 = ctx.now
    if island.size > 1:
        island.Reduce(IN_PLACE, staging, op, root=0, count=total,
                      datatype=dt)
    _span(ctx, t0, f"bridge:reduce_scatter:island:{vendor}", total * nb)
    if island.rank == 0:
        _fold_leaders(comm, island, info, staging, total, dt, op,
                      "bridge:reduce_scatter:hop")
    t0 = ctx.now
    if island.size > 1:
        island.Bcast(staging, root=0, count=total, datatype=dt)
    _span(ctx, t0, f"bridge:reduce_scatter:island:{vendor}:fanout",
          total * nb)
    local_copy(ctx, seg(recvbuf, 0, count),
               seg(staging, comm.rank * count, count))


#: execute-stage dispatch: CollectiveCall.coll -> executor.  Vector
#: forms sharing a tuning key (allgatherv) are absent on purpose — the
#: execute stage degrades them to the MPI route.
EXECUTORS = {
    "allreduce": bridge_allreduce,
    "bcast": bridge_bcast,
    "allgather": bridge_allgather,
    "reduce_scatter_block": bridge_reduce_scatter_block,
}
