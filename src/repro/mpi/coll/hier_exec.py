"""Pipelined hierarchical collective executor (the ``hier_pipe`` option).

The node-leader helpers in :mod:`repro.mpi.coll.hierarchical` are
whole-message and two-level: the inter-node phase serializes behind the
full intra-node reduce, and a single leader per node funnels all fabric
traffic through one NIC.  This module is the HiCCL-style generalization
the multi-node results need:

* **Level decomposition** — each collective becomes per-level plans:
  intra-node collectives on a cached node-local sub-communicator
  (cheap NVSwitch/PCIe hops), an inter-node phase over *stripe*
  sub-communicators (one member per node), and an intra-node fan-out.
* **Chunk pipelining** — payloads split into ``nstripes x depth``
  contiguous chunks (:data:`DEPTH` rounds per stripe) that
  move through the levels in rounds, so a stripe leader's inter-node
  round overlaps the other leaders' rounds and the next round's
  intra-node work.
* **NIC striping** — chunk ``i`` is owned by node-local rank
  ``i % nstripes`` (round-robin leader assignment), and
  ``nstripes = min(min ranks-per-node, min NICs-per-node)``, so on a
  multi-rail system (:class:`repro.hw.node.Node` ``nics``) each
  stripe's fabric traffic leaves through its own NIC channel and the
  inter-node phases run in parallel.

The executor is a *route* of the staged dispatch pipeline
(:mod:`repro.core.dispatch` chooses :data:`repro.core.fallback.Route`
``HIER`` when the engine's ``hier_pipe`` option is on): the per-level
collectives run on sub-communicators driven by their own
:class:`~repro.core.hybrid.HybridDispatcher`, so plan caching,
zero-copy views, tracing, and the tuning table's flat-vs-hierarchical
crossover all compose per level.  Payloads are bit-identical to the
flat routes for exact datatypes; virtual times change by design — that
is the optimization.  Sub-communicators never re-enter this executor:
node-local comms span one node and stripe comms have one rank per
node, so neither is hierarchy-eligible.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import fastpath
from repro.mpi.coll._util import chunk_bounds, is_inplace, materialize_input, seg
from repro.mpi.communicator import IN_PLACE

__all__ = [
    "DEPTH", "EXECUTORS", "HIER_TUNING_KEYS", "MIN_BYTES",
    "MIN_BYTES_DEFAULT", "hier_eligible", "hier_info", "topology",
]

#: tuning-table keys the route stage may hand to this executor.  The
#: vector siblings (allgatherv) share their uniform key; the execute
#: stage degrades them back to the flat route (no entry in EXECUTORS).
HIER_TUNING_KEYS = frozenset(
    {"allreduce", "bcast", "allgather", "reduce_scatter"})


#: per-collective flat/hier crossovers measured on an 8-node x 8-GPU
#: sweep: hierarchy engages at/above this routing byte count, below it
#: the per-level launch latencies dominate and the flat routes win.
#: Reduction collectives cross between 1 and 2 MiB.  Broadcast
#: crosses an order of magnitude later: its flat binomial tree moves
#: each byte once per inter-node hop, so the hierarchy's extra
#: intra-node scatter/allgather launches only pay off at 16 MiB+.
MIN_BYTES = {"bcast": 16 << 20}
MIN_BYTES_DEFAULT = 2 << 20

#: pipeline depth: chunk rounds per stripe, so a payload splits into
#: ``nstripes * DEPTH`` chunks.
DEPTH = 2


# ---------------------------------------------------------------------------
# topology facts and sub-communicators
# ---------------------------------------------------------------------------

class HierInfo:
    """Pure-local placement facts for one communicator.

    Computed from the group and the cluster without communication —
    every rank derives the identical answer, so routing on it keeps
    the collective call sequence consistent.
    """

    __slots__ = ("eligible", "nstripes", "my_node", "members_by_node")

    def __init__(self, eligible: bool, nstripes: int, my_node: int,
                 members_by_node: Dict[int, List[int]]) -> None:
        self.eligible = eligible
        self.nstripes = nstripes
        self.my_node = my_node
        #: node index -> comm ranks on that node, ascending (the order
        #: a key=comm.rank Split assigns node-local ranks).
        self.members_by_node = members_by_node


def hier_info(comm) -> HierInfo:
    """Placement facts for ``comm``, cached on the communicator."""
    cached = comm.routing_cache.get("hier_info")
    if cached is not None:
        return cached
    cluster = comm.ctx.cluster
    members: Dict[int, List[int]] = {}
    for r, w in enumerate(comm.group):
        node = cluster.node_index_of(comm.ctx.device_of(w))
        members.setdefault(node, []).append(r)
    my_node = cluster.node_index_of(comm.ctx.device)
    eligible = len(members) >= 2 and comm.size > len(members)
    if eligible:
        nstripes = min(min(len(v) for v in members.values()),
                       min(cluster.nodes[n].nics for n in members))
    else:
        nstripes = 1
    info = HierInfo(eligible, max(1, nstripes), my_node, members)
    comm.routing_cache["hier_info"] = info
    return info


def hier_eligible(comm) -> bool:
    """True when ``comm`` spans >= 2 nodes with at least one
    multi-rank node — the shapes where level decomposition can win."""
    return hier_info(comm).eligible


class HierTopology:
    """Cached sub-communicators for one hierarchy-eligible comm."""

    __slots__ = ("local", "stripe", "stripe_index", "nstripes")

    def __init__(self, local, stripe, stripe_index: Optional[int],
                 nstripes: int) -> None:
        #: node-local sub-communicator (all ranks have one)
        self.local = local
        #: this rank's stripe comm (one member per node), or None when
        #: the rank's node-local rank >= nstripes
        self.stripe = stripe
        self.stripe_index = stripe_index
        self.nstripes = nstripes


def topology(pipeline, comm) -> HierTopology:
    """The (node-local, stripe) sub-communicators for ``comm``, built
    on first use and cached; freed by ``Comm_free``.

    Two ``Split`` calls build the whole hierarchy: one for the
    node-local comms, one whose color is the node-local rank (for
    ranks below the stripe count) so stripe ``s`` collects node-local
    rank ``s`` of every node.  Sub-comms get their own
    :class:`~repro.core.hybrid.HybridDispatcher` sharing the parent
    pipeline's abstraction layer, so per-level collectives route
    through CCL/tuning exactly like top-level ones.
    """
    cache = comm.routing_cache
    cached = cache.get("hier_topo")
    if cached is not None:
        return cached
    from repro.core.hybrid import HybridDispatcher  # local: avoid cycle
    info = hier_info(comm)
    L = info.nstripes
    local = comm.Split(color=info.my_node, key=comm.rank)
    local.coll = HybridDispatcher(pipeline.layer, pipeline.mode)
    color = local.rank if local.rank < L else -1
    stripe = comm.Split(color=color, key=comm.rank)
    if stripe is not None:
        stripe.coll = HybridDispatcher(pipeline.layer, pipeline.mode)
    topo = HierTopology(local, stripe,
                        local.rank if stripe is not None else None, L)
    cache["hier_topo"] = topo
    cache["hier_local"] = local
    if stripe is not None:
        cache["hier_stripe"] = stripe
    return topo


# ---------------------------------------------------------------------------
# per-level tracing
# ---------------------------------------------------------------------------

def _span(ctx, t0: float, label: str, nbytes: int = 0) -> None:
    """One per-level ``hier`` span; skipped when the level was free
    (the trace validator rejects zero-duration complete events)."""
    if ctx.trace.enabled and ctx.now > t0:
        ctx.trace.record("hier", t0, ctx.now, nbytes=nbytes, label=label)


# ---------------------------------------------------------------------------
# the executors
# ---------------------------------------------------------------------------

def _aligned(info: HierInfo, count: int, depth: int) -> bool:
    """True for the uniform shapes where the low-launch-count schedule
    applies: every node holds the same rank count ``P``, stripe owners
    carry ``P / nstripes`` whole shards each, and the payload splits
    into equal per-rank blocks."""
    L = info.nstripes
    sizes = {len(v) for v in info.members_by_node.values()}
    if len(sizes) != 1:
        return False
    p = sizes.pop()
    return p % L == 0 and count % (depth * p) == 0


def hier_allreduce(pipeline, call) -> None:
    """reduce-to-stripe-owners -> striped inter allreduce -> fan-out,
    in ``depth`` pipelined chunk rounds.

    Uniform shapes take the aligned schedule — per round, one
    intra-node reduce_scatter (local rank ``i`` ends with the node sum
    of block ``i``), ``nstripes`` parallel inter-node allreduces (one
    per NIC rail), one intra-node allgather — three collective
    launches a round instead of ``2 * nstripes``.  Irregular shapes
    fall back to per-chunk reduce/bcast to the stripe owners.
    """
    comm, dt, op, count = call.comm, call.dt, call.op, call.count
    recvbuf = call.recvbuf
    ctx = comm.ctx
    topo = topology(pipeline, comm)
    info = hier_info(comm)
    L = topo.nstripes
    depth = DEPTH
    materialize_input(comm, call.sendbuf, recvbuf, count)
    nb = dt.itemsize
    stripe_ops = 0
    if _aligned(info, count, depth):
        p = topo.local.size
        lr = topo.local.rank
        chunk = count // depth
        block = chunk // p
        for r in range(depth):
            coff = r * chunk
            mine = coff + lr * block
            t0 = ctx.now
            topo.local.Reduce_scatter_block(
                seg(recvbuf, coff, chunk), seg(recvbuf, mine, block), op,
                count=block, datatype=dt)
            _span(ctx, t0, "hier:allreduce:intra:reduce_scatter", chunk * nb)
            t0 = ctx.now
            if topo.stripe is None:
                # forward the node shard to this block's stripe owner;
                # take the globally reduced shard back afterwards
                topo.local.Send(seg(recvbuf, mine, block), lr % L, tag=lr,
                                count=block, datatype=dt)
                topo.local.Recv(seg(recvbuf, mine, block), source=lr % L,
                                tag=p + lr, count=block, datatype=dt)
            else:
                for j in range(lr + L, p, L):
                    topo.local.Recv(seg(recvbuf, coff + j * block, block),
                                    source=j, tag=j, count=block,
                                    datatype=dt)
                for j in range(lr, p, L):
                    topo.stripe.Allreduce(
                        IN_PLACE, seg(recvbuf, coff + j * block, block),
                        op, count=block, datatype=dt)
                    stripe_ops += 1
                for j in range(lr + L, p, L):
                    topo.local.Send(seg(recvbuf, coff + j * block, block),
                                    j, tag=p + j, count=block, datatype=dt)
            _span(ctx, t0, "hier:allreduce:inter", (p // L) * block * nb)
            t0 = ctx.now
            topo.local.Allgather(IN_PLACE, seg(recvbuf, coff, chunk),
                                 count=block, datatype=dt)
            _span(ctx, t0, "hier:allreduce:intra:allgather", chunk * nb)
        fastpath.STATS.note_hier(depth * p, stripe_ops)
        return
    nchunks = max(1, min(L * depth, count))
    bounds = chunk_bounds(count, nchunks)
    for r0 in range(0, nchunks, L):
        round_bounds = bounds[r0:r0 + L]
        t0 = ctx.now
        if topo.local.size > 1:
            for s, (off, sz) in enumerate(round_bounds):
                topo.local.Reduce(IN_PLACE, seg(recvbuf, off, sz), op,
                                  root=s, count=sz, datatype=dt)
        _span(ctx, t0, "hier:allreduce:intra:reduce",
              sum(sz for _, sz in round_bounds) * nb)
        t0 = ctx.now
        if topo.stripe is not None and r0 + topo.stripe_index < nchunks:
            off, sz = bounds[r0 + topo.stripe_index]
            topo.stripe.Allreduce(IN_PLACE, seg(recvbuf, off, sz), op,
                                  count=sz, datatype=dt)
            stripe_ops += 1
            _span(ctx, t0, "hier:allreduce:inter", sz * nb)
    t0 = ctx.now
    if topo.local.size > 1:
        for ci, (off, sz) in enumerate(bounds):
            topo.local.Bcast(seg(recvbuf, off, sz), root=ci % L,
                             count=sz, datatype=dt)
    _span(ctx, t0, "hier:allreduce:intra:bcast", count * nb)
    fastpath.STATS.note_hier(nchunks, stripe_ops)


def hier_bcast(pipeline, call) -> None:
    """root scatters chunks to its node's stripe owners -> each stripe
    broadcasts its chunks across nodes -> owners fan out locally.

    The aligned schedule fans out with one intra-node allgather per
    round (block ``i`` sits at local rank ``i``'s in-place slot)
    instead of ``nstripes`` per-chunk broadcasts; the root-side
    scatter stays point-to-point (priced per transfer, no collective
    launch).
    """
    comm, dt, count = call.comm, call.dt, call.count
    buf = call.recvbuf
    ctx = comm.ctx
    topo = topology(pipeline, comm)
    info = hier_info(comm)
    L = topo.nstripes
    depth = DEPTH
    cluster = ctx.cluster
    root_world = comm.world_rank(call.root)
    root_node = cluster.node_index_of(ctx.device_of(root_world))
    nb = dt.itemsize
    if _aligned(info, count, depth):
        p = topo.local.size
        lr = topo.local.rank
        sroot = 0
        if topo.stripe is not None:
            for i, w in enumerate(topo.stripe.group):
                if cluster.node_index_of(ctx.device_of(w)) == root_node:
                    sroot = i
                    break
        root_local = topo.local.group.index(root_world) \
            if info.my_node == root_node else -1
        chunk = count // depth
        block = chunk // p
        stripe_ops = 0
        for r in range(depth):
            coff = r * chunk
            t0 = ctx.now
            if info.my_node == root_node:
                # root hands each block to its stripe owner (blocks the
                # root itself owns stay put)
                for j in range(p):
                    o = j % L
                    if o == root_local:
                        continue
                    if lr == root_local:
                        topo.local.Send(seg(buf, coff + j * block, block),
                                        o, tag=j, count=block, datatype=dt)
                    elif lr == o:
                        topo.local.Recv(seg(buf, coff + j * block, block),
                                        source=root_local, tag=j,
                                        count=block, datatype=dt)
            _span(ctx, t0, "hier:bcast:intra:scatter", chunk * nb)
            t0 = ctx.now
            if topo.stripe is not None:
                for j in range(lr, p, L):
                    topo.stripe.Bcast(seg(buf, coff + j * block, block),
                                      root=sroot, count=block, datatype=dt)
                    stripe_ops += 1
                # hand each forwarded block to its home rank
                for j in range(lr + L, p, L):
                    topo.local.Send(seg(buf, coff + j * block, block),
                                    j, tag=p + j, count=block, datatype=dt)
            else:
                topo.local.Recv(seg(buf, coff + lr * block, block),
                                source=lr % L, tag=p + lr, count=block,
                                datatype=dt)
            _span(ctx, t0, "hier:bcast:inter", (p // L) * block * nb)
            t0 = ctx.now
            topo.local.Allgather(IN_PLACE, seg(buf, coff, chunk),
                                 count=block, datatype=dt)
            _span(ctx, t0, "hier:bcast:intra:fanout", chunk * nb)
        fastpath.STATS.note_hier(depth * p, stripe_ops)
        return
    nchunks = max(1, min(L * depth, count))
    bounds = chunk_bounds(count, nchunks)
    nb = dt.itemsize
    stripe_ops = 0
    t0 = ctx.now
    if info.my_node == root_node and topo.local.size > 1:
        root_local = topo.local.group.index(root_world)
        for ci, (off, sz) in enumerate(bounds):
            s = ci % L
            if s == root_local:
                continue
            if topo.local.rank == root_local:
                topo.local.Send(seg(buf, off, sz), s, tag=ci,
                                count=sz, datatype=dt)
            elif topo.local.rank == s:
                topo.local.Recv(seg(buf, off, sz), source=root_local,
                                tag=ci, count=sz, datatype=dt)
    _span(ctx, t0, "hier:bcast:intra:scatter", count * nb)
    t0 = ctx.now
    if topo.stripe is not None:
        sroot = 0
        for i, w in enumerate(topo.stripe.group):
            if cluster.node_index_of(ctx.device_of(w)) == root_node:
                sroot = i
                break
        for ci in range(topo.stripe_index, nchunks, L):
            off, sz = bounds[ci]
            topo.stripe.Bcast(seg(buf, off, sz), root=sroot,
                              count=sz, datatype=dt)
            stripe_ops += 1
        _span(ctx, t0, "hier:bcast:inter", count * nb)
    t0 = ctx.now
    if topo.local.size > 1:
        for ci, (off, sz) in enumerate(bounds):
            topo.local.Bcast(seg(buf, off, sz), root=ci % L,
                             count=sz, datatype=dt)
    _span(ctx, t0, "hier:bcast:intra:fanout", count * nb)
    fastpath.STATS.note_hier(nchunks, stripe_ops)


def hier_allgather(pipeline, call) -> None:
    """contributions funnel to stripe owners -> striped inter
    allgatherv of the node aggregates -> intra fan-out -> reassemble
    into comm-rank order."""
    from repro.mpi.compute import alloc_like, local_copy
    comm, dt, count = call.comm, call.dt, call.count
    recvbuf = call.recvbuf
    ctx = comm.ctx
    topo = topology(pipeline, comm)
    info = hier_info(comm)
    L = topo.nstripes
    local = topo.local
    nb = dt.itemsize
    if is_inplace(call.sendbuf):
        contrib = seg(recvbuf, comm.rank * count, count)
    else:
        contrib = seg(call.sendbuf, 0, count)

    # phase 1: funnel each contribution to its stripe owner (node-local
    # rank i -> owner i % L), owners pack them in local-rank order
    t0 = ctx.now
    staging = None
    if topo.stripe is not None:
        mine = list(range(topo.stripe_index, local.size, L))
        staging = alloc_like(ctx, recvbuf, len(mine) * count)
    for i in range(local.size):
        owner = i % L
        if i == local.rank:
            if owner == local.rank:
                slot = mine.index(i)
                local_copy(ctx, seg(staging, slot * count, count), contrib)
            else:
                local.Send(contrib, owner, tag=i, count=count, datatype=dt)
        elif owner == local.rank:
            slot = mine.index(i)
            local.Recv(seg(staging, slot * count, count), source=i, tag=i,
                       count=count, datatype=dt)
    _span(ctx, t0, "hier:allgather:intra:gather", count * nb)

    # phase 2: each stripe allgathers its per-node aggregates; node
    # order and counts are derived locally so every rank lays the
    # gathered buffers out identically
    t0 = ctx.now
    gathered = []
    stripe_ops = 0
    for s in range(L):
        nodes_s = sorted(info.members_by_node,
                         key=lambda n: info.members_by_node[n][s])
        counts_s = [len(range(s, len(info.members_by_node[n]), L)) * count
                    for n in nodes_s]
        g = alloc_like(ctx, recvbuf, sum(counts_s))
        gathered.append((g, nodes_s, counts_s))
        if topo.stripe is not None and s == topo.stripe_index:
            topo.stripe.Allgatherv(staging, g, counts_s, datatype=dt)
            stripe_ops += 1
    _span(ctx, t0, "hier:allgather:inter", comm.size * count * nb)

    # phase 3: owners share their gathered aggregate inside the node;
    # when every local rank owns a stripe, a single allgatherv over
    # the per-owner aggregates replaces the per-owner broadcasts
    t0 = ctx.now
    if local.size > 1:
        sizes = [sum(c) for _, _, c in gathered]
        if local.size == L:
            allg = alloc_like(ctx, recvbuf, sum(sizes))
            local.Allgatherv(gathered[local.rank][0], allg, sizes,
                             datatype=dt)
            goff = 0
            for s in range(L):
                g, nodes_s, counts_s = gathered[s]
                gathered[s] = (seg(allg, goff, sizes[s]), nodes_s, counts_s)
                goff += sizes[s]
        else:
            for s in range(L):
                g, _, counts_s = gathered[s]
                local.Bcast(g, root=s, count=sum(counts_s), datatype=dt)
    _span(ctx, t0, "hier:allgather:intra:fanout", comm.size * count * nb)

    # phase 4: scatter every contribution to its comm-rank slot
    t0 = ctx.now
    for s in range(L):
        g, nodes_s, _ = gathered[s]
        goff = 0
        for n in nodes_s:
            node_members = info.members_by_node[n]
            for i in range(s, len(node_members), L):
                r = node_members[i]
                local_copy(ctx, seg(recvbuf, r * count, count),
                           seg(g, goff, count))
                goff += count
    _span(ctx, t0, "hier:allgather:reassemble", comm.size * count * nb)
    fastpath.STATS.note_hier(L, stripe_ops)


def hier_reduce_scatter_block(pipeline, call) -> None:
    """chunked intra reduce to stripe owners -> striped inter
    allreduce -> intra fan-out -> copy out the own block.

    Uniform shapes use one intra reduce_scatter, then deliver each
    local peer's output slice point-to-point from the block that holds
    it — two collective launches instead of ``2 * nstripes + 1``.
    """
    from repro.mpi.compute import alloc_like, local_copy
    comm, dt, op, count = call.comm, call.dt, call.op, call.count
    recvbuf = call.recvbuf
    ctx = comm.ctx
    topo = topology(pipeline, comm)
    info = hier_info(comm)
    L = topo.nstripes
    local = topo.local
    nb = dt.itemsize
    total = comm.size * count
    contrib = recvbuf if is_inplace(call.sendbuf) else call.sendbuf
    staging = alloc_like(ctx, recvbuf, total)
    if local.size > 1 and local.size == L and _aligned(info, total, 1):
        # every local rank owns a stripe; block = nodes * count, so
        # every rank's output slice sits wholly inside one owner's block
        block = total // L
        t0 = ctx.now
        local.Reduce_scatter_block(
            seg(contrib, 0, total), seg(staging, local.rank * block, block),
            op, count=block, datatype=dt)
        _span(ctx, t0, "hier:reduce_scatter:intra:reduce_scatter", total * nb)
        t0 = ctx.now
        topo.stripe.Allreduce(
            IN_PLACE, seg(staging, local.rank * block, block), op,
            count=block, datatype=dt)
        _span(ctx, t0, "hier:reduce_scatter:inter", block * nb)
        t0 = ctx.now
        members = info.members_by_node[info.my_node]
        for i, r in enumerate(members):
            owner = (r * count) // block
            if owner == i:
                if i == local.rank:
                    local_copy(ctx, seg(recvbuf, 0, count),
                               seg(staging, r * count, count))
                continue
            if local.rank == owner:
                local.Send(seg(staging, r * count, count), i, tag=i,
                           count=count, datatype=dt)
            elif local.rank == i:
                local.Recv(seg(recvbuf, 0, count), source=owner, tag=i,
                           count=count, datatype=dt)
        _span(ctx, t0, "hier:reduce_scatter:intra:deliver", count * nb)
        fastpath.STATS.note_hier(L, 1)
        return
    bounds = chunk_bounds(total, L)
    stripe_ops = 0
    t0 = ctx.now
    if local.size > 1:
        for s, (off, sz) in enumerate(bounds):
            local.Reduce(seg(contrib, off, sz), seg(staging, off, sz), op,
                         root=s, count=sz, datatype=dt)
    else:
        local_copy(ctx, seg(staging, 0, total), seg(contrib, 0, total))
    _span(ctx, t0, "hier:reduce_scatter:intra:reduce", total * nb)
    t0 = ctx.now
    if topo.stripe is not None:
        off, sz = bounds[topo.stripe_index]
        topo.stripe.Allreduce(IN_PLACE, seg(staging, off, sz), op,
                              count=sz, datatype=dt)
        stripe_ops += 1
        _span(ctx, t0, "hier:reduce_scatter:inter", sz * nb)
    t0 = ctx.now
    if local.size > 1:
        for s, (off, sz) in enumerate(bounds):
            local.Bcast(seg(staging, off, sz), root=s, count=sz, datatype=dt)
    _span(ctx, t0, "hier:reduce_scatter:intra:fanout", total * nb)
    local_copy(ctx, seg(recvbuf, 0, count),
               seg(staging, comm.rank * count, count))
    fastpath.STATS.note_hier(L, stripe_ops)


#: execute-stage dispatch: CollectiveCall.coll -> executor.  Vector
#: forms sharing a tuning key (allgatherv) are absent on purpose — the
#: execute stage degrades them to the flat CCL route.
EXECUTORS = {
    "allreduce": hier_allreduce,
    "bcast": hier_bcast,
    "allgather": hier_allgather,
    "reduce_scatter_block": hier_reduce_scatter_block,
}
