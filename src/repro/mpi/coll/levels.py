"""Multi-level collectives: one executor over a factorization of the ranks.

A flat collective treats a communicator as one rank set.  The routes
here first *factorize* it (HiCCL's separation of the collective from
the machine's hierarchy) into groups whose members are cheap to reach —
the ranks of a node (:func:`factorize` ``by="node"``) or of one
accelerator vendor (``by="vendor"``, the HetCCL picture) — and run each
collective as an *inner* phase on the group's own sub-communicator, an
*outer* exchange between the groups, and an inner fan-out.  A schedule
needs only data of the factorization: the canonical groups, this rank's
group, and the **lane** count — how many members of a group take part
in the outer exchange side by side (``min(ranks, NICs)`` per node, each
lane's fabric traffic leaving through its own rail; the island size
when vendor islands are equal, every rank swapping with its "rail
mate"; otherwise the group leader only).

Three instances share the bodies:

* :data:`HIER` — the ``hier_pipe`` option's route: nodes, all lanes,
  payloads cut into ``lanes x DEPTH`` chunks so a lane's outer round
  overlaps the other lanes' rounds and the next round's inner work.
* :data:`BRIDGE` — the ``hetero`` option's route: vendor islands.  No
  CCL spans two vendors, so the outer exchange is host-staged
  point-to-point on the parent communicator (:class:`_Staged`) where the
  other two use a lane sub-communicator (:class:`_Lane`).
* :data:`LEADER` — the classic node-leader MPI algorithms
  (``MPICollDispatcher(force="hierarchical")``): nodes, one lane, whole
  messages, no spans or counters.

The first two are routes of the staged dispatch pipeline
(:mod:`repro.core.dispatch`, :data:`EXECUTORS`): their sub-communicators
carry their own :class:`~repro.core.dispatch.CollectivePipeline`, so plan
caching, zero-copy views, tracing and the tuning table compose per
level, and each island keeps its native xCCL.  Sub-communicators never
re-enter the route that built them (an inner comm spans one group, a
lane comm has one rank per group); an island spanning several nodes may
itself take :data:`HIER`.  Eligibility and schedule are decided from
**purely local facts** (the group and the cluster's device placement),
so every rank picks the same route and the same schedule; payloads are
bit-identical to the flat routes for exact datatypes, virtual times
change by design.
"""

from __future__ import annotations

import contextlib
from typing import Dict, List, NamedTuple, Tuple

from repro import fastpath
from repro.hw.memory import as_array, host_scratch
from repro.mpi.coll._util import chunk_bounds, is_inplace, materialize_input, seg
from repro.mpi.communicator import IN_PLACE
from repro.mpi.compute import alloc_like, apply_reduce, local_copy

#: tuning-table keys the route stage may hand to :data:`HIER` or
#: :data:`BRIDGE`.  The vector siblings (allgatherv) share their uniform
#: key; the execute stage degrades them (no entry in EXECUTORS).
TUNING_KEYS = frozenset({"allreduce", "bcast", "allgather", "reduce_scatter"})

#: per-collective flat/hier crossovers measured on an 8-node x 8-GPU
#: sweep: hierarchy engages at/above this routing byte count, below it
#: the per-level launch latencies dominate and the flat routes win.
#: Reduction collectives cross between 1 and 2 MiB.  Broadcast
#: crosses an order of magnitude later: its flat binomial tree moves
#: each byte once per inter-node hop, so the hierarchy's extra
#: intra-node scatter/allgather launches only pay off at 16 MiB+.
MIN_BYTES = {"bcast": 16 << 20}
MIN_BYTES_DEFAULT = 2 << 20

#: pipeline depth: chunk rounds per lane, so :data:`HIER` splits a
#: payload into ``lanes * DEPTH`` chunks.
DEPTH = 2

#: parent-comm tag base for host-staged hops (group index is added),
#: clear of the small tags the flat algorithms use on sub-communicators.
_TAG = 0x7e70


# -- the factorization: placement facts --------------------------------------

#: what a rank's device is grouped by
_PLACEMENT = {
    "node": lambda cluster, device: cluster.node_index_of(device),
    "vendor": lambda cluster, device: device.vendor.value,
}


class Factorization(NamedTuple):
    """Purely local placement facts for one communicator.

    Computed from the group and the cluster without communication —
    every rank derives the identical answer, so routing on it keeps
    the collective call sequence consistent.  All but :attr:`mine` is
    shared by every member (:class:`~repro.sim.engine.CommRecord`).
    """

    by: str
    #: what each group shares (node index / vendor name), sorted — the
    #: canonical group order every rank agrees on
    keys: Tuple
    #: group index -> comm ranks in it, ascending (the order a
    #: key=comm.rank Split assigns inner ranks)
    groups: Tuple[Tuple[int, ...], ...]
    mine: int
    lanes: int
    #: comm rank -> its group index
    index: Tuple[int, ...]

    @property
    def multilevel(self) -> bool:
        """True when there are >= 2 groups and a group with several
        ranks — the shapes where level decomposition can win."""
        return 2 <= len(self.groups) < len(self.index)

    def group_of(self, rank: int) -> int:
        """Index of the group holding comm rank ``rank``."""
        return self.index[rank]


def factorize(comm, by: str) -> Factorization:
    """``comm``'s ranks grouped ``by`` ``"node"`` or ``"vendor"``,
    cached on the communicator; all but ``mine`` is built by the first
    member to ask and kept on the communicator's record."""
    fact = comm.routing_cache.get(by)
    if fact is not None:
        return fact
    shared = comm.record.factors.get(by)
    if shared is None:
        ctx, place = comm.ctx, _PLACEMENT[by]
        placed = [place(ctx.cluster, ctx.device_of(w)) for w in comm.group]
        members: Dict[object, List[int]] = {}
        for r, key in enumerate(placed):
            members.setdefault(key, []).append(r)
        keys = tuple(sorted(members))
        sizes = {len(members[k]) for k in keys}
        if by == "node":
            lanes = min(min(sizes), min(ctx.cluster.nodes[k].nics for k in keys))
        else:  # rail mates exist only between islands of one size
            lanes = sizes.pop() if len(sizes) == 1 else 1
        position = {k: j for j, k in enumerate(keys)}
        shared = comm.record.factors[by] = (
            keys, tuple(tuple(members[k]) for k in keys), lanes,
            tuple(position[key] for key in placed))
    keys, groups, lanes, index = shared
    fact = comm.routing_cache[by] = Factorization(
        by, keys, groups, index[comm.rank], lanes, index)
    return fact


# -- the outer exchange, two ways --------------------------------------------

class _Lane:
    """Outer exchange over a lane sub-communicator (one member per
    group): the groups' blocks meet in one native collective.  Every
    rank builds one (``Split`` is collective); ``comm`` is None on the
    ranks that own no lane."""

    hops = 1  # messages one exchange costs a lane owner

    def __init__(self, parent, fact: Factorization, inner, lane) -> None:
        self.parent = parent
        self.comm = parent.Split(color=-1 if lane is None else lane,
                                 key=parent.rank)
        self.ops = 0  # lane collectives issued since the last report

    def allreduce(self, buf, count: int, dt, op):
        """Reduce ``buf`` over the lane, in place; returns ``buf``."""
        if self.comm.size > 1:
            self.comm.Allreduce(IN_PLACE, buf, op, count=count, datatype=dt)
        self.ops += 1
        return buf

    def bcast(self, buf, count: int, dt, src: int) -> None:
        """Broadcast ``buf`` from parent rank ``src``, a lane member."""
        if self.comm.size > 1:
            root = self.comm.record.rank_of[self.parent.world_rank(src)]
            self.comm.Bcast(buf, root=root, count=count, datatype=dt)
        self.ops += 1

    def allgather(self, mine, into, counts, dt) -> None:
        """Gather every member's block (``counts``, lane-rank order)
        into ``into``."""
        self.comm.Allgatherv(mine, into, counts, datatype=dt)
        self.ops += 1


class _Staged:
    """Outer exchange across a boundary no CCL spans: point-to-point on
    the parent communicator, staged through host scratch buffers.

    The wire format is host-resident by definition — no GPU-direct
    transport spans two vendors — so payloads travel as plain host
    memory and the endpoint charges no extra device staging on them
    (the D2H/H2D copies are paid here, explicitly, exactly once).  A hop
    always copies: zero-copy views never cross the boundary, which keeps
    foreign reads safe no matter which island mutates its native buffer
    next.  Peers are the ranks holding this rank's position in the other
    groups (rail mates; position 0 is the group leader)."""

    comm = None  # no sub-communicator: the exchange runs on the parent

    def __init__(self, parent, fact: Factorization, inner, lane) -> None:
        self.parent = parent
        self.fact = fact
        self.inner = inner
        self.hops = len(fact.groups) - 1
        self.ops = 0  # host-staged messages sent since the last report

    def _stage(self, src, count: int):
        """``count`` elements of ``src`` copied into a fresh host buffer
        in its wire dtype (storage-free when ``src`` is)."""
        wire = host_scratch(as_array(src), count)
        local_copy(self.parent.ctx, wire, seg(src, 0, count))
        return wire

    def allreduce(self, buf, count: int, dt, op):
        """Swap ``buf`` with every rail mate — ``Sendrecv`` per pair, so
        both wire directions share the duplex link — then fold own and
        remote blocks in fixed group order 0..K-1 into a fresh device
        accumulator, which is returned (``buf`` is left alone).

        Every rank applies ``op`` in the same association order, so the
        folded value is identical everywhere (and bit-identical to any
        other order for exact datatypes).  The fold runs device-side,
        priced with the island's GPU-aware config: unlike a
        non-GPU-aware MPI, the bridge knows its vendor and re-devices
        each remote wire buffer to feed a native reduction kernel."""
        ctx, k = self.parent.ctx, self.fact.mine
        wire = self._stage(buf, count)
        remote = {}
        for j, ranks in enumerate(self.fact.groups):
            if j == k:
                continue
            peer = ranks[self.inner.rank]
            remote[j] = host_scratch(wire, count)
            self.parent._sendrecv(wire, 0, count, peer, remote[j], 0, count,
                                  peer, _TAG + k, _TAG + j, dt)
            self.ops += 1
        acc = alloc_like(ctx, buf, count)
        scratch = alloc_like(ctx, buf, count)
        for j in range(len(self.fact.groups)):
            if j == k:
                operand = buf  # own block, still on device
            else:
                local_copy(ctx, scratch, remote[j])  # re-device the wire bytes
                operand = scratch
            if j == 0:
                local_copy(ctx, acc, operand)
            else:
                apply_reduce(ctx, self.inner.config, op, acc, operand)
        return acc

    def bcast(self, buf, count: int, dt, src: int) -> None:
        """Parent rank ``src`` hands ``buf`` to the leader of every
        group but its own."""
        comm, fact = self.parent, self.fact
        home = fact.group_of(src)
        if comm.rank == src:
            wire = self._stage(buf, count)
            for j, ranks in enumerate(fact.groups):
                if j != home:
                    comm._send(wire, 0, count, ranks[0], _TAG + j, dt)
                    self.ops += 1
        elif self.inner.rank == 0 and fact.mine != home:
            comm._recv(buf, 0, count, src, _TAG + fact.mine, dt)

    def allgather(self, mine, into, counts, dt) -> None:
        """Leaders swap group blocks: ``mine`` is this group's slot of
        ``into`` (``counts``, group order), the others are received into
        theirs.  Sizes differ per group, so each pair is an ordered
        ``Send``/``Recv`` rather than a ``Sendrecv``."""
        comm, k = self.parent, self.fact.mine
        wire = self._stage(mine, counts[k])

        off = 0
        for j, ranks in enumerate(self.fact.groups):
            if j != k:
                if k < j:  # of a pair, the lower group sends first
                    comm._send(wire, 0, counts[k], ranks[0], _TAG + k, dt)
                comm._recv(into, off, counts[j], ranks[0], _TAG + j, dt)
                if k > j:
                    comm._send(wire, 0, counts[k], ranks[0], _TAG + k, dt)
                self.ops += 1
            off += counts[j]


# -- instances and their sub-communicators -----------------------------------

class Instance(NamedTuple):
    """One use of the executor (see the module docstring)."""

    #: routing-cache name; for a route, also its ``Route`` value, trace
    #: kind and label prefix
    name: str
    by: str          # the factorization it runs over
    route: bool      # lanes as factorized, spans and counters recorded
    pipelined: bool  # messages cut into lanes x DEPTH chunks


HIER = Instance("hier", "node", route=True, pipelined=True)
BRIDGE = Instance("bridge", "vendor", route=True, pipelined=False)
LEADER = Instance("hierarchical", "node", route=False, pipelined=False)

#: the outer exchange of a factorization
_EXCHANGE = {"node": _Lane, "vendor": _Staged}

#: trace label of one level of a route's schedule
_LABELS = {
    "hier": {"down": "hier:{coll}:intra:{step}", "outer": "hier:{coll}:inter",
             "up": "hier:{coll}:intra:{step}", "local": "hier:{coll}:{step}"},
    "bridge": {"down": "bridge:{coll}:island:{group}",
               "outer": "bridge:{coll}:hop",
               "up": "bridge:{coll}:island:{group}:fanout"},
}


class Levels:
    """One instance's sub-communicators on one communicator: the inner
    one (a ``Split`` colored by group) and what its outer exchange needs
    (over nodes a second ``Split``, colored by inner rank below the lane
    count: lane ``s`` collects inner rank ``s`` of every group; across
    vendors nothing).  A ``Split`` that raises leaves nothing behind:
    the communicators built so far are freed."""

    def __init__(self, pipeline, comm, inst: Instance) -> None:
        self.inst = inst
        self.comm = comm
        self.fact = fact = factorize(comm, inst.by)
        self.lanes = fact.lanes if inst.route else 1
        #: this rank's group sub-communicator (all ranks have one)
        self.inner = inner = comm.Split(color=fact.mine, key=comm.rank)
        #: the lane this rank owns (its inner rank), or None
        self.lane = inner.rank if inner.rank < self.lanes else None
        try:
            self.outer = _EXCHANGE[inst.by](comm, fact, inner, self.lane)
        except BaseException:
            inner.Free()
            raise
        if pipeline is not None:
            # a dispatcher of the routing pipeline's own kind (named
            # through the instance: mpi never imports core)
            for sub in filter(None, (inner, self.outer.comm)):
                sub.coll = type(pipeline)(pipeline.layer, pipeline.mode)

    @property
    def depth(self) -> int:
        """Chunk rounds per lane."""
        return DEPTH if self.inst.pipelined else 1

    def chunks(self, count: int, depth: int):
        """``count`` elements as a rooted schedule moves them: ``lanes x
        depth`` chunks when pipelined, else whole."""
        parts = self.lanes * depth if self.inst.pipelined else 1
        return chunk_bounds(count, max(1, min(parts, count)))

    @contextlib.contextmanager
    def level(self, coll: str, level: str, step: str = "", nbytes: int = 0):
        """Scope of one level of a route's schedule: records its span on
        leaving — unless the level was free (the trace validator rejects
        zero-duration complete events)."""
        ctx = self.comm.ctx
        t0 = ctx.now
        yield
        if self.inst.route and ctx.trace.enabled and ctx.now > t0:
            label = _LABELS[self.inst.name][level].format(
                coll=coll, step=step, group=self.fact.keys[self.fact.mine])
            ctx.trace.record(self.inst.name, t0, ctx.now, nbytes=nbytes,
                             label=label)

    def report(self, chunks: int = 0) -> None:
        """Feed a route's counters after one collective: the chunks it
        moved through the levels, this rank's outer-exchange operations."""
        ops, self.outer.ops = self.outer.ops, 0
        if self.inst is HIER:
            fastpath.STATS.note_hier(chunks, ops)
        elif self.inst is BRIDGE:
            fastpath.STATS.note_bridge(ops)

    def Free(self) -> None:
        """Free the sub-communicators (``Comm_free`` of the parent)."""
        for sub in filter(None, (self.inner, self.outer.comm)):
            sub.Free()


def levels(pipeline, comm, inst: Instance) -> Levels:
    """``inst``'s :class:`Levels` for ``comm``, built on first use and
    cached (nothing is when building raises); freed by ``Comm_free``."""
    built = comm.routing_cache.get(inst.name)
    if built is None:
        built = comm.routing_cache[inst.name] = Levels(pipeline, comm, inst)
    return built


def _aligned(lv: Levels, count: int, depth: int) -> bool:
    """True for the uniform shapes where the low-launch-count schedules
    apply: every group holds the same rank count ``P`` > 1, lane owners
    carry ``P / lanes`` whole shards each, and the payload splits into
    equal per-rank blocks."""
    p = lv.inner.size
    return (p > 1 and len({len(g) for g in lv.fact.groups}) == 1
            and p % lv.lanes == 0 and count % (depth * p) == 0)


# -- the reductions: a scatter-shaped and a rooted schedule ------------------

def allreduce(lv: Levels, call) -> None:
    """Uniform shapes take the scatter-shaped schedule — the
    bandwidth-optimal inner pair (reduce-scatter + allgather, ~2n/P per
    rank) with the outer exchange spread over every lane; irregular
    ones (uneven groups, no rail mates, blocks that don't divide) the
    rooted one (reduce + bcast, ~2n)."""
    buf, count = call.recvbuf, call.count
    materialize_input(lv.comm, call.sendbuf, buf, count)
    if _aligned(lv, count, lv.depth):
        _allreduce_scattered(lv, buf, count, call.dt, call.op)
    else:
        lv.report(_reduce_rooted(lv, "allreduce", buf, buf, count, call.dt,
                                 call.op, lv.depth, "bcast"))


def _allreduce_scattered(lv: Levels, buf, count: int, dt, op) -> None:
    """Per round: one inner reduce-scatter (inner rank ``i`` ends with
    the group's sum of block ``i``), ``lanes`` parallel outer allreduces
    (one per rail; owners of several shards are forwarded the others),
    one inner allgather — three collective launches a round.  Every
    block is reduced across groups in one fixed order whichever lane
    carries it, so the result is deterministic."""
    inner, L = lv.inner, lv.lanes
    p, lr, depth, nb = inner.size, inner.rank, lv.depth, dt.itemsize
    chunk = count // depth
    block = chunk // p
    for r in range(depth):
        coff = r * chunk
        shards = [seg(buf, coff + j * block, block) for j in range(p)]
        own = done = shards[lr]
        with lv.level("allreduce", "down", "reduce_scatter", chunk * nb):
            inner.Reduce_scatter_block(seg(buf, coff, chunk), own, op,
                                       count=block, datatype=dt)
        with lv.level("allreduce", "outer",
                      nbytes=(p // L) * block * nb * lv.outer.hops):
            if lv.lane is None:
                # forward the group's shard to this block's lane owner;
                # take the globally reduced shard back afterwards
                own_off = coff + lr * block
                inner._send(buf, own_off, block, lr % L, lr, dt)
                inner._recv(buf, own_off, block, lr % L, p + lr, dt)
            else:
                forwarded = range(lr + L, p, L)
                for j in forwarded:
                    inner._recv(buf, coff + j * block, block, j, j, dt)
                done, *reduced = [lv.outer.allreduce(part, block, dt, op)
                                  for part in shards[lr::L]]
                for j, part in zip(forwarded, reduced):
                    inner._send(part, 0, block, j, p + j, dt)
        with lv.level("allreduce", "up", "allgather", chunk * nb):
            inner.Allgather(IN_PLACE if done is own else done,
                            seg(buf, coff, chunk), count=block, datatype=dt)
    lv.report(depth * p)


def _reduce_rooted(lv: Levels, coll: str, src, buf, count: int, dt, op,
                   depth: int, fanout: str) -> int:
    """The rooted schedule of both reductions, ``src`` reduced into
    ``buf`` (the same buffer: in place) on every rank.  Per round of
    ``lanes`` chunks: inner reduce of chunk ``s`` to lane owner ``s`` ->
    the owners' outer allreduces; then every chunk is broadcast inside
    the group from its owner.  Returns the chunk count."""
    inner, L, ctx, nb = lv.inner, lv.lanes, lv.comm.ctx, dt.itemsize
    bounds = lv.chunks(count, depth)
    for r0 in range(0, len(bounds), L):
        round_bounds = bounds[r0:r0 + L]
        with lv.level(coll, "down", "reduce",
                      sum(sz for _, sz in round_bounds) * nb):
            for s, (off, sz) in enumerate(round_bounds):
                part = IN_PLACE if src is buf else seg(src, off, sz)
                if inner.size > 1:
                    inner.Reduce(part, seg(buf, off, sz), op, root=s,
                                 count=sz, datatype=dt)
                elif src is not buf:
                    local_copy(ctx, seg(buf, off, sz), part)
        if lv.lane is not None and r0 + lv.lane < len(bounds):
            off, sz = bounds[r0 + lv.lane]
            part = seg(buf, off, sz)
            with lv.level(coll, "outer", nbytes=sz * nb * lv.outer.hops):
                done = lv.outer.allreduce(part, sz, dt, op)
                if done is not part:
                    local_copy(ctx, part, done)
    with lv.level(coll, "up", fanout, count * nb):
        if inner.size > 1:
            for ci, (off, sz) in enumerate(bounds):
                inner.Bcast(seg(buf, off, sz), root=ci % L, count=sz,
                            datatype=dt)
    return len(bounds)


def reduce_scatter_block(lv: Levels, call) -> None:
    """Reduce the full vector through the levels into a staging buffer,
    then keep the own block.  A pipelined instance whose every inner
    rank owns a lane takes a scatter-shaped schedule on uniform shapes:
    one inner reduce-scatter, one outer allreduce per lane, then each
    inner peer's output slice delivered point-to-point from the block
    that holds it — two collective launches instead of ``2 * lanes +
    1``.  Everything else takes the rooted one."""
    comm, inner, ctx, nb = lv.comm, lv.inner, lv.comm.ctx, call.dt.itemsize
    recvbuf, count, dt, op = call.recvbuf, call.count, call.dt, call.op
    total = comm.size * count
    contrib = recvbuf if is_inplace(call.sendbuf) else call.sendbuf
    staging = alloc_like(ctx, recvbuf, total)
    if lv.inst.pipelined and inner.size == lv.lanes \
            and _aligned(lv, total, 1):
        # block = groups * count, so every rank's output slice sits
        # wholly inside one owner's block
        block = total // lv.lanes
        own = seg(staging, inner.rank * block, block)
        with lv.level("reduce_scatter", "down", "reduce_scatter", total * nb):
            inner.Reduce_scatter_block(seg(contrib, 0, total), own, op,
                                       count=block, datatype=dt)
        with lv.level("reduce_scatter", "outer", nbytes=block * nb):
            lv.outer.allreduce(own, block, dt, op)  # a lane: in place
        with lv.level("reduce_scatter", "up", "deliver", count * nb):
            for i, r in enumerate(lv.fact.groups[lv.fact.mine]):
                owner = (r * count) // block
                if owner == i:
                    if i == inner.rank:
                        local_copy(ctx, seg(recvbuf, 0, count),
                                   seg(staging, r * count, count))
                elif inner.rank == owner:
                    inner._send(staging, r * count, count, i, i, dt)
                elif inner.rank == i:
                    inner._recv(recvbuf, 0, count, owner, i, dt)
    else:
        _reduce_rooted(lv, "reduce_scatter", contrib, staging, total, dt, op,
                       1, "fanout")
        local_copy(ctx, seg(recvbuf, 0, count),
                   seg(staging, comm.rank * count, count))
    lv.report(lv.lanes)


# -- broadcast ---------------------------------------------------------------
# over nodes the root scatters to its node's lane owners first; across
# vendors the root itself stages the hop to the other leaders

def bcast(lv: Levels, call) -> None:
    """Broadcast ``call.recvbuf`` from comm rank ``call.root``."""
    if lv.fact.by == "vendor":
        _bcast_vendor(lv, call.recvbuf, call.count, call.dt, call.root)
    else:
        _bcast_node(lv, call.recvbuf, call.count, call.dt, call.root,
                    _aligned(lv, call.count, lv.depth))


def _bcast_node(lv: Levels, buf, count: int, dt, root: int,
                aligned: bool) -> None:
    """Per round: the root hands piece ``i`` to lane owner ``i % lanes``
    of its own node point-to-point (priced per transfer, no collective
    launch) -> each lane broadcasts its pieces across nodes -> the
    owners fan out inside the node.  Aligned: ``depth`` rounds of one
    equal block per inner rank, fanned out by one in-place inner
    allgather a round (each owner first forwards block ``i`` to inner
    rank ``i``); general: one round of ``lanes x depth`` chunks, each
    broadcast inside the node from its owner."""
    fact, inner, L = lv.fact, lv.inner, lv.lanes
    p, lr, nb = inner.size, inner.rank, dt.itemsize
    home = fact.group_of(root)
    root_inner = fact.groups[home].index(root) if fact.mine == home else -1
    if aligned:
        chunk = count // lv.depth
        block = chunk // p
        rounds = [[(r * chunk + j * block, block) for j in range(p)]
                  for r in range(lv.depth)]
    else:
        rounds = [lv.chunks(count, lv.depth)]
    for pieces in rounds:
        size = sum(sz for _, sz in pieces) * nb
        with lv.level("bcast", "down", "scatter", size):
            # pieces whose owner is the root itself stay put
            for i, (off, sz) in enumerate(pieces):
                if fact.mine != home or i % L == root_inner:
                    continue
                if lr == root_inner:
                    inner._send(buf, off, sz, i % L, i, dt)
                elif lr == i % L:
                    inner._recv(buf, off, sz, root_inner, i, dt)
        with lv.level("bcast", "outer",
                      nbytes=size // L if aligned else size):
            if lv.lane is not None:
                for off, sz in pieces[lr::L]:
                    lv.outer.bcast(seg(buf, off, sz), sz, dt,
                                   fact.groups[home][lr])
                if aligned:  # hand each forwarded block to its home rank
                    for j in range(lr + L, p, L):
                        inner._send(buf, *pieces[j], j, p + j, dt)
            elif aligned:
                inner._recv(buf, *pieces[lr], lr % L, p + lr, dt)
        with lv.level("bcast", "up", "fanout", size):
            if aligned:
                inner.Allgather(IN_PLACE, seg(buf, pieces[0][0], size // nb),
                                count=pieces[0][1], datatype=dt)
            elif p > 1:
                for i, (off, sz) in enumerate(pieces):
                    inner.Bcast(seg(buf, off, sz), root=i % L, count=sz,
                                datatype=dt)
    lv.report(sum(map(len, rounds)))


def _bcast_vendor(lv: Levels, buf, count: int, dt, root: int) -> None:
    """The root hands the payload to the other island leaders
    (host-staged hops) -> native island broadcasts, from the root in
    its own island and from the leader elsewhere."""
    fact, inner, nb = lv.fact, lv.inner, dt.itemsize
    home = fact.group_of(root)
    with lv.level("bcast", "outer", nbytes=count * nb):
        lv.outer.bcast(buf, count, dt, root)
    with lv.level("bcast", "down", nbytes=count * nb):
        if inner.size > 1:
            inner.Bcast(seg(buf, 0, count), count=count, datatype=dt,
                        root=fact.groups[home].index(root)
                        if fact.mine == home else 0)
    lv.report()


# -- allgather ---------------------------------------------------------------
# over nodes contributions funnel to the lane owners point-to-point;
# across vendors each island gathers natively, then the leaders swap
# whole aggregates

def allgather(lv: Levels, call) -> None:
    """Gather every rank's ``count`` elements into comm-rank slots of
    ``call.recvbuf``."""
    recvbuf, count = call.recvbuf, call.count
    if is_inplace(call.sendbuf):
        contrib = seg(recvbuf, lv.comm.rank * count, count)
    else:
        contrib = seg(call.sendbuf, 0, count)
    gather = _allgather_vendor if lv.fact.by == "vendor" else _allgather_node
    gather(lv, contrib, recvbuf, count, call.dt)


def _allgather_node(lv: Levels, contrib, recvbuf, count: int, dt) -> None:
    """Contributions funnel to lane owners -> striped outer allgatherv
    of the node aggregates -> inner fan-out -> reassemble into
    comm-rank order."""
    comm, fact, inner, L = lv.comm, lv.fact, lv.inner, lv.lanes
    ctx, nb = comm.ctx, dt.itemsize
    whole = comm.size * count * nb

    # funnel each contribution to its lane owner (inner rank i -> owner
    # i % L), owners pack them in inner-rank order
    with lv.level("allgather", "down", "gather", count * nb):
        staging = None
        if lv.lane is not None:
            mine = list(range(lv.lane, inner.size, L))
            staging = alloc_like(ctx, recvbuf, len(mine) * count)
        for i in range(inner.size):
            owner = i % L
            if i == inner.rank:
                if owner == inner.rank:
                    local_copy(ctx, seg(staging, mine.index(i) * count,
                                        count), contrib)
                else:
                    inner._send(contrib, 0, count, owner, i, dt)
            elif owner == inner.rank:
                inner._recv(staging, mine.index(i) * count, count, i, i, dt)

    # each lane allgathers its per-node aggregates; node order and
    # counts are derived locally so every rank lays the gathered buffers
    # out identically
    gathered = []
    with lv.level("allgather", "outer", nbytes=whole):
        for s in range(L):
            order = sorted(range(len(fact.groups)),
                           key=lambda g: fact.groups[g][s])
            counts = [len(fact.groups[g][s::L]) * count for g in order]
            g = alloc_like(ctx, recvbuf, sum(counts))
            gathered.append((g, order, counts))
            if s == lv.lane:
                lv.outer.allgather(staging, g, counts, dt)

    # owners share their gathered aggregate inside the node; when every
    # inner rank owns a lane, a single allgatherv over the per-owner
    # aggregates replaces the per-owner broadcasts
    with lv.level("allgather", "up", "fanout", whole):
        sizes = [sum(c) for _, _, c in gathered]
        if 1 < inner.size == L:
            allg = alloc_like(ctx, recvbuf, sum(sizes))
            inner.Allgatherv(gathered[inner.rank][0], allg, sizes,
                             datatype=dt)
            goff = 0
            for s in range(L):
                gathered[s] = (seg(allg, goff, sizes[s]),) + gathered[s][1:]
                goff += sizes[s]
        elif inner.size > 1:
            for s in range(L):
                inner.Bcast(gathered[s][0], root=s, count=sizes[s],
                            datatype=dt)

    # scatter every contribution to its comm-rank slot
    with lv.level("allgather", "local", "reassemble", whole):
        for s, (g, order, _) in enumerate(gathered):
            goff = 0
            for n in order:
                for r in fact.groups[n][s::L]:
                    local_copy(ctx, seg(recvbuf, r * count, count),
                               seg(g, goff, count))
                    goff += count
    lv.report(L)


def _allgather_vendor(lv: Levels, contrib, recvbuf, count: int, dt) -> None:
    """Native island allgather -> leaders swap island aggregates ->
    native island fan-out of the foreign aggregates -> reassemble into
    comm-rank slots."""
    comm, fact, inner = lv.comm, lv.fact, lv.inner
    ctx, k, nb = comm.ctx, lv.fact.mine, dt.itemsize
    counts = [len(ranks) * count for ranks in fact.groups]
    offs = [sum(counts[:j]) for j in range(len(counts))]
    foreign = (comm.size * count - counts[k]) * nb
    aggs = alloc_like(ctx, recvbuf, comm.size * count)
    agg = seg(aggs, offs[k], counts[k])
    with lv.level("allgather", "down", nbytes=counts[k] * nb):
        if inner.size > 1:
            inner.Allgather(contrib, agg, count=count, datatype=dt)
        else:
            local_copy(ctx, agg, contrib)
    with lv.level("allgather", "outer", nbytes=foreign):
        if inner.rank == 0:
            lv.outer.allgather(agg, aggs, counts, dt)
    with lv.level("allgather", "up", nbytes=foreign):
        for j in range(len(fact.groups)):
            if j != k and inner.size > 1:
                inner.Bcast(seg(aggs, offs[j], counts[j]), root=0,
                            count=counts[j], datatype=dt)
    for j, ranks in enumerate(fact.groups):
        for i, r in enumerate(ranks):
            local_copy(ctx, seg(recvbuf, r * count, count),
                       seg(aggs, offs[j] + i * count, count))
    lv.report()


# -- the instances' entry points ---------------------------------------------

def _executor(inst: Instance, body):
    return lambda pipeline, call: body(levels(pipeline, call.comm, inst), call)


#: execute-stage dispatch: ``Route`` value -> ``CollectiveCall.coll`` ->
#: executor ``(pipeline, call)``.  Vector forms sharing a tuning key
#: (allgatherv) are absent on purpose — the execute stage degrades them.
EXECUTORS = {
    inst.name: {"allreduce": _executor(inst, allreduce),
                "bcast": _executor(inst, bcast),
                "allgather": _executor(inst, allgather),
                "reduce_scatter_block": _executor(inst, reduce_scatter_block)}
    for inst in (HIER, BRIDGE)}


def allreduce_hierarchical(comm, sendbuf, recvbuf, count: int, dt, op) -> None:
    """Node-leader allreduce: inner reduce -> leaders' allreduce ->
    inner bcast."""
    lv = levels(None, comm, LEADER)
    materialize_input(comm, sendbuf, recvbuf, count)
    _reduce_rooted(lv, "allreduce", recvbuf, recvbuf, count, dt, op, 1, "bcast")


def bcast_hierarchical(comm, buf, count: int, dt, root: int) -> None:
    """Node-leader bcast: the root hands the message to its node's
    leader; leaders bcast across the fabric; leaders fan out locally."""
    _bcast_node(levels(None, comm, LEADER), buf, count, dt, root,
                aligned=False)


def reduce_hierarchical(comm, sendbuf, recvbuf, count: int, dt, op,
                        root: int) -> None:
    """Node-leader reduce: inner reduce -> leaders reduce to the root's
    leader -> local hop to the root."""
    lv = levels(None, comm, LEADER)
    inner, lane, fact = lv.inner, lv.outer.comm, lv.fact
    home = fact.group_of(root)
    materialize_input(comm, sendbuf, recvbuf, count)
    if inner.size > 1:
        inner.Reduce(IN_PLACE, recvbuf, op, root=0, count=count, datatype=dt)
    if lane is not None and lane.size > 1:
        leader = lane.record.rank_of[comm.world_rank(fact.groups[home][0])]
        lane.Reduce(IN_PLACE, recvbuf, op, root=leader, count=count,
                    datatype=dt)
    root_inner = fact.groups[home].index(root)
    if fact.mine == home and root_inner != 0:
        if inner.rank == 0:
            inner._send(recvbuf, 0, count, root_inner, 1, dt)
        elif inner.rank == root_inner:
            inner._recv(recvbuf, 0, count, 0, 1, dt)
