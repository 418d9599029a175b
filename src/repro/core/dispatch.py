"""The staged collective-dispatch pipeline: one descriptor, one seam.

Every MPI collective — the five with direct CCL mappings (§3.2), the
seven send-recv-composed ones (§3.3), and their MPI-algorithm fallbacks
— flows through the same five stages:

    CollectiveCall
        │ validate          (registry lookup: is this one of the 12?)
        │ capability-check  (§3.2: residency, datatype, reduce op —
        │                    the ONE place eligibility is decided)
        │ route             (mode pin or §3.4 tuning-table row)
        │ plan lookup       (one dict lookup by call key: a hit skips
        │                    stages 2–3, a miss walks them once)
        ▼ execute           {direct-CCL | fused sendrecv-group |
                             multi-level executor | MPI round program}

:class:`~repro.mpi.communicator.CollectiveCall` is the logical
descriptor (HiCCL-style): name, buffers, counts/displacements, datatype,
op, root, communicator — built once, checked, by the
:class:`~repro.mpi.communicator.Communicator` entry point.
:data:`REGISTRY` maps each collective name to a :class:`CollectiveSpec`
that knows how to derive the routing inputs (byte count, significant
buffers, tuning key) and how to execute on the xCCL route; the
multi-level routes run :data:`repro.mpi.coll.levels.EXECUTORS`, and the
MPI route is the descriptor handed on to
:class:`~repro.mpi.coll.MPICollDispatcher`.  Each call key is routed
for its own collective, once: a plan (:mod:`repro.core.plan`) names a
route whose executor exists.  Adding a cross-cutting
concern (tracing, fault policy, new routing modes) is one pipeline
stage — nothing per-collective needs touching (MPI-Advance-style single
seam).

:class:`CollectivePipeline` is the dispatcher the runtime installs on a
communicator (``comm.coll``); its plans and tuning call counters are
entries of the communicator's ledger (``routing_cache``).  In this
module a descriptor is unpacked into positional arguments only by the
``_ccl_*`` executors below.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro import fastpath
from repro.errors import CCLError, MPIError, TuningTableError
from repro.hw.vendors import Vendor, default_ccl_for
from repro.core.fallback import FallbackReason, Route, RouteDecision, RouteStats
from repro.core.plan import CollectivePlan, PlanCache
from repro.core.tuning_table import TUNABLE_COLLECTIVES, TuningTable, cached_table
from repro.core import sendrecv_collectives as srcoll
from repro.mpi.coll import MPICollDispatcher, levels
from repro.mpi.communicator import IN_PLACE, CollectiveCall
from repro.xccl import api as xapi
from repro.xccl.caps import negotiate
from repro.xccl.registry import get_backend


class DispatchMode(enum.Enum):
    """Routing policy."""

    HYBRID = "hybrid"        # tuning table decides (the paper's design)
    PURE_XCCL = "pure_xccl"  # always CCL when capable ("Proposed xCCL w/ Pure ...")
    PURE_MPI = "pure_mpi"    # never CCL (the traditional-MPI baseline)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollectiveSpec:
    """Registry entry: everything the pipeline needs for one collective.

    Attributes:
        name: canonical collective name (the :class:`CollectiveCall`
            ``coll`` field).
        tuning_key: the §3.4 tuning-table row this collective prices
            against (vector forms share their uniform sibling's row).
        nbytes: routing byte count derived from the call.
        buffers: the residency-significant buffers for this rank.
        ccl: the xCCL-route executor ``(layer, call) -> None`` —
            direct CCL mapping or fused send-recv group.
    """

    name: str
    tuning_key: str
    nbytes: Callable[[CollectiveCall], int]
    buffers: Callable[[CollectiveCall], Tuple]
    ccl: Callable[[Any, CollectiveCall], None]


REGISTRY: Dict[str, CollectiveSpec] = {}


def register(spec: CollectiveSpec) -> CollectiveSpec:
    """Add one collective to the dispatch registry."""
    REGISTRY[spec.name] = spec
    return spec


def collective_spec(name: str) -> CollectiveSpec:
    """The registry entry for ``name`` (raises MPIError when unknown)."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise MPIError(f"no collective named {name!r} in the dispatch "
                       f"registry") from None


# ---------------------------------------------------------------------------
# execute-stage helpers
# ---------------------------------------------------------------------------

def charged(fn):
    """Charge the abstraction layer's per-call overhead (Fig. 2 checks:
    buffer identify, datatype conversion, op mapping) around one mapped
    CCL call — the single wrapper every §3.2 direct mapping runs under.
    """
    @functools.wraps(fn)
    def wrapper(layer, call: CollectiveCall) -> None:
        ctx = layer.ctx
        ctx.clock.advance(layer.CALL_OVERHEAD_US)
        t0 = ctx.now
        fn(layer, call)
        ctx.clock.advance((ctx.now - t0) * layer.CALL_OVERHEAD_FRACTION)
    return wrapper


def execute_ccl(layer, call: CollectiveCall) -> None:
    """Run ``call`` on the xCCL route of ``layer``, outside any
    pipeline (no routing, no fallback)."""
    collective_spec(call.coll).ccl(layer, call)


def _src(call: CollectiveCall):
    """The CCL source operand (None for MPI_IN_PLACE spellings)."""
    s = call.sendbuf
    return None if s is None or s is IN_PLACE else s


def _both(c: CollectiveCall) -> Tuple:
    return (c.sendbuf, c.recvbuf)


def _root_recv(c: CollectiveCall) -> Tuple:
    """Rooted gather-side residency: recvbuf only significant at root."""
    return (c.sendbuf, c.recvbuf) if c.comm.rank == c.root else (c.sendbuf,)


def _root_send(c: CollectiveCall) -> Tuple:
    """Rooted scatter-side residency: sendbuf only significant at root."""
    return (c.sendbuf, c.recvbuf) if c.comm.rank == c.root else (c.recvbuf,)


def _uniform_nbytes(c: CollectiveCall) -> int:
    return c.count * c.dt.itemsize


def _send_vec_nbytes(c: CollectiveCall) -> int:
    return max(c.sendcounts) * c.dt.itemsize if c.sendcounts else 0


def _recv_vec_nbytes(c: CollectiveCall) -> int:
    return max(c.recvcounts) * c.dt.itemsize if c.recvcounts else 0


# ---------------------------------------------------------------------------
# the 12 registry entries
# ---------------------------------------------------------------------------
# §3.2 direct 1:1 mappings (charged with the layer's call overhead):

@charged
def _ccl_bcast(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclBroadcast(c.recvbuf, c.count, c.dt, c.root, comm)
    xapi.xcclStreamSynchronize(comm)


@charged
def _ccl_reduce(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclReduce(_src(c), c.recvbuf, c.count, c.dt, c.op, c.root, comm)
    xapi.xcclStreamSynchronize(comm)


@charged
def _ccl_allreduce(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclAllReduce(_src(c), c.recvbuf, c.count, c.dt, c.op, comm)
    xapi.xcclStreamSynchronize(comm)


@charged
def _ccl_allgather(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclAllGather(_src(c), c.recvbuf, c.count, c.dt, comm)
    xapi.xcclStreamSynchronize(comm)


@charged
def _ccl_reduce_scatter_block(layer, c):
    comm = layer.ccl_comm(c.comm)
    xapi.xcclReduceScatter(_src(c), c.recvbuf, c.count, c.dt, c.op, comm)
    xapi.xcclStreamSynchronize(comm)


# §3.3 send-recv compositions (grouped p2p; transport prices the calls),
# one per shape: a uniform call runs its vector form on equal blocks

def _ccl_alltoall(layer, c):
    comm = layer.ccl_comm(c.comm)
    counts, displs = srcoll.uniform_geometry(comm, c.count)
    srcoll.xccl_alltoallv(comm, c.sendbuf, counts, displs, c.recvbuf, counts,
                          displs, c.dt)


def _ccl_alltoallv(layer, c):
    srcoll.xccl_alltoallv(layer.ccl_comm(c.comm), c.sendbuf, c.sendcounts,
                          c.sdispls, c.recvbuf, c.recvcounts, c.rdispls, c.dt)


def _ccl_gather(layer, c):
    comm = layer.ccl_comm(c.comm)
    srcoll.xccl_gatherv(comm, c.sendbuf, c.recvbuf,
                        *srcoll.uniform_geometry(comm, c.count), c.dt, c.root)


def _ccl_gatherv(layer, c):
    srcoll.xccl_gatherv(layer.ccl_comm(c.comm), c.sendbuf, c.recvbuf,
                        c.recvcounts, c.rdispls, c.dt, c.root)


def _ccl_scatter(layer, c):
    comm = layer.ccl_comm(c.comm)
    srcoll.xccl_scatterv(comm, c.sendbuf,
                         *srcoll.uniform_geometry(comm, c.count), c.recvbuf,
                         c.dt, c.root)


def _ccl_scatterv(layer, c):
    srcoll.xccl_scatterv(layer.ccl_comm(c.comm), c.sendbuf, c.sendcounts,
                         c.sdispls, c.recvbuf, c.dt, c.root)


def _ccl_allgatherv(layer, c):
    srcoll.xccl_allgatherv(layer.ccl_comm(c.comm), c.sendbuf, c.recvbuf,
                           c.recvcounts, c.rdispls, c.dt)


register(CollectiveSpec(
    "bcast", "bcast", _uniform_nbytes, lambda c: (c.recvbuf,),
    _ccl_bcast))
register(CollectiveSpec(
    "reduce", "reduce", _uniform_nbytes, _root_recv,
    _ccl_reduce))
register(CollectiveSpec(
    "allreduce", "allreduce", _uniform_nbytes, _both,
    _ccl_allreduce))
register(CollectiveSpec(
    "allgather", "allgather", _uniform_nbytes, _both,
    _ccl_allgather))
register(CollectiveSpec(
    "allgatherv", "allgather", _recv_vec_nbytes, _both,
    _ccl_allgatherv))
register(CollectiveSpec(
    "alltoall", "alltoall", _uniform_nbytes, _both,
    _ccl_alltoall))
register(CollectiveSpec(
    "alltoallv", "alltoall", _send_vec_nbytes, _both,
    _ccl_alltoallv))
register(CollectiveSpec(
    "gather", "gather", _uniform_nbytes, _root_recv,
    _ccl_gather))
register(CollectiveSpec(
    "gatherv", "gather", _recv_vec_nbytes, _root_recv,
    _ccl_gatherv))
register(CollectiveSpec(
    "scatter", "scatter", _uniform_nbytes, _root_send,
    _ccl_scatter))
register(CollectiveSpec(
    "scatterv", "scatter", _send_vec_nbytes, _root_send,
    _ccl_scatterv))
register(CollectiveSpec(
    "reduce_scatter_block", "reduce_scatter", _uniform_nbytes, _both,
    _ccl_reduce_scatter_block))


#: a tuning-table row's route -> the decision it names where the
#: communicator can take it (``CollectivePipeline._eligible``)
ROWS: Dict[str, RouteDecision] = {route.value: RouteDecision(
    route, FallbackReason.TUNING if route == Route.MPI else FallbackReason.NONE)
    for route in Route}


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

class CollectivePipeline:
    """validate → capability-check → route → plan lookup → execute.

    The hybrid dispatcher, MPI-xCCL's runtime brain (§3.4): installed
    as ``comm.coll`` in place of the default
    :class:`~repro.mpi.coll.MPICollDispatcher`, one per rank and one or
    more communicators.  Holds what the stages consult beyond the
    communicator's ledger: the dispatch mode, the pinned tuning table
    and the route counters (``stats``).
    """

    def __init__(self, layer, mode: DispatchMode = DispatchMode.HYBRID,
                 table: Optional[TuningTable] = None) -> None:
        self.layer = layer
        self.mode = mode
        #: the pinned tuning table (None: the memoized one for each
        #: communicator's shape)
        self.table = table
        #: runs every call that stays on the MPI algorithms
        self.mpi = MPICollDispatcher()
        self.stats = RouteStats()
        #: the online tuner's ``(ctx_id, collective, bucket)`` of the
        #: call in flight (``online_tune``)
        self._observe_key: Optional[Tuple[str, str, int]] = None

    # -- stage tracing -------------------------------------------------------

    def _mark(self, label: str) -> None:
        """Record one zero-duration pipeline-stage marker on the rank's
        trace.  Markers never advance the clock, so tracing on/off
        leaves payloads and virtual times bit-identical."""
        trace = self.layer.ctx.trace
        if trace.enabled:
            now = self.layer.ctx.now
            trace.record("stage", now, now, label=label)

    # -- stage 2: capability check (the single §3.2 choke point) ------------

    def capability(self, coll: str, dt, op, significant, on_device: bool,
                   negotiated=None, nranks: int = 0) -> Optional[RouteDecision]:
        """The ONE place CCL eligibility is decided (§3.2 / Fig. 2):
        backend availability, collective mapping, buffer residency,
        datatype (HCCL float-only, no complex anywhere) and reduce op
        (the four NCCL ops), both asked of one capability descriptor:
        the local backend's — or, on a communicator spanning vendors
        (where the per-rank answers would diverge), ``negotiated``, its
        intersection descriptor (:meth:`negotiated`, the same on every
        rank), whose rank ceiling then bounds ``nranks``.
        Returns the MPI fallback decision, or None when the call is
        CCL-capable."""
        desc = negotiated
        if desc is None:
            if not self.layer.available:
                return RouteDecision(Route.MPI, FallbackReason.NO_BACKEND)
            desc = self.layer.backend.capabilities
        if coll not in TUNABLE_COLLECTIVES:
            return RouteDecision(Route.MPI, FallbackReason.UNSUPPORTED_COLL)
        if significant and not on_device:
            return RouteDecision(Route.MPI, FallbackReason.HOST_BUFFER)
        if dt is not None and not desc.allows_datatype(dt):
            return RouteDecision(Route.MPI, FallbackReason.DATATYPE)
        if op is not None and not desc.allows_op(op):
            return RouteDecision(Route.MPI, FallbackReason.REDUCE_OP)
        if negotiated is not None and nranks > negotiated.max_ranks:
            return RouteDecision(Route.MPI, FallbackReason.MIXED_VENDOR)
        return None

    @staticmethod
    def negotiated(comm, vendors):
        """``comm``'s negotiated intersection descriptor over the native
        CCLs of ``vendors`` (its islands' vendor names), computed once
        at first routing and cached on the communicator (pinned by the
        ``negotiations`` counter, which rank 0 alone reports so it
        counts communicators, not ranks).

        Raises :class:`repro.errors.MPIXNegotiationError` — identically
        on every rank — when the islands' backends share no usable
        capability surface."""
        desc = comm.routing_cache.get("negotiated")
        if desc is None:
            desc = comm.routing_cache["negotiated"] = negotiate(
                get_backend(default_ccl_for(Vendor(v))).capabilities
                for v in vendors)
            if comm.rank == 0:
                fastpath.STATS.negotiations += 1
        return desc

    # -- stage 3: route (mode pin or tuning-table row) ---------------------

    def route(self, comm, coll: str, nbytes: int, dt, op, significant,
              on_device: bool) -> RouteDecision:
        """One uncached walk of the Fig. 2 decision chain for a call of
        ``coll``."""
        decision = self._route(comm, coll, nbytes, dt, op, significant,
                               on_device)
        self._mark(f"route:mpi:{decision.reason.value}"
                   if decision.route == Route.MPI
                   else f"route:{decision.route.value}")
        return decision

    def _route(self, comm, coll: str, nbytes: int, dt, op, significant,
               on_device: bool) -> RouteDecision:
        if self.mode == DispatchMode.PURE_MPI:
            self._mark("capability:skipped")
            return RouteDecision(Route.MPI, FallbackReason.MODE)
        spec = REGISTRY.get(coll)
        key = coll if spec is None else spec.tuning_key
        mixed = comm.record.mixed_vendor
        negotiated = None
        if mixed:
            # the local capability answers (and per-shape tables) would
            # diverge across the islands.  Without a pinned table (the
            # only kind that can name the bridge) every call takes the
            # MPI algorithms; with one, the chain runs against the
            # intersection negotiated once per communicator
            if self.table is None:
                self._mark("capability:skipped")
                return RouteDecision(Route.MPI, FallbackReason.MIXED_VENDOR)
            negotiated = self.negotiated(
                comm, levels.factorize(comm, "vendor").keys)
        fallback = self.capability(key, dt, op, significant, on_device,
                                   negotiated, comm.size)
        self._mark("capability:ok" if fallback is None
                   else f"capability:{fallback.reason.value}")
        if fallback is not None:
            return fallback
        if self.mode == DispatchMode.PURE_XCCL:
            row = "xccl"
        else:
            table = self.table or cached_table(
                comm.record.shape, self.layer.backend.params, comm.config)
            try:
                row = table.choose(key, nbytes)
            except TuningTableError:
                # a collective absent from the table degrades to the MPI
                # algorithms like a capability miss, instead of erroring
                self._mark(f"tuning:missing:{key}")
                return RouteDecision(Route.MPI, FallbackReason.TUNING_MISS)
        decision = self._eligible(comm, coll, op, row)
        if not mixed and self._tuning_active(key):
            return self._route_online(comm, coll, nbytes, op, decision)
        return decision

    @staticmethod
    def _eligible(comm, coll: str, op, row: str) -> RouteDecision:
        """The decision a table row (or the online tuner's advice) names
        for a call of ``coll``, where ``comm`` can take it: HIER and
        BRIDGE need an executor for ``coll`` in ``levels.EXECUTORS`` and
        a commutative op, on a multi-level single-vendor / a
        mixed-vendor communicator — else HIER takes the flat CCL route
        and BRIDGE the MPI algorithms; no single CCL spans a
        mixed-vendor communicator's islands."""
        mixed = comm.record.mixed_vendor
        levelled = coll in levels.EXECUTORS.get(row, ()) and (
            op is None or op.commutative)
        if row == "hier" and (mixed or not levelled or not levels.factorize(
                comm, "node").multilevel):
            row = "xccl"
        if row == "bridge" and not (levelled and mixed) \
                or row == "xccl" and mixed:
            return RouteDecision(Route.MPI, FallbackReason.MIXED_VENDOR)
        return ROWS[row]

    def _tuning_active(self, key: str) -> bool:
        """Whether the online tuner steers the route of the collectives
        priced against tuning key ``key``."""
        return (self.mode == DispatchMode.HYBRID
                and self.layer.ctx.engine.online_tuner is not None
                and key in TUNABLE_COLLECTIVES)

    def _route_online(self, comm, coll: str, nbytes: int, op,
                      static: RouteDecision) -> RouteDecision:
        """Consult the engine's measured-latency overlay before the
        static table (the ``online_tune`` option).  ``static`` is the
        table row's decision — followed verbatim through the observe
        warm-up, so short runs never deviate; HIER is a candidate only
        when it is ``static``.  The overlay's buckets are per call
        collective ``coll``, and its advice passes :meth:`_eligible` for
        ``coll`` like a table row."""
        from repro.core import online_tune
        tuner = comm.ctx.engine.online_tuner
        bucket = online_tune.size_bucket(nbytes)
        calls = comm.routing_cache.get("tune")
        if calls is None:
            calls = comm.routing_cache["tune"] = online_tune.CallCounts(
                tuner, comm.ctx_id)
        idx = calls.get((coll, bucket), 0)
        calls[coll, bucket] = idx + 1
        candidates = ["mpi", "xccl"] + (["hier"] if static.route == Route.HIER
                                        else [])
        route, phase = tuner.advise(comm.ctx_id, coll, bucket, idx,
                                    static.route.value, candidates)
        self._mark(f"tune:{phase}:{route}")
        self._observe_key = (comm.ctx_id, coll, bucket)
        return self._eligible(comm, coll, op, route)

    # -- stage 4: plan lookup -----------------------------------------------

    def plan_cache(self, comm) -> PlanCache:
        """This dispatcher's plan store for ``comm`` (a ledger entry;
        another dispatcher's is replaced, its plans being the decisions
        of another table and layer)."""
        cache = comm.routing_cache.get("plans")
        if cache is None or cache.owner is not self:
            cache = comm.routing_cache["plans"] = PlanCache(self)
        return cache

    def decide(self, comm, coll: str, nbytes: int, dt=None, op=None,
               *buffers) -> RouteDecision:
        """The routing decision for one call of ``coll`` (exposed for
        tests): the buffers' residency, then one uncached :meth:`route`
        walk — which :meth:`run` makes once per call key, on its plan's
        miss."""
        significant = [b for b in buffers if b is not None and b is not IN_PLACE]
        on_device = not significant or \
            self.layer.identify_device_buffer(*significant)
        return self.route(comm, coll, nbytes, dt, op, significant, on_device)

    def _plan(self, call: CollectiveCall,
              spec: CollectiveSpec) -> CollectivePlan:
        """Stages 2–3 for a call whose key has no plan: its decision,
        and the executor the MPI route runs (the key's round
        program)."""
        self._mark("plan:miss")
        decision = self.decide(call.comm, call.coll, spec.nbytes(call),
                               call.dt, call.op, *spec.buffers(call))
        return CollectivePlan(call.key, decision,
                              self.mpi.program(call)
                              if decision.route == Route.MPI else None)

    # -- stage 5: execute ---------------------------------------------------

    def execute(self, call: CollectiveCall, spec: CollectiveSpec,
                plan: CollectivePlan) -> RouteDecision:
        """Run the call on its plan's route: replay the MPI route's round
        program, or else run the route's executor — the registry's CCL
        mapping or the multi-level executor for the call's collective —
        where a CCL runtime error falls back to the MPI algorithms
        (§1.2 advantage 3).  Returns the decision the call actually
        executed under (the plan's, unless that fallback ran)."""
        ctx = self.layer.ctx
        traced = ctx.trace.enabled
        if traced:
            t0 = ctx.now
        decision = plan.decision
        if plan.program is not None:
            plan.program.run(call)
        else:
            try:
                if decision.route == Route.XCCL:
                    spec.ccl(self.layer, call)
                else:
                    levels.EXECUTORS[decision.route.value][call.coll](
                        self, call)
            except CCLError:
                decision = RouteDecision(Route.MPI, FallbackReason.CCL_ERROR)
                self.mpi.run(call)
        self._record(decision, spec)
        if traced:
            self._span(call, spec, decision, t0)
        return decision

    def _span(self, call: CollectiveCall, spec: CollectiveSpec,
              decision: RouteDecision, t0: float) -> None:
        """Record the execute-stage span (the whole collective) with the
        route the call actually took — ``execute:<coll>:<route>``, with
        the backend after ``xccl`` and the fallback reason after
        ``mpi``."""
        ctx = self.layer.ctx
        label = f"execute:{call.coll}:{decision.route.value}"
        if decision.route == Route.XCCL:
            label += f":{self.layer.backend_name}"
        elif decision.route == Route.MPI:
            label += f":{decision.reason.value}"
        ctx.trace.record("dispatch", t0, ctx.now,
                         nbytes=spec.nbytes(call), label=label)

    def _record(self, decision: RouteDecision, spec: CollectiveSpec) -> None:
        """Count one collective leaving the execute stage: the
        pipeline's route counters and ``fastpath``'s."""
        self.stats.record(decision, spec.tuning_key)
        stats = fastpath.STATS
        stats.dispatch_calls += 1
        route = decision.route
        if route == Route.XCCL:
            stats.route_xccl += 1
        elif route == Route.HIER:
            stats.route_hier += 1
        elif route == Route.BRIDGE:
            stats.route_bridge += 1
        else:
            stats.route_mpi += 1
            if decision.is_fallback:
                stats.route_fallbacks += 1
            if decision.reason == FallbackReason.CCL_ERROR:
                stats.ccl_errors += 1

    # -- the whole pipe -----------------------------------------------------

    def run(self, call: CollectiveCall) -> None:
        """Push one descriptor through the stages.  Stage 1, validate: a
        collective outside the registry (barrier, scan, exscan) has no
        CCL mapping and nothing to route — it runs on the MPI
        algorithms, unmarked and uncounted.  Stage 4, plan lookup: a
        call key seen before is one lookup, and its plan goes straight
        to execution (the MPI route's round program replays), with the
        stage markers, route counters and ``fastpath`` counts a full
        walk would leave; a miss walks stages 2–3 and plans the key."""
        spec = REGISTRY.get(call.coll)
        if spec is None:
            self.mpi.run(call)
            return
        comm = call.comm
        cache = comm.routing_cache.get("plans")
        if cache is None or cache.owner is not self:
            cache = self.plan_cache(comm)
        plan = cache.lookup(call.key)
        if plan is not None:
            if self.layer.ctx.trace.enabled:
                self._mark(f"validate:{call.coll}")
                self._mark("plan:hit")
            self.execute(call, spec, plan)
            return
        self._mark(f"validate:{call.coll}")
        self._observe_key = None
        t0 = self.layer.ctx.now
        plan = self._plan(call, spec)
        if call.key is not None and not self._tuning_active(spec.tuning_key):
            cache.store(call.key, plan)
        final = self.execute(call, spec, plan)
        if self._observe_key is not None:
            # feed the measured latency (and the route that actually
            # ran, which differs on a rescued CCL error) back into the
            # online tuner's overlay
            ctx_id, coll, bucket = self._observe_key
            self._observe_key = None
            call.comm.ctx.engine.online_tuner.observe(
                ctx_id, coll, bucket, final.route.value,
                self.layer.ctx.now - t0)

    def warm(self, call: CollectiveCall) -> None:
        """Plan ``call``'s key ahead of its first run (a persistent
        collective's init), so every ``Start`` finds it.  A collective
        the online tuner steers has no plan, and walking its route here
        would spend one of its call indices: a ``Start`` counts as the
        blocking call it stands for."""
        spec = REGISTRY.get(call.coll)
        if spec is None or call.key is None \
                or self._tuning_active(spec.tuning_key):
            return
        cache = self.plan_cache(call.comm)
        if cache.lookup(call.key) is None:
            cache.store(call.key, self._plan(call, spec))
