"""Process-wide switch and counters for the collective fast path.

The plan-caching layer (:mod:`repro.core.plan`) and the memoized
closed-form model evaluations consult one global switch so the whole
fast path can be disabled at once — for A/B benchmarking
(``benchmarks/bench_hotpath.py``) and for the cache-on vs cache-off
bit-identity regression tests.  Results must be identical either way;
the switch only trades repeated derivation work for cached replay.

This module sits below every other ``repro`` package (it imports
nothing from them) so the perf models, the MPI algorithms, and the
core layer can all share the switch without import cycles.

Control: the ``MPIX_PLAN_CACHE`` environment variable (``0``/``false``
/ ``off`` disables; default enabled), or :func:`set_plans_enabled` at
runtime.  The group-fusion transport (batched mailbox delivery and the
group-exchange rendezvous in :mod:`repro.xccl.backend`) has its own
switch, ``MPIX_GROUP_FUSION`` / :func:`set_fusion_enabled`, under the
same contract: fusion may only reduce wall-clock synchronization
events, never change payloads or virtual times.

The zero-copy datapath (``MPIX_ZERO_COPY`` /
:func:`set_zero_copy_enabled`) is the third gate: payload handoff by
read-only view instead of defensive snapshot, pooled reduction
accumulators, and vectorized reduction kernels.  Same contract again —
payloads and virtual times are bit-identical with the gate on or off;
only simulator wall-clock (and allocator traffic) changes.

The observability layer (``MPIX_TRACE`` / :func:`set_trace_enabled`)
is the fourth gate, and the only one that defaults **off**: it turns on
per-rank event tracing for every engine (dispatch-pipeline stages,
transport paths, CCL spans) without touching ``Engine(trace=True)``
call sites.  Tracing is observation only — payloads and virtual times
are bit-identical with the gate on or off.

The pipelined hierarchical executor (``MPIX_HIER_PIPE`` /
:func:`set_hier_pipe_enabled`) is the fifth gate, default off: the
dispatch pipeline's route stage may decompose large multi-node
allreduce / bcast / allgather / reduce_scatter calls into per-level
plans (intra-node xCCL → striped inter-node phase → intra-node
fan-out) with chunks pipelined through the levels
(:mod:`repro.mpi.coll.hier_exec`).  Unlike the wall-clock gates it
*changes virtual times* on multi-node communicators (that is the
point — it is a routing optimisation, like the tuning table); payloads
stay bit-identical, and on single-node communicators the route is
never chosen, so the gate is provably inert there.

The mixed-vendor bridge route (``MPIX_HETERO`` /
:func:`set_hetero_enabled`) is the sixth gate, default off: a
communicator whose ranks sit on devices from more than one vendor
negotiates a capability intersection once at construction
(:mod:`repro.xccl.caps`) and routes eligible collectives to the
cross-vendor bridge executor (:mod:`repro.mpi.coll.bridge`) — native
xCCL inside each vendor island, host-staged leader hops between
islands.  Like the hierarchical route it changes virtual times (it is
a routing choice), never payloads; with the gate off, mixed
communicators fall back to the plain MPI algorithms, and on
single-vendor communicators the gate is provably inert.

The online autotuner (``MPIX_ONLINE_TUNE`` /
:func:`set_online_tune_enabled`) is the seventh gate, default off: the
dispatch pipeline feeds measured per-(collective, size-bucket,
comm-shape) latencies back into a per-communicator overlay on the
static tuning table (:mod:`repro.core.online_tune`), and after a short
observe/explore warm-up the route stage follows the re-fitted
crossovers instead of the offline table.  Like the hierarchical route
it changes virtual times (it is a routing choice), never payloads;
runs shorter than the warm-up never deviate from the static table, so
the gate is provably inert on short jobs.

Elastic fault tolerance (``MPIX_ELASTIC`` /
:func:`set_elastic_enabled`) is the eighth gate, default off: ULFM-style
``Comm_revoke`` / ``Comm_agree`` / ``Comm_shrink`` on
:class:`repro.mpi.communicator.Communicator`, with rank deaths injected
by ``FaultPlan.kill`` surfacing as :class:`CommRevokedError` on the
survivors instead of tearing down the whole run.  With the gate off
(and no kill rules installed) every path is byte-for-byte the old
behavior — a dead rank still fails the run.

All eight gates live in one registry (:data:`GATE_ENV`) keyed by the
dispatch-pipeline stage they toggle, and are queried through the single
:func:`gate_enabled` choke point.  :func:`configure` flips any subset
and returns the previous states (restore with ``configure(**prev)``);
:func:`snapshot` returns gate states plus the per-stage counters in
:data:`STATS` — what ``mpix-omb --stats`` prints.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

_FALSY = {"0", "false", "off", "no", ""}

#: pipeline-stage gate -> controlling environment variable.  This table
#: is the single registry of fast-path toggles; every gate is queried
#: through :func:`gate_enabled` and flipped through :func:`configure`
#: (the ``set_*`` helpers below are thin historical aliases).
GATE_ENV: Dict[str, str] = {
    "plan_cache": "MPIX_PLAN_CACHE",       # plan lookup stage
    "group_fusion": "MPIX_GROUP_FUSION",   # fused sendrecv-group transport
    "zero_copy": "MPIX_ZERO_COPY",         # payload handoff by view
    "trace": "MPIX_TRACE",                 # per-rank event tracing
    "hier_pipe": "MPIX_HIER_PIPE",         # pipelined hierarchical route
    "hetero": "MPIX_HETERO",               # mixed-vendor bridge route
    "online_tune": "MPIX_ONLINE_TUNE",     # online tuning-table overlay
    "elastic": "MPIX_ELASTIC",             # ULFM revoke/shrink/agree
}

#: gates that default off when their variable is unset (tracing costs
#: memory per event, so it is opt-in; the hierarchical route changes
#: multi-node virtual times, so it is opt-in as well, and so does the
#: mixed-vendor bridge; the online tuner changes routing over time and
#: the elastic error model changes failure semantics, so both are
#: opt-in; the wall-clock gates default on).
_GATE_DEFAULTS: Dict[str, str] = {"trace": "0", "hier_pipe": "0",
                                  "hetero": "0", "online_tune": "0",
                                  "elastic": "0"}


def _env_gate(var: str, default: str = "1") -> bool:
    return os.environ.get(var, default).strip().lower() not in _FALSY


_gates: Dict[str, bool] = {
    name: _env_gate(var, _GATE_DEFAULTS.get(name, "1"))
    for name, var in GATE_ENV.items()}


def gate_enabled(name: str) -> bool:
    """Whether the named pipeline-stage gate is on (the one choke point
    every fast path queries)."""
    return _gates[name]


def gates() -> Dict[str, bool]:
    """A copy of the current gate states."""
    return dict(_gates)


def configure(plan_cache: Optional[bool] = None,
              group_fusion: Optional[bool] = None,
              zero_copy: Optional[bool] = None,
              trace: Optional[bool] = None,
              hier_pipe: Optional[bool] = None,
              hetero: Optional[bool] = None,
              online_tune: Optional[bool] = None,
              elastic: Optional[bool] = None) -> Dict[str, bool]:
    """Set any subset of the fast-path gates at once.

    Returns the *previous* state of every gate, so a caller can restore
    with ``fastpath.configure(**prev)`` — the idiom the A/B benchmarks
    and the gate-combination parity tests use.
    """
    prev = gates()
    for name, flag in (("plan_cache", plan_cache),
                       ("group_fusion", group_fusion),
                       ("zero_copy", zero_copy),
                       ("trace", trace),
                       ("hier_pipe", hier_pipe),
                       ("hetero", hetero),
                       ("online_tune", online_tune),
                       ("elastic", elastic)):
        if flag is not None:
            _gates[name] = bool(flag)
    return prev


def snapshot() -> Dict[str, Dict]:
    """One consistent view of the whole fast path: gate states plus the
    per-stage counters (surfaced by ``mpix-omb --stats``)."""
    return {"gates": gates(), "counters": STATS.snapshot()}


def plans_enabled() -> bool:
    """Whether the plan cache / memoization fast path is active."""
    return _gates["plan_cache"]


def set_plans_enabled(flag: bool) -> bool:
    """Flip the fast path on or off; returns the previous setting."""
    return configure(plan_cache=flag)["plan_cache"]


def fusion_enabled() -> bool:
    """Whether the fused group-call transport is active."""
    return _gates["group_fusion"]


def set_fusion_enabled(flag: bool) -> bool:
    """Flip group fusion on or off; returns the previous setting."""
    return configure(group_fusion=flag)["group_fusion"]


def zero_copy_enabled() -> bool:
    """Whether the zero-copy datapath is active."""
    return _gates["zero_copy"]


def set_zero_copy_enabled(flag: bool) -> bool:
    """Flip the zero-copy datapath on or off; returns the previous
    setting."""
    return configure(zero_copy=flag)["zero_copy"]


def trace_enabled() -> bool:
    """Whether process-wide event tracing is active (``MPIX_TRACE``).

    Engines constructed while this gate is on trace every rank, exactly
    as if they had been built with ``Engine(trace=True)``."""
    return _gates["trace"]


def set_trace_enabled(flag: bool) -> bool:
    """Flip process-wide tracing on or off; returns the previous
    setting."""
    return configure(trace=flag)["trace"]


def hier_pipe_enabled() -> bool:
    """Whether the route stage may choose the pipelined hierarchical
    executor (``MPIX_HIER_PIPE``).

    Only multi-node communicators with more than one rank on a node are
    eligible (:func:`repro.mpi.coll.hier_exec.placement`); everything
    else routes exactly as with the gate off."""
    return _gates["hier_pipe"]


def set_hier_pipe_enabled(flag: bool) -> bool:
    """Flip the hierarchical route on or off; returns the previous
    setting."""
    return configure(hier_pipe=flag)["hier_pipe"]


def hetero_enabled() -> bool:
    """Whether mixed-vendor communicators may take the bridge route
    (``MPIX_HETERO``).

    Only communicators spanning devices from more than one vendor are
    affected (:func:`repro.mpi.coll.bridge.hetero_info`); with the
    gate off they route to the plain MPI algorithms, and single-vendor
    communicators route exactly as before either way."""
    return _gates["hetero"]


def set_hetero_enabled(flag: bool) -> bool:
    """Flip the mixed-vendor bridge route on or off; returns the
    previous setting."""
    return configure(hetero=flag)["hetero"]


def online_tune_enabled() -> bool:
    """Whether the route stage consults the online tuning overlay
    (``MPIX_ONLINE_TUNE``).

    Routes only deviate from the static table after the per-bucket
    observe/explore warm-up completes, so short runs are bit-identical
    either way."""
    return _gates["online_tune"]


def set_online_tune_enabled(flag: bool) -> bool:
    """Flip the online tuner on or off; returns the previous setting."""
    return configure(online_tune=flag)["online_tune"]


def elastic_enabled() -> bool:
    """Whether communicators use the ULFM-style elastic error model
    (``MPIX_ELASTIC``): peer death surfaces as ``CommRevokedError``
    and survivors may ``Comm_agree`` + ``Comm_shrink``."""
    return _gates["elastic"]


def set_elastic_enabled(flag: bool) -> bool:
    """Flip the elastic error model on or off; returns the previous
    setting."""
    return configure(elastic=flag)["elastic"]


class PlanStats:
    """Hit/miss/compile counters for the plan-caching layer.

    One global instance (:data:`STATS`) aggregates across every rank
    thread; :class:`repro.core.plan.PlanCache` instances keep their own
    per-communicator view as well.  Counters are guarded by a lock —
    they are touched by every rank thread of an engine run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.compiled = 0
        self.pool_reuses = 0
        #: group-fusion transport counters (MPIX_GROUP_FUSION):
        self.fusion_flushes = 0     # fused group flushes
        self.fusion_msgs = 0        # messages delivered through fused paths
        self.fusion_exchanges = 0   # whole-group rendezvous (one per comm group)
        self.fusion_fallbacks = 0   # flushes/matches that fell back unfused
        #: zero-copy datapath counters (MPIX_ZERO_COPY):
        self.copies_elided = 0      # payload snapshots handed off as views
        self.copies_forced = 0      # copy-on-write escapes (aliasing, faults)
        self.accumulator_reuses = 0  # reduction/staging scratch from the pool
        #: dispatch-pipeline counters (execute stage, all routes):
        self.dispatch_calls = 0     # collectives pushed through the pipeline
        self.route_xccl = 0         # execute stage took the CCL route
        self.route_mpi = 0          # execute stage ran an MPI algorithm
        self.route_fallbacks = 0    # capability fallbacks (§3.2), not tuning
        self.ccl_errors = 0         # runtime CCL errors rescued by MPI
        #: hierarchical-executor counters (MPIX_HIER_PIPE):
        self.route_hier = 0         # execute stage ran the hierarchical plan
        self.hier_chunks = 0        # payload chunks pipelined through levels
        self.hier_stripe_ops = 0    # inter-node stripe collectives issued
        #: mixed-vendor bridge counters (MPIX_HETERO):
        self.negotiations = 0       # once-per-comm capability negotiations
        self.route_bridge = 0       # execute stage ran the bridge plan
        self.bridge_hops = 0        # host-staged inter-island messages
        #: rank-scheduler counters (:mod:`repro.sim.sched`):
        self.coop_runs = 0          # engine runs
        self.coop_parks = 0         # fiber deschedules (blocked waits)
        self.coop_switches = 0      # run-token handoffs
        #: online-tuner counters (MPIX_ONLINE_TUNE):
        self.online_updates = 0     # per-bucket crossover re-fits
        self.route_flips = 0        # re-fits that changed the static route
        #: elastic fault-tolerance counters (MPIX_ELASTIC):
        self.comm_revokes = 0       # communicators revoked (once per comm)
        self.comm_shrinks = 0       # shrink agreements completed (per comm)

    def note_hit(self, n: int = 1) -> None:
        """Record ``n`` plan-cache hits."""
        with self._lock:
            self.hits += n

    def note_miss(self) -> None:
        """Record one plan-cache miss."""
        with self._lock:
            self.misses += 1

    def note_compiled(self) -> None:
        """Record one freshly compiled plan."""
        with self._lock:
            self.compiled += 1

    def note_pool_reuse(self) -> None:
        """Record one staging buffer served from a pool."""
        with self._lock:
            self.pool_reuses += 1

    def note_fusion_flush(self, msgs: int) -> None:
        """Record one fused group flush that batched ``msgs`` messages."""
        with self._lock:
            self.fusion_flushes += 1
            self.fusion_msgs += msgs

    def note_fusion_exchange(self) -> None:
        """Record one whole-group rendezvous exchange."""
        with self._lock:
            self.fusion_exchanges += 1

    def note_fusion_fallback(self, n: int = 1) -> None:
        """Record ``n`` operations that fell back to the unfused path."""
        with self._lock:
            self.fusion_fallbacks += n

    def note_copy_elided(self, n: int = 1) -> None:
        """Record ``n`` payload snapshots replaced by view handoffs."""
        with self._lock:
            self.copies_elided += n

    def note_copy_forced(self, n: int = 1) -> None:
        """Record ``n`` copy-on-write escapes back to the copying path."""
        with self._lock:
            self.copies_forced += n

    def note_accumulator_reuse(self) -> None:
        """Record one reduction/staging scratch served from the shared
        pool instead of a fresh allocation."""
        with self._lock:
            self.accumulator_reuses += 1

    def note_dispatch(self, xccl: bool, fallback: bool = False,
                      ccl_error: bool = False, hier: bool = False,
                      bridge: bool = False) -> None:
        """Record one collective leaving the pipeline's execute stage."""
        with self._lock:
            self.dispatch_calls += 1
            if hier:
                self.route_hier += 1
            elif bridge:
                self.route_bridge += 1
            elif xccl:
                self.route_xccl += 1
            else:
                self.route_mpi += 1
                if fallback:
                    self.route_fallbacks += 1
                if ccl_error:
                    self.ccl_errors += 1

    def note_hier(self, chunks: int, stripe_ops: int) -> None:
        """Record one hierarchical plan execution: how many payload
        chunks it pipelined and how many inter-node stripe collectives
        it issued (the per-NIC flows)."""
        with self._lock:
            self.hier_chunks += chunks
            self.hier_stripe_ops += stripe_ops

    def note_negotiation(self) -> None:
        """Record one mixed-vendor capability negotiation (reported by
        rank 0 of the negotiating communicator only, so the counter
        reads "negotiations per communicator", not per rank)."""
        with self._lock:
            self.negotiations += 1

    def note_bridge(self, hops: int) -> None:
        """Record the host-staged inter-island messages one bridge
        plan execution sent (leaders only report, so the counter is a
        message count, not a per-rank tally)."""
        with self._lock:
            self.bridge_hops += hops

    def note_coop_run(self, parks: int, switches: int) -> None:
        """Record one engine run (the engine aggregates the scheduler's
        per-run totals here once, at run end — no per-transition lock
        traffic)."""
        with self._lock:
            self.coop_runs += 1
            self.coop_parks += parks
            self.coop_switches += switches

    def note_online_update(self, flipped: bool) -> None:
        """Record one online-tuner bucket re-fit; ``flipped`` when the
        fitted route differs from the static table's choice."""
        with self._lock:
            self.online_updates += 1
            if flipped:
                self.route_flips += 1

    def note_revoke(self) -> None:
        """Record one communicator revocation (the engine deduplicates,
        so this counts communicators, not raising ranks)."""
        with self._lock:
            self.comm_revokes += 1

    def note_shrink(self) -> None:
        """Record one completed shrink agreement (the rendezvous
        computes once, so this counts communicators, not ranks)."""
        with self._lock:
            self.comm_shrinks += 1

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        with self._lock:
            self.hits = self.misses = self.compiled = self.pool_reuses = 0
            self.fusion_flushes = self.fusion_msgs = 0
            self.fusion_exchanges = self.fusion_fallbacks = 0
            self.copies_elided = self.copies_forced = 0
            self.accumulator_reuses = 0
            self.dispatch_calls = self.route_xccl = self.route_mpi = 0
            self.route_fallbacks = self.ccl_errors = 0
            self.route_hier = self.hier_chunks = self.hier_stripe_ops = 0
            self.negotiations = self.route_bridge = self.bridge_hops = 0
            self.coop_runs = self.coop_parks = self.coop_switches = 0
            self.online_updates = self.route_flips = 0
            self.comm_revokes = self.comm_shrinks = 0

    def snapshot(self) -> Dict[str, int]:
        """A consistent copy of the counters."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "compiled": self.compiled,
                    "pool_reuses": self.pool_reuses,
                    "fusion_flushes": self.fusion_flushes,
                    "fusion_msgs": self.fusion_msgs,
                    "fusion_exchanges": self.fusion_exchanges,
                    "fusion_fallbacks": self.fusion_fallbacks,
                    "copies_elided": self.copies_elided,
                    "copies_forced": self.copies_forced,
                    "accumulator_reuses": self.accumulator_reuses,
                    "dispatch_calls": self.dispatch_calls,
                    "route_xccl": self.route_xccl,
                    "route_mpi": self.route_mpi,
                    "route_fallbacks": self.route_fallbacks,
                    "ccl_errors": self.ccl_errors,
                    "route_hier": self.route_hier,
                    "hier_chunks": self.hier_chunks,
                    "hier_stripe_ops": self.hier_stripe_ops,
                    "negotiations": self.negotiations,
                    "route_bridge": self.route_bridge,
                    "bridge_hops": self.bridge_hops,
                    "coop_runs": self.coop_runs,
                    "coop_parks": self.coop_parks,
                    "coop_switches": self.coop_switches,
                    "online_updates": self.online_updates,
                    "route_flips": self.route_flips,
                    "comm_revokes": self.comm_revokes,
                    "comm_shrinks": self.comm_shrinks}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.snapshot()
        return (f"<PlanStats hits={s['hits']} misses={s['misses']} "
                f"compiled={s['compiled']} pool_reuses={s['pool_reuses']}>")


#: process-wide counters (every PlanCache and pool also reports here).
STATS = PlanStats()
