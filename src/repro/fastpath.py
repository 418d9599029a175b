"""Process-wide counters for the dispatch pipeline.

This module sits below every other ``repro`` package (it imports
nothing from them) so the engine, the MPI layer and the core layer can
report into one place without import cycles.

The plan cache, the fused group transport and the zero-copy datapath
are how the simulator works, not options.  Compiled plans
and memoized models replay what a fresh derivation would compute
(the memoized models keep their originals as ``__wrapped__``), a group
call is the transport unit, and payloads travel as borrowed read-only
views.  The copying / per-message code survives only where
the code itself observes it must: a send window aliasing a receive
window (``MPI_IN_PLACE`` spellings) copies on write, and a group opened
without a communicator hint takes the bulk mailbox transport.  A fault
plan's drop and delay rules change no transport: a hinted group's
senders put their rows to the same mailbox ``filter`` before the
whole-group rendezvous.

What a run *can* choose — ``trace`` and ``online_tune`` — are
arguments of :class:`repro.sim.engine.Engine` (their ``MPIX_*``
defaults are read in :mod:`repro.config`), and which route a call takes
is a tuning-table row; nothing here is settable.

:data:`STATS` holds the per-stage counters named in :data:`COUNTERS`;
:func:`snapshot` is the view ``mpix-omb --stats`` prints.  A new
``Engine`` zeroes them: a new engine is a new run.
"""

from __future__ import annotations

from typing import Dict


def snapshot() -> Dict[str, Dict]:
    """One consistent view of the per-stage counters (surfaced by
    ``mpix-omb --stats``)."""
    return {"counters": STATS.snapshot()}


#: every counter of :class:`PlanStats`, in report order — ``reset`` and
#: ``snapshot`` are generated from this one tuple.
COUNTERS = (
    # plan-caching layer (:mod:`repro.core.plan`):
    "hits", "misses", "compiled", "pool_reuses",
    # group transport (:mod:`repro.xccl.backend`):
    "fusion_flushes",      # group flushes
    "fusion_msgs",         # messages delivered by group flushes
    "fusion_exchanges",    # whole-group rendezvous (one per comm group)
    "fusion_fallbacks",    # exchange receives deferred to a mailbox match
    # zero-copy datapath:
    "copies_elided",       # payload snapshots handed off as views
    "copies_forced",       # copy-on-write escapes (aliasing, faults)
    "accumulator_reuses",  # reduction/staging scratch from the pool
    # dispatch pipeline (execute stage, all routes):
    "dispatch_calls",      # collectives pushed through the pipeline
    "route_xccl",          # execute stage took the CCL route
    "route_mpi",           # execute stage ran an MPI algorithm
    "route_fallbacks",     # capability fallbacks (§3.2), not tuning
    "ccl_errors",          # runtime CCL errors rescued by MPI
    # hierarchical executor (``hier`` rows):
    "route_hier",          # execute stage ran the hierarchical plan
    "hier_chunks",         # payload chunks pipelined through levels
    "hier_stripe_ops",     # inter-node stripe collectives issued
    # mixed-vendor bridge (``bridge`` rows):
    "negotiations",        # once-per-comm capability negotiations
    "route_bridge",        # execute stage ran the bridge plan
    "bridge_hops",         # host-staged inter-island messages
    # rank scheduler (:mod:`repro.sim.sched`):
    "coop_runs",           # engine runs
    "coop_parks",          # fiber deschedules (blocked waits)
    "coop_switches",       # run-token handoffs
    # online tuner (``online_tune``):
    "online_updates",      # per-bucket crossover re-fits
    "route_flips",         # re-fits that changed the static route
    # ULFM fault recovery:
    "comm_revokes",        # communicators revoked (once per comm)
    "comm_shrinks",        # shrink agreements completed (per comm)
)


class PlanStats:
    """The per-stage counters named in :data:`COUNTERS`.

    One global instance (:data:`STATS`) aggregates across every rank
    thread; :class:`repro.core.plan.PlanCache` instances keep their own
    per-communicator view as well.  The counters are plain ints: an
    engine's ranks bump them under its run token
    (:mod:`repro.sim.sched`).  ``Engine()`` zeroes them, so engines
    running concurrently in one process never had meaningful counts;
    the cure for that is counters owned by the engine (ROADMAP), not a
    lock.
    """

    def __init__(self) -> None:
        self.reset()

    def note_hit(self, n: int = 1) -> None:
        """Record ``n`` plan-cache hits."""
        self.hits += n

    def note_miss(self) -> None:
        """Record one plan-cache miss."""
        self.misses += 1

    def note_compiled(self) -> None:
        """Record one freshly compiled plan."""
        self.compiled += 1

    def note_pool_reuse(self) -> None:
        """Record one staging buffer served from a pool."""
        self.pool_reuses += 1

    def note_fusion_flush(self, msgs: int) -> None:
        """Record one group flush that batched ``msgs`` messages."""
        self.fusion_flushes += 1
        self.fusion_msgs += msgs

    def note_fusion_exchange(self) -> None:
        """Record one whole-group rendezvous exchange."""
        self.fusion_exchanges += 1

    def note_fusion_fallback(self, n: int) -> None:
        """Record ``n`` receives of a whole-group rendezvous that no
        deposit carried (sent outside the group, or dropped), matched
        in the mailbox after it."""
        self.fusion_fallbacks += n

    def note_copy_elided(self, n: int = 1) -> None:
        """Record ``n`` payload snapshots replaced by view handoffs."""
        self.copies_elided += n

    def note_copy_forced(self, n: int = 1) -> None:
        """Record ``n`` copy-on-write escapes back to the copying path."""
        self.copies_forced += n

    def note_accumulator_reuse(self) -> None:
        """Record one reduction/staging scratch served from the shared
        pool instead of a fresh allocation."""
        self.accumulator_reuses += 1

    def note_dispatch(self, xccl: bool, fallback: bool = False,
                      ccl_error: bool = False, hier: bool = False,
                      bridge: bool = False) -> None:
        """Record one collective leaving the pipeline's execute stage."""
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
        self.hier_chunks += chunks
        self.hier_stripe_ops += stripe_ops

    def note_negotiation(self) -> None:
        """Record one mixed-vendor capability negotiation (reported by
        rank 0 of the negotiating communicator only, so the counter
        reads "negotiations per communicator", not per rank)."""
        self.negotiations += 1

    def note_bridge(self, hops: int) -> None:
        """Record the host-staged inter-island messages one bridge
        plan execution sent (leaders only report, so the counter is a
        message count, not a per-rank tally)."""
        self.bridge_hops += hops

    def note_coop_run(self, parks: int, switches: int) -> None:
        """Record one engine run (the engine aggregates the scheduler's
        per-run totals here once, at run end)."""
        self.coop_runs += 1
        self.coop_parks += parks
        self.coop_switches += switches

    def note_online_update(self, flipped: bool) -> None:
        """Record one online-tuner bucket re-fit; ``flipped`` when the
        fitted route differs from the static table's choice."""
        self.online_updates += 1
        if flipped:
            self.route_flips += 1

    def note_revoke(self) -> None:
        """Record one communicator revocation (the engine deduplicates,
        so this counts communicators, not raising ranks)."""
        self.comm_revokes += 1

    def note_shrink(self) -> None:
        """Record one completed shrink agreement (the rendezvous
        computes once, so this counts communicators, not ranks)."""
        self.comm_shrinks += 1

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        for name in COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the counters."""
        return {name: getattr(self, name) for name in COUNTERS}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.snapshot()
        return (f"<PlanStats hits={s['hits']} misses={s['misses']} "
                f"compiled={s['compiled']} pool_reuses={s['pool_reuses']}>")


#: process-wide counters (every PlanCache and pool also reports here).
STATS = PlanStats()
