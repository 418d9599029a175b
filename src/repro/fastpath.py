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
    "hits", "misses", "pool_reuses",
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
    "negotiations",        # capability negotiations (rank 0: per comm)
    "route_bridge",        # execute stage ran the bridge plan
    "bridge_hops",         # host-staged inter-island messages (leaders)
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
    per-communicator view as well.  The counters are plain ints, and
    the code that counts bumps one directly
    (``fastpath.STATS.copies_elided += 1``): an engine's ranks do so
    under its run token (:mod:`repro.sim.sched`).  ``Engine()`` zeroes them, so engines
    running concurrently in one process never had meaningful counts;
    the cure for that is counters owned by the engine (ROADMAP), not a
    lock.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (test isolation)."""
        for name in COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the counters."""
        return {name: getattr(self, name) for name in COUNTERS}


#: process-wide counters (every PlanCache and pool also reports here).
STATS = PlanStats()
