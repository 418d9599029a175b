"""Collective plans: the routing decision, compiled once and replayed.

OMB sweeps and training loops call the *same* collective on the *same*
communicator thousands of times.  The Fig. 2 routing decision the
dispatcher derives per call is a pure function of a small key:

    (communicator, collective, dtype, reduce op, byte count, residency)

A :class:`CollectivePlan` captures that decision once;
:class:`PlanCache` replays it on every later call with one dict lookup.
This is the *plan lookup* stage of the dispatch pipeline: one cache per
communicator, in its ledger
(:meth:`~repro.core.dispatch.CollectivePipeline.plan_cache`), dropped
by ``Comm_free``; the mpi4py-style persistent collectives
(``Allreduce_init`` → ``Request.Start()``) warm it at init time
(:meth:`~repro.core.dispatch.CollectivePipeline.warm`).

:class:`BufferPool` is the allocation-reuse half: staging scratch
buffers keyed by (residency, dtype, element count) are recycled across
iterations instead of re-allocated (``alloc_like`` charges no virtual
time, so pooling is invisible to the simulated clock).

A replayed plan is what a fresh derivation would compute: the cached
decision comes from one :meth:`CollectivePipeline.route` walk, and
``tests/test_plan_cache.py`` pins whole programs against the clocks
the per-call derivation gave (``tests/frozen_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import fastpath
from repro.core.fallback import RouteDecision


@dataclass
class CollectivePlan:
    """One compiled collective execution plan.

    Attributes:
        key: the cache key this plan was compiled for.
        decision: the Fig. 2 routing decision (MPI vs xCCL + reason).
    """

    key: Tuple
    decision: RouteDecision


class PlanCache:
    """Per-communicator store of compiled plans (a ledger entry), filled
    by ``owner``, the dispatcher whose decisions it holds."""

    def __init__(self, owner: Any = None) -> None:
        self.owner = owner
        self._plans: Dict[Tuple, CollectivePlan] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Tuple) -> Optional[CollectivePlan]:
        """The cached plan for ``key``, or None (counts hit/miss)."""
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            fastpath.STATS.note_hit()
        else:
            self.misses += 1
            fastpath.STATS.note_miss()
        return plan

    def store(self, key: Tuple, plan: CollectivePlan) -> CollectivePlan:
        """Register a freshly compiled plan."""
        self._plans[key] = plan
        fastpath.STATS.note_compiled()
        return plan

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PlanCache plans={len(self._plans)} hits={self.hits} "
                f"misses={self.misses}>")


#: keep at most this many free buffers per (residency, dtype, count).
POOL_CAP_PER_KEY = 8


class BufferPool:
    """Free-list of staging buffers keyed by shape.

    ``acquire`` hands back a previously released buffer of the exact
    (residency, dtype, count) shape, or None when the pool is empty —
    the caller then allocates fresh.  Contents are undefined on
    acquire, matching ``alloc_like``'s ``np.empty`` semantics.

    A pool is used by one rank (its staging pool) or by one engine's
    ranks under the run token (the engine's shared accumulator pool,
    whose reduction scratch the zero-copy collectives hand between
    ranks), so it takes no lock.  ``reuse_note`` names the
    :data:`repro.fastpath.STATS` callback credited on a pool hit, so
    accumulator reuse is counted separately from per-rank staging
    reuse.
    """

    def __init__(self, cap_per_key: int = POOL_CAP_PER_KEY,
                 reuse_note: Optional[Callable[[], None]] = None) -> None:
        self._free: Dict[Tuple, List[Any]] = {}
        self.cap_per_key = cap_per_key
        self._reuse_note = reuse_note or fastpath.STATS.note_pool_reuse

    def acquire(self, key: Tuple) -> Optional[Any]:
        """Pop a pooled buffer for ``key`` (None when empty)."""
        free = self._free.get(key)
        if not free:
            return None
        self._reuse_note()
        return free.pop()

    def release(self, key: Tuple, buf: Any) -> None:
        """Return a buffer to the pool (dropped beyond the cap)."""
        free = self._free.setdefault(key, [])
        if len(free) < self.cap_per_key:
            free.append(buf)

    def clear(self) -> None:
        """Drop every pooled buffer."""
        self._free.clear()

    def __len__(self) -> int:
        return sum(len(v) for v in self._free.values())
