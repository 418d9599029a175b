"""Collective plans: a call's route and executor, found in one lookup.

OMB sweeps and training loops call the *same* collective on the *same*
communicator thousands of times.  What the dispatcher derives for a
call — the Fig. 2 routing decision and what executes it — is a pure
function of the call's :attr:`~repro.mpi.communicator.CollectiveCall.key`
(collective, count, datatype, op, root, in-place spelling, buffer
residency).  A :class:`CollectivePlan` holds both, decided once per
call key with one
:meth:`~repro.core.dispatch.CollectivePipeline.decide` walk;
:class:`PlanCache` finds it again with one dict lookup (``lookup``,
which counts the hit or the miss), and a hit goes straight to
execution.  For the MPI route the executor is the call key's
:class:`~repro.mpi.coll.replay.RoundProgram`: recorded by the key's
first run, replayed by every later one.

This is the *plan lookup* stage of the dispatch pipeline: one cache per
communicator, in its ledger
(:meth:`~repro.core.dispatch.CollectivePipeline.plan_cache`), dropped
by ``Comm_free``; the mpi4py-style persistent collectives
(``Allreduce_init`` → ``Request.Start()``) plan their key at init time
(:meth:`~repro.core.dispatch.CollectivePipeline.warm`).  A call without
a key (its buffers do not hold the datatype's elements) and a
collective the online tuner steers are planned afresh on every call.

:class:`BufferPool` is the allocation-reuse half: staging scratch
buffers keyed by (residency, dtype, element count) are recycled across
iterations instead of re-allocated (``alloc_like`` charges no virtual
time, so pooling is invisible to the simulated clock).

A replayed plan is what a fresh derivation would compute:
``tests/test_conformance.py`` pins whole programs against the clocks
the per-call derivation gave (``tests/frozen_reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import fastpath
from repro.core.fallback import RouteDecision


@dataclass
class CollectivePlan:
    """One call key's execution plan.

    Attributes:
        key: the call key this plan was decided for.
        decision: the Fig. 2 routing decision (route + reason).
        program: the MPI route's round program (None on the CCL routes,
            whose executor the decision names).
    """

    key: Optional[Tuple]
    decision: RouteDecision
    program: Any = None


class PlanCache:
    """Per-communicator store of call plans (a ledger entry), filled by
    ``owner``, the dispatcher whose decisions they hold."""

    def __init__(self, owner: Any = None) -> None:
        self.owner = owner
        #: call key -> :class:`CollectivePlan` (route and executor)
        self.calls: Dict[Tuple, CollectivePlan] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Optional[Tuple]) -> Optional[CollectivePlan]:
        """The plan for call key ``key``, or None (counts hit/miss)."""
        plan = self.calls.get(key)
        if plan is None:
            self.misses += 1
            fastpath.STATS.misses += 1
        else:
            self.hits += 1
            fastpath.STATS.hits += 1
        return plan

    def store(self, key: Tuple, plan: CollectivePlan) -> CollectivePlan:
        """Register a freshly decided plan."""
        self.calls[key] = plan
        return plan

    def __len__(self) -> int:
        return len(self.calls)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PlanCache calls={len(self.calls)} hits={self.hits} "
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
    ranks), so it takes no lock.  ``counter`` names the
    :data:`repro.fastpath.STATS` counter a pool hit bumps, so
    accumulator reuse is counted separately from per-rank staging
    reuse.
    """

    def __init__(self, cap_per_key: int = POOL_CAP_PER_KEY,
                 counter: str = "pool_reuses") -> None:
        self._free: Dict[Tuple, List[Any]] = {}
        self.cap_per_key = cap_per_key
        self.counter = counter

    def acquire(self, key: Tuple) -> Optional[Any]:
        """Pop a pooled buffer for ``key`` (None when empty)."""
        free = self._free.get(key)
        if not free:
            return None
        stats = fastpath.STATS
        setattr(stats, self.counter, getattr(stats, self.counter) + 1)
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
