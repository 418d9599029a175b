"""Collective plans: a call's route and executor, found in one lookup.

OMB sweeps and training loops call the *same* collective on the *same*
communicator thousands of times.  What the dispatcher derives for a
call — the Fig. 2 routing decision and what executes it — is a pure
function of the call's :attr:`~repro.mpi.communicator.CollectiveCall.key`
(collective, count, datatype, op, root, in-place spelling, buffer
residency).  A :class:`CollectivePlan` holds both; :class:`PlanCache`
finds it again with one dict lookup (``calls``), and a hit goes
straight to execution.  For the MPI route the executor is the call
key's :class:`~repro.mpi.coll.replay.RoundProgram`: recorded by the
key's first run, replayed by every later one.

The routing decision itself reads less than the key (no root, no buffer
type beyond residency): it is compiled once per *routing* key,

    (mode, collective, byte count, dtype, reduce op, residency)

with one :meth:`~repro.core.dispatch.CollectivePipeline.route` walk, and
shared by every call plan whose key routes alike (``lookup`` /
``store``).  This is the *plan lookup* stage of the dispatch pipeline:
one cache per communicator, in its ledger
(:meth:`~repro.core.dispatch.CollectivePipeline.plan_cache`), dropped
by ``Comm_free``; the mpi4py-style persistent collectives
(``Allreduce_init`` → ``Request.Start()``) compile it at init time
(:meth:`~repro.core.dispatch.CollectivePipeline.warm`).

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
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import fastpath
from repro.core.fallback import RouteDecision


@dataclass
class CollectivePlan:
    """One compiled collective execution plan.

    Attributes:
        key: the key this plan was compiled for (a call key, or a
            routing key for a shared routing decision).
        decision: the Fig. 2 routing decision (MPI vs xCCL + reason).
        spec: the collective's dispatch registry entry (None for a
            collective outside the registry: nothing is routed).
        program: the MPI route's round program (None on the other
            routes, whose execute stage runs as on a miss).
    """

    key: Tuple
    decision: Optional[RouteDecision]
    spec: Any = None
    program: Any = None


class PlanCache:
    """Per-communicator store of compiled plans (a ledger entry), filled
    by ``owner``, the dispatcher whose decisions it holds: ``calls`` by
    call key, and the routing decisions they share by routing key."""

    def __init__(self, owner: Any = None) -> None:
        self.owner = owner
        #: call key -> :class:`CollectivePlan` (route and executor)
        self.calls: Dict[Tuple, CollectivePlan] = {}
        self._plans: Dict[Tuple, CollectivePlan] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Tuple) -> Optional[CollectivePlan]:
        """The routing plan for ``key``, or None (counts hit/miss)."""
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            fastpath.STATS.note_hit()
        else:
            self.misses += 1
            fastpath.STATS.note_miss()
        return plan

    def store(self, key: Tuple, plan: CollectivePlan) -> CollectivePlan:
        """Register a freshly compiled routing plan."""
        self._plans[key] = plan
        fastpath.STATS.note_compiled()
        return plan

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<PlanCache plans={len(self._plans)} calls={len(self.calls)} "
                f"hits={self.hits} misses={self.misses}>")


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
