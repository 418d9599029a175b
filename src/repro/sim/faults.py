"""Fault injection for the SPMD engine.

Communication failures are where runtime designs earn their keep: the
paper's §4.4 anecdote (pure NCCL 2.18.3 erroring on ThetaGPU until the
authors bisected library versions, while MPI-xCCL just swapped
backends) is an availability story.  This module lets tests inject
deterministic faults — dropped messages, delayed messages, ranks dying
mid-run — and assert the runtime's failure behaviour: deadlock
detection fires, delays propagate through virtual time correctly, and
the hybrid layer's CCL-error fallback engages.

Faults are deterministic by construction (match on the Nth message of
a (src, dst) pair), never random, so failing tests replay exactly.

A plan is engine data, and a faulted run is the fault-free program plus
the faults it names: drop and delay rules become every mailbox's
delivery ``filter``, which also sees a hinted CCL group's rows before
its whole-group exchange (in the order ``post_many`` would), so no rule
changes a transport; kill rules become the named ranks' clocks, armed
by ``Engine.run``.  A kill-only plan leaves every message path alone.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import RankKilledError, SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.engine import Engine
from repro.sim.mailbox import Message


@dataclass(frozen=True)
class DropRule:
    """Silently discard the ``nth`` (0-based) message from ``src`` to
    ``dst`` — a lost packet the transport never retransmits."""

    src: int
    dst: int
    nth: int


@dataclass(frozen=True)
class DelayRule:
    """Add ``delay_us`` of virtual latency to the ``nth`` message from
    ``src`` to ``dst`` — congestion, a retransmit, a slow switch hop."""

    src: int
    dst: int
    nth: int
    delay_us: float


@dataclass(frozen=True)
class KillRule:
    """Kill ``rank`` the first time its virtual clock advances past
    ``after_us`` — a node OOM, a segfaulting library, a power event.
    Deterministic: virtual time is identical run to run, so the death
    always lands at the same point of the program."""

    rank: int
    after_us: float


@dataclass
class FaultPlan:
    """A deterministic set of faults for one run."""

    drops: List[DropRule] = field(default_factory=list)
    delays: List[DelayRule] = field(default_factory=list)
    kills: List[KillRule] = field(default_factory=list)

    def drop(self, src: int, dst: int, nth: int = 0) -> "FaultPlan":
        """Add a drop rule (chainable)."""
        self.drops.append(DropRule(src, dst, nth))
        return self

    def delay(self, src: int, dst: int, delay_us: float,
              nth: int = 0) -> "FaultPlan":
        """Add a delay rule (chainable)."""
        if delay_us < 0:
            raise SimulationError(f"negative delay {delay_us}")
        self.delays.append(DelayRule(src, dst, nth, delay_us))
        return self

    def kill(self, rank: int, after_us: float = 0.0) -> "FaultPlan":
        """Add a kill rule (chainable): ``rank`` dies at its first
        clock advance crossing ``after_us``.  Survivors that touch the
        dead rank see :class:`~repro.errors.CommRevokedError` and can
        ``Comm_agree`` + ``Comm_shrink``; a program that does not catch
        it fails the run with :class:`RankFailedError`, and one whose
        survivors all finish returns with ``None`` in the dead slot."""
        if after_us < 0:
            raise SimulationError(f"negative kill time {after_us}")
        self.kills.append(KillRule(rank, after_us))
        return self


class _KilledClock(VirtualClock):
    """A rank's clock with a death deadline.

    The kill fires on the first :meth:`advance` that lands at or past
    the deadline — advances model local work, so the rank is "on CPU"
    and can die; merges only adopt other ranks' timestamps, so they
    never fire the kill (a dead rank cannot observe anything anyway).
    """

    __slots__ = ("_engine", "_rank", "_deadline", "_fired")

    def __init__(self, engine: Engine, rank: int, deadline_us: float,
                 start_us: float = 0.0) -> None:
        super().__init__(start_us)
        self._engine = engine
        self._rank = rank
        self._deadline = float(deadline_us)
        self._fired = False

    def advance(self, dt_us: float) -> float:
        now = super().advance(dt_us)
        if not self._fired and now >= self._deadline:
            self._fired = True
            self._engine.note_rank_dead(self._rank)
            raise RankKilledError(self._rank, at_us=now)
        return now


class FaultInjector:
    """A :class:`FaultPlan` installed on an engine (``engine.faults``).

    Install *before* ``engine.run``.  With drop or delay rules, every
    mailbox gets :meth:`admit` as its delivery filter, which matches
    messages by (src, dst) posting order; kill rules are armed on the
    rank clocks when the run builds them (:meth:`arm_kills`).
    """

    def __init__(self, engine: Engine, plan: FaultPlan) -> None:
        self.engine = engine
        self.plan = plan
        self._counts: Dict[Tuple[int, int], int] = defaultdict(int)
        self.dropped: List[Message] = []
        self.delayed: List[Message] = []
        self.killed: List[int] = []
        engine.faults = self
        if plan.drops or plan.delays:
            for mailbox in engine._mailboxes:
                mailbox.filter = self.admit

    def admit(self, msg: Message) -> bool:
        """The delivery filter: count ``msg`` as the nth of its (src,
        dst) pair, then drop it (False) or add its delay."""
        key = (msg.src, msg.dst)
        n = self._counts[key]
        self._counts[key] += 1
        for rule in self.plan.drops:
            if (rule.src, rule.dst, rule.nth) == (msg.src, msg.dst, n):
                self.dropped.append(msg)
                return False
        for rule in self.plan.delays:
            if (rule.src, rule.dst, rule.nth) == (msg.src, msg.dst, n):
                msg.arrival_us += rule.delay_us
                self.delayed.append(msg)
        return True

    def arm_kills(self, contexts) -> None:
        """Swap in a deadline clock for every rank a kill rule names."""
        for ctx in contexts:
            for rule in self.plan.kills:
                if rule.rank == ctx.rank:
                    ctx.clock = _KilledClock(self.engine, ctx.rank,
                                             rule.after_us,
                                             start_us=ctx.clock.now)
                    self.killed.append(ctx.rank)

    @property
    def messages_seen(self) -> int:
        """Total messages the delivery filter saw (0 for a plan with no
        drop or delay rule: it filters nothing)."""
        return sum(self._counts.values())


def with_faults(engine: Engine, plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` on ``engine`` and return the injector (for
    post-run inspection)."""
    return FaultInjector(engine, plan)
