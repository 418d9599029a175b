"""Rank scheduling: cooperative run-queue fibers under one run token.

Every engine runs its ranks as *fibers*.  Each fiber owns a
(small-stack) carrier thread, so rank programs keep ordinary blocking
call-stacks and ``threading.local`` state, but exactly one fiber holds
the *run token* at any moment (the GIL makes more pointless for
pure-Python work).  A blocked fiber parks on a :class:`CoopWaitq`: it
costs one list entry and a held lock — zero CPU, no polling — and the
token passes through an explicit run queue to the next ready fiber.
``notify_all`` moves parked fibers back onto the run queue.

The token hand-off is one raw :class:`threading.Lock` per fiber used as
a binary semaphore (the *baton*): born held, released by whoever hands
the fiber the token, re-taken by the fiber as it resumes.  The state
machine below guarantees at most one release per park.  A release is
an OS hand-off — the next fiber's thread wakes while the releaser's
blocks (``CoopScheduler.handoffs`` counts them).

A woken fiber's next steps need not run on its own thread.  A fiber
that parks with a *steal hook* (:meth:`CoopWaitq.wait_for` ``steal``)
lets whichever thread holds the token run those steps for it: the
thread that parks, yields or finishes takes the head of the run queue
as always, and when that head is such a fiber, not woken by deadlock
detection or a give-way, it calls the hook instead of releasing the
baton.  The hook runs the fiber's steps until the fiber would park
again — then it names the wait queue to park on, and the fiber is
re-registered there, a park and a switch like any other — or until
its own thread must go on: the end of its steps, or anything that can
raise or change course, which the hook leaves untouched (a hook never
raises).  Only then is the baton released.  The stolen steps run at
the very point of the run token's order where the fiber's own thread
would have run them, so the interleaving, and every count, is the
same.  (A stolen re-park registers the fiber directly: it passes
neither through :meth:`CoopWaitq.wait_for` nor
:meth:`CoopScheduler.park`.)

With a single token the rank interleaving is a pure function of the
program: the run queue starts in rank order and every transition is
caused by the one running fiber.  Same inputs and same options therefore
give the same virtual times on every topology, contended fabric wires
included.

Parking also buys *exact* deadlock detection: the scheduler knows every
live fiber, so the moment all of them are parked with an empty run
queue no message can ever arrive again — every parked fiber is woken to
raise :class:`~repro.errors.DeadlockError` immediately.  No wall-clock
timeout sits anywhere on an engine-run wait path.  A wait may *give
way* instead (:meth:`CoopWaitq.wait_for` with ``gives_way``): a member
gathered for a central replay waits for company it may never get, so
before a deadlock is declared every such waiter is released to do its
own work, and only if that makes no progress do the waiters raise.

Two rules a rank program must keep:

* never block on an OS primitive another rank is meant to release
  (a ``threading.Event``, a ``queue.Queue``): the waiter would keep the
  token and the releaser would never run;
* never spin without an MPI call.  Polling calls that can report "not
  yet" (``Request.test``, ``Iprobe``) pass the token on through
  :func:`yield_now`, so ``while not req.test()[0]: pass`` is fine; a
  loop that never enters the library is not.  (``waitany`` parks on
  the caller's mailbox between its passes instead.)

The run token is the only lock rank code needs.  One fiber of an engine
runs at a time, and every hand-off is a baton release paired with the
next fiber's acquire — a happens-before edge — so state that only one
engine's fibers touch during a run (or the caller's thread outside a
run) is a plain attribute: mailboxes and rendezvous slots, wire
bookings, payload leases, buffer pools, the fast-path counters, the
online tuner, the engine's slot and elastic tables.

The engine is the only waiter: a wait made outside a run fails at once.
A caller that is not a fiber of the engine (the main thread before or
after :meth:`CoopScheduler.run_ranks`) may post, probe and poll, but a
wait whose predicate does not already hold raises
:class:`~repro.errors.DeadlockError` from :class:`ThreadWaitq` instead
of sleeping — nothing outside a run can ever satisfy it.  A lock stays
only where the scheduler itself hands the token between threads.  The
complete list (``tests/test_run_token.py`` checks it against every
``threading.Lock`` / ``RLock`` / ``Condition`` built under ``src/``):

* ``CoopScheduler._lock`` — the run queue: a fiber that hands the
  token on is still leaving :meth:`CoopScheduler.park` while the next
  one runs, and the thread starting the run hands out the first token.
* ``_Fiber.baton`` — the token hand-off itself.

A fiber never parks holding a lock.

Carrier threads ask the OS for ``SCHED_BATCH``: a baton release wakes
the next fiber's thread, and under the default policy Linux lets it
preempt the releaser — which still holds the GIL — only for it to block
again at once.  The hint is per thread (the thread that starts the run
keeps its policy), a silent no-op where the call is missing or refused,
and invisible to virtual time.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.errors import DeadlockError

#: deadlock firings a *patient* wait tolerates before it gives up.
#: Patient waits are the ULFM recovery rendezvous (agree / shrink):
#: during elastic recovery the detector fires while surviving ranks are
#: still converting their own failures one by one, so a recovery waiter
#: treats the first few firings as spurious and keeps waiting; a genuine
#: recovery deadlock still raises after the budget.
PATIENT_STALLS = 8

#: the fiber each carrier thread runs (unset on every other thread)
_carried = threading.local()


def yield_now() -> None:
    """Let every other ready rank run before the caller continues.

    Called from the "not yet" branch of the non-blocking polls: a rank
    that spins on one would otherwise keep the run token forever and
    starve the very peer it is polling for.  A no-op off-engine.
    """
    fiber = getattr(_carried, "fiber", None)
    if fiber is not None:
        fiber.sched.yield_now(fiber)


class ThreadWaitq:
    """The wait of whatever is not a fiber: a standalone
    :class:`~repro.sim.mailbox.Mailbox`, or a caller of an engine's
    mailbox or slot from outside its run.  Nothing off the engine can
    make progress for it, so a wait whose predicate does not hold
    already is a deadlock, reported at once."""

    __slots__ = ()

    def wait_for(self, predicate: Callable[[], bool],
                 stall_msg: Callable[[], str],
                 patient: bool = False) -> None:
        """Return if ``predicate()`` holds; else :class:`DeadlockError`
        with ``stall_msg()``."""
        if not predicate():
            raise DeadlockError(
                f"{stall_msg()}; the wait was made outside an engine run")

    def notify_all(self) -> None:
        """Nobody off the engine ever waits: nothing to wake."""


#: the one off-engine waitq (it holds no state)
OFF_ENGINE = ThreadWaitq()


# fiber lifecycle states
_READY, _RUNNING, _PARKED, _DONE = range(4)


class _Fiber:
    """One rank's cooperative execution context."""

    __slots__ = ("rank", "target", "sched", "baton", "state",
                 "wake_pending", "deadlocked", "gave_way", "steal")

    def __init__(self, rank: int, target: Callable[[], None],
                 sched: "CoopScheduler") -> None:
        self.rank = rank
        self.target = target
        self.sched = sched
        #: run-token hand-off: held while the fiber may not run,
        #: released once by whoever makes it RUNNING.
        self.baton = threading.Lock()
        self.baton.acquire()
        self.state = _READY
        #: a notify raced our park: skip the deschedule and re-check.
        self.wake_pending = False
        #: woken by exact deadlock detection: raise instead of resuming.
        self.deadlocked = False
        #: released from a wait that gives way (before a deadlock would
        #: be declared): return instead of waiting on.
        self.gave_way = False
        #: while parked in a wait that allows it, the hook that runs
        #: its next steps on the token holder's thread (module docstring)
        self.steal: Optional[Callable[[], Optional["CoopWaitq"]]] = None


class CoopScheduler:
    """Explicit run-queue scheduler for one engine's rank fibers.

    One fiber is RUNNING (holds the token); everyone else is READY
    (queued for it) or PARKED (waiting in some :class:`CoopWaitq`).  All
    transitions happen under one scheduler lock, so the ``nobody running
    and runq empty and unfinished > 0`` deadlock condition is exact, not
    heuristic.
    """

    #: carrier threads never recurse deeply (rank programs are iterative
    #: MPI algorithms); a 1 MiB stack keeps thousands of them cheap.
    STACK_BYTES = 1 << 20

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runq: Deque[_Fiber] = deque()
        self._fibers: List[_Fiber] = []
        self._unfinished = 0
        #: wait queues whose waiters give way before a deadlock
        self._giving_way: List["CoopWaitq"] = []
        #: per-run statistics, aggregated into ``fastpath.STATS`` by the
        #: engine after each run (kept lock-free here: the scheduler
        #: lock already serializes every transition).
        self.parks = 0
        self.switches = 0
        #: baton releases (OS hand-offs between carrier threads)
        self.handoffs = 0

    def current(self) -> Optional[_Fiber]:
        """The fiber of *this* scheduler the calling thread carries
        (None off-engine, and for another engine's fiber)."""
        fiber = getattr(_carried, "fiber", None)
        return fiber if fiber is not None and fiber.sched is self else None

    # -- carrier side ------------------------------------------------------

    def _carrier(self, fiber: _Fiber) -> None:
        _carried.fiber = fiber
        try:    # a woken carrier must not preempt the one handing over
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except (AttributeError, OSError):   # pragma: no cover - platform
            pass
        fiber.baton.acquire()       # first run token
        try:
            fiber.target()
        finally:
            with self._lock:
                fiber.state = _DONE
                self._unfinished -= 1
                nxt = self._pass_token_locked()
            self._hand_to(nxt)

    def run_ranks(self, targets: Sequence[Tuple[int, Callable[[], None]]]) -> None:
        """Run every ``(rank, target)`` to completion as a fiber."""
        fibers = [_Fiber(rank, target, self) for rank, target in targets]
        self.parks = 0
        self.switches = 0
        self.handoffs = 0
        self._fibers = fibers
        self._runq = deque(fibers)
        self._unfinished = len(fibers)
        self._giving_way = []
        prev_stack = None
        try:
            prev_stack = threading.stack_size(self.STACK_BYTES)
        except (ValueError, RuntimeError):  # pragma: no cover - platform
            prev_stack = None
        try:
            threads = [threading.Thread(target=self._carrier, args=(f,),
                                        name=f"rank{f.rank}", daemon=True)
                       for f in fibers]
            for t in threads:
                t.start()
        finally:
            if prev_stack is not None:
                threading.stack_size(prev_stack)
        with self._lock:
            nxt = self._pass_token_locked()
        self._hand_to(nxt)
        for t in threads:
            t.join()

    # -- transitions (all under self._lock) --------------------------------

    def _pass_token_locked(self) -> Optional[_Fiber]:
        """The token is free: the next ready fiber, RUNNING from now on
        (its baton is the caller's to release, :meth:`_hand_to`), or
        exact deadlock detected.  None: every fiber finished."""
        if not self._runq:
            if self._unfinished == 0:
                return None
            # every live fiber is parked and nothing is queued: first
            # release the waits that give way ...
            for waitq in self._giving_way:
                for f in waitq._parked:
                    if f.state == _PARKED:
                        f.gave_way = True
                        f.state = _READY
                        self._runq.append(f)
                waitq._parked = []
            self._giving_way = []
        if not self._runq:
            # ... and if there were none, no message can ever arrive.
            # Wake them all to raise.
            for f in self._fibers:
                if f.state == _PARKED:
                    f.deadlocked = True
                    f.state = _READY
                    self._runq.append(f)
        nxt = self._runq.popleft()
        nxt.state = _RUNNING
        self.switches += 1
        return nxt

    def _hand_to(self, nxt: Optional[_Fiber]) -> None:
        """Give the run token to ``nxt`` (the caller holds it, not the
        lock): run the next steps of every fiber its steal hook can run
        here, re-parking each as it would park itself, and release the
        baton of the first that must go on on its own thread."""
        while nxt is not None:
            steal = nxt.steal
            waitq = None
            if steal is not None and not (nxt.deadlocked or nxt.gave_way):
                waitq = steal()
            if waitq is None:
                self.handoffs += 1
                nxt.baton.release()
                return
            with self._lock:
                if nxt.wake_pending:
                    # as in park: keep the token and re-check
                    nxt.wake_pending = False
                    continue
                waitq._parked.append(nxt)
                nxt.state = _PARKED
                self.parks += 1
                nxt = self._pass_token_locked()

    def park(self, fiber: _Fiber) -> None:
        """Deschedule the calling fiber until a notify (or deadlock
        detection) makes it runnable.  The caller must hold **no**
        locks."""
        with self._lock:
            if fiber.wake_pending:
                # a notify landed between the predicate check and here:
                # keep the run token and let the caller re-check
                fiber.wake_pending = False
                return
            fiber.state = _PARKED
            self.parks += 1
            nxt = self._pass_token_locked()
        self._hand_to(nxt)
        fiber.baton.acquire()

    def yield_now(self, fiber: _Fiber) -> None:
        """Requeue the calling fiber at the tail of the run queue and
        pass the token on; returns once every fiber that was ready has
        had its turn.  A no-op when nobody else is ready."""
        if not self._runq:
            return
        with self._lock:
            if not self._runq:
                return
            fiber.state = _READY
            self._runq.append(fiber)
            nxt = self._pass_token_locked()
        self._hand_to(nxt)
        fiber.baton.acquire()

    def unpark_all(self, fibers: Sequence[_Fiber]) -> None:
        """Make every fiber in ``fibers`` runnable (a notify_all).  They
        only join the run queue: while any fiber is unfinished somebody
        holds the token and will pass it on."""
        if not fibers:
            return
        with self._lock:
            for f in fibers:
                if f.state == _PARKED:
                    f.state = _READY
                    self._runq.append(f)
                elif f.state != _DONE:
                    # racing with its own park(), or already queued: a
                    # pending wake makes the park a no-op re-check
                    f.wake_pending = True


class CoopWaitq:
    """Parked-fiber wait queue — what mailboxes and rendezvous slots
    block on.

    A parked rank costs one list entry here plus its carrier blocked on
    its baton; there is no polling.  A caller that is not a fiber of
    this engine is handed to :data:`OFF_ENGINE`: its wait fails at once.
    """

    __slots__ = ("_sched", "_parked")

    def __init__(self, sched: CoopScheduler) -> None:
        self._sched = sched
        self._parked: List[_Fiber] = []

    def wait_for(self, predicate: Callable[[], bool],
                 stall_msg: Callable[[], str],
                 patient: bool = False, gives_way: bool = False,
                 steal: Optional[Callable[[], Optional["CoopWaitq"]]] = None
                 ) -> bool:
        """Park until ``predicate()`` holds (the caller holds the run
        token).  A wait that ``gives_way`` returns False instead when
        every fiber is parked: the scheduler released it so that its
        caller does the work it was waiting for company to do.  While
        the caller is parked, ``steal`` may run its next steps on the
        thread holding the token (the module docstring), so
        ``predicate`` and ``stall_msg`` read where those left it."""
        fiber = self._sched.current()
        if fiber is None:
            OFF_ENGINE.wait_for(predicate, stall_msg, patient)
            return True
        strikes = 0
        while not predicate():
            self._parked.append(fiber)
            if gives_way and self not in self._sched._giving_way:
                self._sched._giving_way.append(self)
            fiber.steal = steal
            self._sched.park(fiber)
            fiber.steal = None
            # notify_all deregisters; a deadlock wake and a no-op park
            # do not — drop any stale registration before deciding
            if self._parked and fiber in self._parked:
                self._parked.remove(fiber)
            if fiber.gave_way:
                fiber.gave_way = False
                return False
            if gives_way and not self._parked:
                giving_way = self._sched._giving_way
                if self in giving_way:
                    giving_way.remove(self)
            if fiber.deadlocked:
                # always clear the flag: a caller that survives the
                # raise (elastic recovery) must be able to park again
                # without spuriously re-raising
                fiber.deadlocked = False
                if patient and strikes < PATIENT_STALLS:
                    # recovery rendezvous: peers may still be converting
                    # their own failures; treat the firing as spurious
                    strikes += 1
                    continue
                raise DeadlockError(
                    f"{stall_msg()}; every live rank is parked "
                    f"(exact deadlock)")
        return True

    def notify_all(self) -> None:
        """Wake every waiter."""
        if self._parked:
            woken = self._parked
            self._parked = []
            self._sched.unpark_all(woken)

    def notify_last(self) -> bool:
        """Wake the waiter that parked last, only; False when none
        waits."""
        if not self._parked:
            return False
        self._sched.unpark_all([self._parked.pop()])
        return True
