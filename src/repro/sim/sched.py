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
machine below guarantees exactly one release per park.

With a single token the rank interleaving is a pure function of the
program: the run queue starts in rank order and every transition is
caused by the one running fiber.  Same inputs and same options therefore
give the same virtual times on every topology, contended fabric wires
included.

Parking also buys *exact* deadlock detection: the scheduler knows every
live fiber, so the moment all of them are parked with an empty run
queue no message can ever arrive again — every parked fiber is woken to
raise :class:`~repro.errors.DeadlockError` immediately.  No wall-clock
timeout sits anywhere on an engine-run wait path.

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
run) is a plain attribute: wire bookings, payload leases, buffer pools,
the fast-path counters, the online tuner, the engine's slot and elastic
tables, RMA windows.  A lock stays only where a caller that is not a
fiber of the engine gets in.  The complete list
(``tests/test_run_token.py`` checks it against every
``threading.Lock`` / ``RLock`` / ``Condition`` built under ``src/``):

* ``Mailbox._lock`` — a standalone mailbox is driven by real threads
  (the :class:`ThreadWaitq` fallback, ``tests/test_sim_mailbox.py``).
* ``CollectiveSlot._lock`` — the same fallback for a slot's waitq.
* ``CoopScheduler._lock`` — the run queue: a fiber that hands the
  token on is still leaving :meth:`CoopScheduler.park` while the next
  one runs, and the thread starting the run hands out the first token.
* ``_Fiber.baton`` — the token hand-off itself.
* ``ThreadWaitq._cond`` — the condition an off-engine wait sleeps on.

A new off-engine caller adds its lock here, with the reason.  A fiber
never parks holding a lock other than the one its waitq releases.

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
    """Plain condition-variable wait for callers that are *not* fibers
    (tests poking a standalone :class:`~repro.sim.mailbox.Mailbox` from
    the main thread).  Nothing can detect their deadlocks exactly, so
    the wait is bounded by the monitor's ``timeout_s``."""

    __slots__ = ("_cond", "_monitor")

    def __init__(self, lock, monitor) -> None:
        self._cond = threading.Condition(lock)
        self._monitor = monitor

    def wait_for(self, predicate: Callable[[], bool],
                 stall_msg: Callable[[], str],
                 patient: bool = False) -> None:
        """Block until ``predicate()`` holds (caller owns the lock);
        :class:`DeadlockError` with ``stall_msg()`` on timeout."""
        timeout_s = self._monitor.timeout_s
        if not self._cond.wait_for(predicate, timeout_s):
            raise DeadlockError(
                f"{stall_msg()}; nothing arrived for {timeout_s}s")

    def notify_all(self) -> None:
        """Wake every waiter (caller owns the lock)."""
        self._cond.notify_all()


# fiber lifecycle states
_READY, _RUNNING, _PARKED, _DONE = range(4)


class _Fiber:
    """One rank's cooperative execution context."""

    __slots__ = ("rank", "target", "sched", "baton", "state",
                 "wake_pending", "deadlocked")

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
        #: per-run statistics, aggregated into ``fastpath.STATS`` by the
        #: engine after each run (kept lock-free here: the scheduler
        #: lock already serializes every transition).
        self.parks = 0
        self.switches = 0

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
                self._pass_token_locked()

    def run_ranks(self, targets: Sequence[Tuple[int, Callable[[], None]]]) -> None:
        """Run every ``(rank, target)`` to completion as a fiber."""
        fibers = [_Fiber(rank, target, self) for rank, target in targets]
        self.parks = 0
        self.switches = 0
        self._fibers = fibers
        self._runq = deque(fibers)
        self._unfinished = len(fibers)
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
            self._pass_token_locked()
        for t in threads:
            t.join()

    # -- transitions (all under self._lock) --------------------------------

    def _pass_token_locked(self) -> None:
        """The token is free: hand it to the next ready fiber, or detect
        exact deadlock."""
        if not self._runq:
            if self._unfinished == 0:
                return
            # every live fiber is parked and nothing is queued: no
            # message can ever arrive.  Wake them all to raise.
            for f in self._fibers:
                if f.state == _PARKED:
                    f.deadlocked = True
                    f.state = _READY
                    self._runq.append(f)
        nxt = self._runq.popleft()
        nxt.state = _RUNNING
        self.switches += 1
        nxt.baton.release()

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
            self._pass_token_locked()
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
            self._pass_token_locked()
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
    its baton; there is no polling.  Non-fiber callers transparently
    fall back to a :class:`ThreadWaitq` on the same lock, built the
    first time one shows up.
    """

    __slots__ = ("_lock", "_monitor", "_sched", "_parked", "_fallback")

    def __init__(self, lock, monitor, sched: CoopScheduler) -> None:
        self._lock = lock
        self._monitor = monitor
        self._sched = sched
        self._parked: List[_Fiber] = []
        self._fallback: Optional[ThreadWaitq] = None

    def wait_for(self, predicate: Callable[[], bool],
                 stall_msg: Callable[[], str],
                 patient: bool = False) -> None:
        """Park until ``predicate()`` holds (caller owns the lock)."""
        fiber = self._sched.current()
        if fiber is None:
            if self._fallback is None:
                self._fallback = ThreadWaitq(self._lock, self._monitor)
            return self._fallback.wait_for(predicate, stall_msg, patient)
        strikes = 0
        while True:
            if predicate():
                return
            self._parked.append(fiber)      # registered under the lock
            self._lock.release()
            try:
                self._sched.park(fiber)
            finally:
                self._lock.acquire()
            # notify_all deregisters; a deadlock wake and a no-op park
            # do not — drop any stale registration before deciding
            if self._parked and fiber in self._parked:
                self._parked.remove(fiber)
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

    def notify_all(self) -> None:
        """Wake every waiter (caller owns the lock)."""
        if self._parked:
            woken = self._parked
            self._parked = []
            self._sched.unpark_all(woken)
        if self._fallback is not None:
            self._fallback.notify_all()
