"""Nonblocking requests (``MPI_Request`` analogue).

A :class:`Request` wraps a completion thunk produced by the p2p layer.
``wait`` runs it (blocking if the underlying protocol must block, e.g.
a rendezvous send waiting for its clear-to-send); ``test`` polls.
:func:`waitall` completes a batch in order — sufficient for the
request patterns the collectives and OMB windows use; :func:`waitany`
completes whichever request can complete first.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import MPIError
from repro.mpi.status import Status
from repro.sim.mailbox import Mailbox
from repro.sim.sched import yield_now


class Request:
    """Handle to an in-flight nonblocking operation."""

    def __init__(self, complete: Callable[[bool], Optional[Status]],
                 kind: str = "p2p", mailbox: Optional[Mailbox] = None) -> None:
        """``complete(blocking)`` drives the operation: with
        ``blocking=True`` it must finish and return a Status; with
        ``blocking=False`` it may return None to signal "not yet".
        ``mailbox`` is the one whose next delivery may complete it."""
        self._complete = complete
        self._status: Optional[Status] = None
        self._done = False
        self.kind = kind
        self.mailbox = mailbox

    def wait(self) -> Status:
        """Block until complete; returns the Status."""
        if not self._done:
            status = self._complete(True)
            if status is None:
                raise MPIError(f"{self.kind} request failed to complete")
            self._status = status
            self._done = True
        return self._status  # type: ignore[return-value]

    def test(self) -> Tuple[bool, Optional[Status]]:
        """Poll for completion without blocking.  "Not yet" lets the
        other ranks run before returning, so a ``while not test()``
        loop cannot starve the peer it is waiting for."""
        if self._poll():
            return True, self._status
        yield_now()
        return False, None

    def _poll(self) -> bool:
        """Drive the operation without blocking or yielding; True once
        it is complete."""
        if not self._done:
            status = self._complete(False)
            if status is None:
                return False
            self._status, self._done = status, True
        return True

    @property
    def done(self) -> bool:
        """True once wait/test observed completion."""
        return self._done

    @staticmethod
    def completed(status: Status, kind: str = "p2p") -> "Request":
        """A request that is already complete (eager sends)."""
        req = Request(lambda blocking: status, kind)
        req._status = status
        req._done = True
        return req


def waitall(requests: Sequence[Request]) -> List[Status]:
    """Complete every request; returns their Statuses in order."""
    return [r.wait() for r in requests]


def waitany(requests: Sequence[Request]) -> Tuple[int, Status]:
    """Complete one request; returns (index, status).

    Polls every request until one completes, parking on the caller's
    mailbox between passes: every p2p request completes on a delivery
    there (a receive's match, a rendezvous send's clear-to-send), and
    parking lets the other ranks run.  So the first request that *can*
    complete wins, not the first listed, and exact deadlock detection
    still fires when none ever can.  Requests with no mailbox (none of
    them can be completed by a delivery) block on the first.
    """
    if not requests:
        raise MPIError("waitany on empty request list")
    box = next((r.mailbox for r in requests if r.mailbox is not None), None)
    while True:
        for i, r in enumerate(requests):
            if r._poll():
                return i, r._status  # type: ignore[return-value]
        if box is None:
            return 0, requests[0].wait()
        box.await_post("waitany")
