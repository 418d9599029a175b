"""Nonblocking requests (``MPI_Request`` analogue).

A :class:`Request` wraps a completion thunk produced by the p2p layer.
``wait`` runs it (blocking if the underlying protocol must block, e.g.
a rendezvous send waiting for its clear-to-send); ``test`` polls.
:func:`waitall` completes a batch in order — sufficient for the
request patterns the collectives and OMB windows use.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import MPIError
from repro.mpi.status import Status
from repro.sim.sched import yield_now


class Request:
    """Handle to an in-flight nonblocking operation."""

    def __init__(self, complete: Callable[[bool], Optional[Status]],
                 kind: str = "p2p") -> None:
        """``complete(blocking)`` drives the operation: with
        ``blocking=True`` it must finish and return a Status; with
        ``blocking=False`` it may return None to signal "not yet"."""
        self._complete = complete
        self._status: Optional[Status] = None
        self._done = False
        self.kind = kind

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
        if self._done:
            return True, self._status
        status = self._complete(False)
        if status is not None:
            self._status = status
            self._done = True
            return True, status
        yield_now()
        return False, None

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

    Polls in order, then blocks on the first — adequate for the
    simulator, where blocking order does not change virtual time
    materially.
    """
    if not requests:
        raise MPIError("waitany on empty request list")
    for i, r in enumerate(requests):
        ok, status = r.test()
        if ok:
            return i, status  # type: ignore[return-value]
    return 0, requests[0].wait()
