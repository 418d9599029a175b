"""Streams and events in virtual time.

A CUDA/HIP/SynapseAI stream is an ordered work queue: operations
enqueued on a stream complete in order, and ``synchronize`` blocks the
host until everything enqueued so far is done.  The paper's abstraction
layer hides per-vendor stream handling (advantage 2 of §1.2); this
module gives it something real to hide.

In virtual time, a stream is simply a monotonically-advancing
``ready_time``: enqueuing work at host-time ``t`` with duration ``d``
sets ``ready_time = max(ready_time, t) + d``, and synchronizing at
host-time ``t`` returns ``max(t, ready_time)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import StreamError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.device import Accelerator


class Event:
    """A marker in a stream's timeline (``cudaEvent_t``)."""

    __slots__ = ("name", "_time")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._time: Optional[float] = None

    @property
    def recorded(self) -> bool:
        """True once the event has been recorded into a stream."""
        return self._time is not None

    @property
    def timestamp(self) -> float:
        """Virtual time at which the event completes."""
        if self._time is None:
            raise StreamError(f"event {self.name!r} queried before record")
        return self._time


class Stream:
    """An in-order work queue on one accelerator."""

    __slots__ = ("device", "name", "ready_time", "enqueued")

    def __init__(self, device: "Accelerator", name: str = "") -> None:
        self.device = device
        self.name = name
        self.ready_time = 0.0
        #: how many ops were enqueued since creation / :meth:`reset`
        self.enqueued = 0

    def enqueue(self, duration_us: float, host_time_us: float = 0.0) -> float:
        """Enqueue work of ``duration_us`` issued at ``host_time_us``.

        Returns the virtual completion time of the work.
        """
        if duration_us < 0:
            raise StreamError(f"negative duration {duration_us}")
        start = max(self.ready_time, host_time_us)
        self.ready_time = start + duration_us
        self.enqueued += 1
        return self.ready_time

    def record(self, event: Event) -> Event:
        """Record ``event`` at the current end of the stream."""
        event._time = self.ready_time
        return event

    def wait_event(self, event: Event) -> None:
        """Make subsequent work on this stream wait for ``event``
        (``cudaStreamWaitEvent``)."""
        if not event.recorded:
            raise StreamError(f"wait on unrecorded event {event.name!r}")
        self.ready_time = max(self.ready_time, event.timestamp)

    def synchronize(self, host_time_us: float = 0.0) -> float:
        """Block the host until all enqueued work is done.

        Returns the host's new virtual time.
        """
        return max(host_time_us, self.ready_time)

    def reset(self) -> None:
        """Clear the timeline (used between benchmark repetitions)."""
        self.ready_time = 0.0
        self.enqueued = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Stream {self.name or id(self)} t={self.ready_time:.2f}us>"
