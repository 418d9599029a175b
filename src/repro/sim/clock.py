"""Per-rank virtual clocks.

A :class:`VirtualClock` is a monotone scalar in microseconds.  Local
work advances it; receiving a message merges the message's arrival time
(Lamport max-merge).  All benchmark latencies in this reproduction are
differences of virtual clock readings.
"""

from __future__ import annotations

from repro.errors import SimulationError


class VirtualClock:
    """Monotone virtual time for one rank, in microseconds."""

    __slots__ = ("_now",)

    def __init__(self, start_us: float = 0.0) -> None:
        self._now = float(start_us)

    @property
    def now(self) -> float:
        """Current virtual time (us)."""
        return self._now

    def advance(self, dt_us: float) -> float:
        """Spend ``dt_us`` of local time; returns the new time."""
        if dt_us < 0:
            raise SimulationError(f"cannot advance clock by {dt_us} us")
        self._now += dt_us
        return self._now

    def merge(self, ts_us: float) -> float:
        """Merge an external timestamp (``now = max(now, ts)``)."""
        if ts_us > self._now:
            self._now = ts_us
        return self._now

    def merge_many(self, ts_list) -> float:
        """Merge a batch of timestamps in one call.

        Exactly ``merge(max(ts_list))`` — ``max`` never rounds, so the
        result is bit-identical to merging one by one, at one attribute
        write for a whole fused batch of arrivals.
        """
        if ts_list:
            top = max(ts_list)
            if top > self._now:
                self._now = top
        return self._now
