"""Wire occupancy: serializing transfers over shared links.

A bandwidth test pushes a window of back-to-back messages; without
occupancy tracking, each would be priced independently and measured
bandwidth would exceed the wire.  The :class:`WireTracker` books every
transfer on the directed resources its path crosses (a device-pair wire
inside a switched node, the node-wide bus of a PCIe system, the NIC of
each node for inter-node traffic): a transfer starts when the sender is
ready *and* every resource is free, and holds all of them for
``nbytes / beta`` microseconds.

Duplex handling is *not* done here: opposing flows book independent
per-direction resources at the beta the caller priced.  Layers that
know a flow is bidirectional (MPI ``Sendrecv``, a CCL group that both
sends to and receives from the same peer) price it with the link's
duplex-shared bandwidth before booking — keeping results deterministic
(an emergent reverse-direction-busy check here would depend on thread
interleaving of bookings, not on virtual time).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

Resource = Tuple  # hashable resource key; last element is the direction


class WireTracker:
    """Books transfers onto directed link resources (one per engine;
    its ranks book under the run token, so no lock)."""

    def __init__(self) -> None:
        self._free: Dict[Resource, float] = {}
        #: one tuple per distinct resource list (:meth:`resources`)
        self._interned: Dict[Tuple, Tuple] = {}

    def resources(self, resources: Sequence[Resource]) -> Tuple:
        """``resources`` as the one tuple every path crossing them
        shares: a rank's send descriptors hold their resources for the
        run, and most pairs of a multi-node run cross the same NICs."""
        key = tuple(resources)
        return self._interned.setdefault(key, key)

    def book(self, resources: Sequence[Resource], depart_us: float,
             nbytes: int, beta_bpus: float, alpha_us: float) -> float:
        """Schedule one transfer; returns its arrival time.

        Args:
            resources: directed resource keys the transfer occupies
                (none: a same-device copy, which books no wire).
            depart_us: sender-side virtual time the message is ready.
            nbytes: payload size.
            beta_bpus: path bandwidth, bytes/us (callers pre-apply any
                duplex sharing for flows known to be bidirectional —
                see the module docstring).
            alpha_us: path latency added after the wire time.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        wire = nbytes / beta_bpus if beta_bpus else 0.0
        if not resources:
            return depart_us + alpha_us + wire
        free = self._free
        start = depart_us
        for r in resources:
            busy = free.get(r, 0.0)
            if busy > start:
                start = busy
        end = start + wire
        for r in resources:
            free[r] = end
        return end + alpha_us

    def book_many(self, bookings: Sequence[Tuple[Sequence[Resource], float,
                                                 int, float, float]]) -> list:
        """Book a batch of transfers in one call.

        ``bookings`` is a sequence of ``(resources, depart_us, nbytes,
        beta_bpus, alpha_us)``; arrivals come back in order, each row
        booked by :meth:`book`.  Sizes are validated up front, before
        any booking applies.
        """
        for booking in bookings:
            if booking[2] < 0:
                raise ValueError(f"negative transfer size {booking[2]}")
        return [_book(self, *booking) for booking in bookings]

    def free_at(self, resource: Resource) -> float:
        """When ``resource`` next becomes free (0.0 if never used)."""
        return self._free.get(resource, 0.0)

    def reset(self) -> None:
        """Forget all bookings (every :meth:`Engine.run` starts here)."""
        self._free.clear()


#: :meth:`WireTracker.book` as this module defines it: ``book_many``
#: books its rows through it rather than the class attribute, so a tool
#: that wraps both methods on the class counts each row once, in its
#: batch (``tests/test_sim_wire.py`` holds the rule)
_book = WireTracker.book
