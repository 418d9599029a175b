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

from typing import Dict, List, Sequence, Tuple

import numpy as np

Resource = Tuple  # hashable resource key; last element is the direction


class WireTracker:
    """Books transfers onto directed link resources (one per engine;
    its ranks book under the run token, so no lock)."""

    def __init__(self) -> None:
        self._free: Dict[Resource, float] = {}

    def book(self, resources: Sequence[Resource], depart_us: float,
             nbytes: int, beta_bpus: float, alpha_us: float) -> float:
        """Schedule one transfer; returns its arrival time.

        Args:
            resources: directed resource keys the transfer occupies.
            depart_us: sender-side virtual time the message is ready.
            nbytes: payload size.
            beta_bpus: path bandwidth, bytes/us (callers pre-apply any
                duplex sharing for flows known to be bidirectional —
                see the module docstring).
            alpha_us: path latency added after the wire time.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if not resources:
            # purely local (same-device) transfer: no shared wire
            return depart_us + alpha_us + (nbytes / beta_bpus if beta_bpus else 0.0)
        return self._book(resources, depart_us, nbytes, beta_bpus, alpha_us)

    def _book(self, resources: Sequence[Resource], depart_us: float,
              nbytes: int, beta_bpus: float, alpha_us: float) -> float:
        start = depart_us
        for r in resources:
            start = max(start, self._free.get(r, 0.0))
        wire = nbytes / beta_bpus if beta_bpus else 0.0
        for r in resources:
            self._free[r] = start + wire
        return start + wire + alpha_us

    def book_many(self, bookings: Sequence[Tuple[Sequence[Resource], float,
                                                 int, float, float]]) -> list:
        """Book a batch of transfers in one call.

        ``bookings`` is a sequence of ``(resources, depart_us, nbytes,
        beta_bpus, alpha_us)``; arrivals come back in order.  Bookings
        land exactly as if :meth:`book` were called element by element
        (sizes are validated up front, before any booking applies).

        The arithmetic is vectorized where that is *exactly* IEEE-754
        equivalent to the scalar path:

        * resource-free bookings (same-device transfers — the bulk of
          an oversubscribed group) never touch occupancy state, so
          their ``(depart + alpha) + nbytes/beta`` evaluates in one
          float64 array pass in any order;
        * when no resource appears in more than one booking of the
          batch, each start time is independent of the others, so the
          ``(start + wire) + alpha`` chain vectorizes too.

        Batches with intra-batch resource contention fall back to the
        serial chain, spelled inline — there each booking's start
        depends on the occupancy the previous one wrote, and any closed
        form would re-associate float additions.
        """
        if not bookings:
            return []
        n = len(bookings)
        for booking in bookings:
            if booking[2] < 0:
                raise ValueError(f"negative transfer size {booking[2]}")
        wired = [i for i, b in enumerate(bookings) if b[0]]
        arrivals: List[float] = [0.0] * n
        if len(wired) < n:
            # resource-free bookings: pure elementwise arithmetic
            local = [i for i, b in enumerate(bookings) if not b[0]]
            self._fill_vectorized(
                bookings, local, arrivals,
                [bookings[i][1] for i in local])
        if wired:
            seen: set = set()
            disjoint = True
            for i in wired:
                for r in bookings[i][0]:
                    if r in seen:
                        disjoint = False
                        break
                    seen.add(r)
                if not disjoint:
                    break
            if disjoint:
                # independent starts: max() is exact, the rest is one
                # vectorized pass; occupancy updates commute
                starts = []
                for i in wired:
                    resources, depart_us = bookings[i][0], bookings[i][1]
                    start = depart_us
                    for r in resources:
                        start = max(start, self._free.get(r, 0.0))
                    starts.append(start)
                ends = self._fill_vectorized(bookings, wired, arrivals,
                                             starts)
                for k, i in enumerate(wired):
                    for r in bookings[i][0]:
                        self._free[r] = ends[k]
            else:
                # :meth:`_book`, inline: no call per booking
                free = self._free
                for i in wired:
                    resources, start, nbytes, beta, alpha = bookings[i]
                    for r in resources:
                        start = max(start, free.get(r, 0.0))
                    end = start + (nbytes / beta if beta else 0.0)
                    for r in resources:
                        free[r] = end
                    arrivals[i] = end + alpha
        return arrivals

    def _fill_vectorized(self, bookings, idx: Sequence[int],
                         arrivals: List[float],
                         starts: Sequence[float]):
        """Vectorized ``start -> arrival`` arithmetic for the bookings
        at ``idx``; fills ``arrivals`` in place and returns the wire-end
        times (``start + wire``) as python floats.

        Bit-exact with the scalar path: float64 elementwise divide/add
        round identically to python's, and the association order is
        preserved (local bookings add ``alpha`` before the wire term,
        wired ones after — matching :meth:`book`/:meth:`_book`).
        """
        start_a = np.array(starts, dtype=np.float64)
        nbytes_a = np.array([bookings[i][2] for i in idx], dtype=np.float64)
        beta_a = np.array([bookings[i][3] for i in idx], dtype=np.float64)
        alpha_a = np.array([bookings[i][4] for i in idx], dtype=np.float64)
        wire_a = np.zeros(len(idx), dtype=np.float64)
        nz = beta_a != 0.0
        np.divide(nbytes_a, beta_a, out=wire_a, where=nz)
        if bookings[idx[0]][0]:
            ends = start_a + wire_a
            out = (ends + alpha_a).tolist()
            end_list = ends.tolist()
        else:
            out = ((start_a + alpha_a) + wire_a).tolist()
            end_list = out
        for k, i in enumerate(idx):
            arrivals[i] = out[k]
        return end_list

    def free_at(self, resource: Resource) -> float:
        """When ``resource`` next becomes free (0.0 if never used)."""
        return self._free.get(resource, 0.0)

    def reset(self) -> None:
        """Forget all bookings (benchmark repetitions)."""
        self._free.clear()
