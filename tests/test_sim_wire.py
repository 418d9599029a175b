"""Wire occupancy: serialization and arrival computation."""

import pytest

from repro.sim.wire import WireTracker


class TestWireTracker:
    def test_single_transfer(self):
        w = WireTracker()
        arrival = w.book([("l", "fwd")], depart_us=0.0, nbytes=1000,
                         beta_bpus=100.0, alpha_us=2.0)
        assert arrival == 12.0  # 10 wire + 2 alpha

    def test_back_to_back_serialize(self):
        w = WireTracker()
        w.book([("l", "fwd")], 0.0, 1000, 100.0, 2.0)
        second = w.book([("l", "fwd")], 0.0, 1000, 100.0, 2.0)
        assert second == 22.0  # starts at 10, +10 wire +2 alpha

    def test_disjoint_wires_parallel(self):
        w = WireTracker()
        a = w.book([("a", "fwd")], 0.0, 1000, 100.0, 0.0)
        b = w.book([("b", "fwd")], 0.0, 1000, 100.0, 0.0)
        assert a == b == 10.0

    def test_later_departure_no_wait(self):
        w = WireTracker()
        w.book([("l", "fwd")], 0.0, 1000, 100.0, 0.0)       # busy to 10
        arrival = w.book([("l", "fwd")], 50.0, 1000, 100.0, 0.0)
        assert arrival == 60.0

    def test_multi_resource_bottleneck(self):
        w = WireTracker()
        w.book([("nic", 0, "out")], 0.0, 1000, 100.0, 0.0)   # busy to 10
        arrival = w.book([("nic", 0, "out"), ("nic", 1, "in")],
                         0.0, 1000, 100.0, 0.0)
        assert arrival == 20.0  # waits for the shared egress

    def test_empty_resources_local(self):
        w = WireTracker()
        assert w.book([], 5.0, 1000, 100.0, 1.0) == 16.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            WireTracker().book([("l", "fwd")], 0.0, -1, 1.0, 0.0)

    def test_free_at_and_reset(self):
        w = WireTracker()
        w.book([("l", "fwd")], 0.0, 1000, 100.0, 0.0)
        assert w.free_at(("l", "fwd")) == 10.0
        w.reset()
        assert w.free_at(("l", "fwd")) == 0.0

    def test_zero_beta_zero_wire(self):
        w = WireTracker()
        assert w.book([("l", "fwd")], 0.0, 100, 0.0, 3.0) == 3.0

    def test_throughput_emerges_from_occupancy(self):
        # a window of N messages cannot exceed wire bandwidth
        w = WireTracker()
        last = 0.0
        for _ in range(64):
            last = w.book([("l", "fwd")], 0.0, 1000, 100.0, 1.0)
        # 64 * 10us wire occupancy + final alpha
        assert last == pytest.approx(641.0)


def _book_each(bookings):
    """Reference: element-by-element ``book`` on a fresh tracker."""
    w = WireTracker()
    return [w.book(res, t, n, b, a) for res, t, n, b, a in bookings]


class TestBookMany:
    """``book_many`` must land bit-identically to sequential ``book``
    on every batch shape: local, disjoint, contended and mixed."""

    def _check(self, bookings):
        expect = _book_each(bookings)
        w = WireTracker()
        got = w.book_many(bookings)
        assert got == expect  # exact float equality, not approx
        # occupancy state must match too: a follow-up booking sees the
        # same wire frees either way
        wref = WireTracker()
        for res, t, n, b, a in bookings:
            wref.book(res, t, n, b, a)
        for res, *_ in bookings:
            for r in res:
                assert w.free_at(r) == wref.free_at(r)
        return got

    def test_all_empty_resources_vectorized(self):
        # irrational beta: any reassociation of the float chain shows
        self._check([([], i * 0.3, 1000 + i, 97.0, 1.7) for i in range(50)])

    def test_disjoint_resources_vectorized(self):
        self._check([([(f"wire{i}", "fwd")], i * 0.1, 500 + 13 * i,
                      33.0, 0.9) for i in range(40)])

    def test_overlapping_resources_serial_fallback(self):
        got = self._check([([("shared", "fwd")], 0.0, 1000, 100.0, 1.0)
                           for _ in range(8)])
        assert got[-1] == 81.0  # 8 x 10us serialized + alpha

    def test_mixed_empty_and_wired(self):
        self._check([
            ([], 0.0, 4096, 128.0, 0.5),
            ([("a", "fwd")], 1.0, 1000, 100.0, 2.0),
            ([], 3.0, 0, 0.0, 0.1),
            ([("b", "fwd"), ("nic", 0, "out")], 0.0, 2000, 50.0, 1.0),
        ])

    def test_mixed_empty_and_contended(self):
        self._check([
            ([], 0.0, 100, 10.0, 0.5),
            ([("x", "fwd")], 0.0, 1000, 100.0, 1.0),
            ([("x", "fwd")], 0.0, 1000, 100.0, 1.0),  # contends: serial
        ])

    def test_zero_beta_batch(self):
        self._check([([], 1.0, 100, 0.0, 3.0),
                     ([("l", "fwd")], 0.0, 100, 0.0, 2.0),
                     ([("m", "fwd")], 0.5, 50, 25.0, 0.0)])

    def test_prior_occupancy_respected(self):
        # the batch must see wire state left by earlier bookings
        w = WireTracker()
        w.book([("l", "fwd")], 0.0, 1000, 100.0, 0.0)  # busy to 10
        got = w.book_many([([("l", "fwd")], 0.0, 1000, 100.0, 2.0),
                           ([("m", "fwd")], 0.0, 1000, 100.0, 2.0)])
        assert got == [22.0, 12.0]

    def test_negative_size_rejected_upfront(self):
        # validation happens before any booking applies: the good
        # first entry must not have charged the wire
        w = WireTracker()
        with pytest.raises(ValueError):
            w.book_many([([("l", "fwd")], 0.0, 1000, 100.0, 0.0),
                         ([("m", "fwd")], 0.0, -5, 100.0, 0.0)])
        assert w.free_at(("l", "fwd")) == 0.0

    def test_empty_batch(self):
        assert WireTracker().book_many([]) == []
