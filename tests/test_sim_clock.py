"""Virtual clock semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now == 5.0

    def test_advance(self):
        c = VirtualClock()
        assert c.advance(3.0) == 3.0
        assert c.advance(2.0) == 5.0

    def test_advance_negative_rejected(self):
        with pytest.raises(SimulationError):
            VirtualClock().advance(-1.0)

    def test_merge_takes_max(self):
        c = VirtualClock(10.0)
        assert c.merge(5.0) == 10.0
        assert c.merge(15.0) == 15.0

    @given(st.lists(st.one_of(
        st.tuples(st.just("advance"), st.floats(0, 1e6)),
        st.tuples(st.just("merge"), st.floats(0, 1e6))), max_size=50))
    def test_monotone_under_any_sequence(self, ops):
        c = VirtualClock()
        prev = 0.0
        for kind, value in ops:
            if kind == "advance":
                c.advance(value)
            else:
                c.merge(value)
            assert c.now >= prev
            prev = c.now
