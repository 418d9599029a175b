"""Stream/event virtual-time semantics."""

import pytest

from repro.errors import StreamError
from repro.hw.stream import Event
from repro.hw.systems import thetagpu


@pytest.fixture
def stream():
    return thetagpu(1).devices[0].create_stream("t")


class TestStream:
    def test_in_order_execution(self, stream):
        end1 = stream.enqueue(10.0, host_time_us=0.0)
        end2 = stream.enqueue(5.0, host_time_us=0.0)
        assert end1 == 10.0
        assert end2 == 15.0  # waits for the first op

    def test_idle_gap(self, stream):
        stream.enqueue(10.0, host_time_us=0.0)
        end = stream.enqueue(5.0, host_time_us=100.0)  # host got ahead
        assert end == 105.0

    def test_synchronize_blocks_host(self, stream):
        stream.enqueue(50.0, host_time_us=0.0)
        assert stream.synchronize(host_time_us=10.0) == 50.0
        assert stream.synchronize(host_time_us=80.0) == 80.0

    def test_negative_duration_rejected(self, stream):
        with pytest.raises(StreamError):
            stream.enqueue(-1.0)

    def test_enqueued_counts_ops(self, stream):
        stream.enqueue(1.0)
        stream.enqueue(2.0)
        assert stream.enqueued == 2

    def test_reset(self, stream):
        stream.enqueue(5.0)
        stream.reset()
        assert stream.ready_time == 0.0
        assert stream.enqueued == 0


class TestEvent:
    def test_record_and_wait(self, stream):
        stream.enqueue(10.0)
        ev = stream.record(Event("e"))
        assert ev.recorded
        assert ev.timestamp == 10.0

    def test_wait_unrecorded_rejected(self, stream):
        with pytest.raises(StreamError):
            stream.wait_event(Event("never"))

    def test_query_unrecorded_rejected(self):
        with pytest.raises(StreamError):
            Event("x").timestamp

    def test_cross_stream_ordering(self):
        dev = thetagpu(1).devices[0]
        s1, s2 = dev.create_stream(), dev.create_stream()
        s1.enqueue(20.0)
        ev = s1.record(Event())
        s2.wait_event(ev)
        end = s2.enqueue(1.0, host_time_us=0.0)
        assert end == 21.0  # s2 work ordered after s1's event
