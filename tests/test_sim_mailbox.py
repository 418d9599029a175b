"""Mailbox matching semantics (single-threaded behaviours)."""

import pytest

from repro.sim.mailbox import ANY_SOURCE, ANY_TAG, Mailbox, Message, ProgressMonitor


def _msg(src=0, tag=0, **meta):
    return Message(src=src, dst=1, tag=tag, data=b"", depart_us=0.0,
                   arrival_us=1.0, nbytes=0, meta=meta)


@pytest.fixture
def box():
    return Mailbox(1, ProgressMonitor(timeout_s=0.5))


class TestMatching:
    def test_fifo_per_source_tag(self, box):
        box.post(_msg(tag=7, idx=1))
        box.post(_msg(tag=7, idx=2))
        assert box.try_match(src=0, tag=7).meta["idx"] == 1
        assert box.try_match(src=0, tag=7).meta["idx"] == 2

    def test_tag_filter(self, box):
        box.post(_msg(tag=1))
        assert box.try_match(src=0, tag=2) is None
        assert box.try_match(src=0, tag=1) is not None

    def test_source_filter(self, box):
        box.post(_msg(src=3))
        assert box.try_match(src=2) is None
        assert box.try_match(src=3) is not None

    def test_any_source_any_tag(self, box):
        box.post(_msg(src=5, tag=9))
        assert box.try_match(src=ANY_SOURCE, tag=ANY_TAG) is not None

    def test_where_predicate(self, box):
        box.post(_msg(kind="a"))
        box.post(_msg(kind="b"))
        m = box.try_match(where=lambda m: m.meta.get("kind") == "b")
        assert m.meta["kind"] == "b"

    def test_probe_nondestructive(self, box):
        box.post(_msg(tag=4))
        assert box.probe(tag=4) is not None
        assert box.pending == 1
        assert box.try_match(tag=4) is not None
        assert box.pending == 0

    def test_match_returns_posted(self, box):
        box.post(_msg(tag=3))
        assert box.match(src=0, tag=3).tag == 3

    def test_deadlock_detection(self, box):
        from repro.errors import DeadlockError
        with pytest.raises(DeadlockError):
            box.match(src=0, tag=99)  # nothing will ever arrive


class TestBulkTransport:
    def test_post_many_preserves_order(self, box):
        box.post_many([_msg(tag=7, idx=i) for i in range(4)])
        got = [box.try_match(src=0, tag=7).meta["idx"] for _ in range(4)]
        assert got == [0, 1, 2, 3]
        assert box.pending == 0

    def test_post_many_empty_is_noop(self, box):
        box.post_many([])
        assert box.pending == 0

    def test_wildcard_sees_global_posting_order(self, box):
        """ANY_SOURCE/ANY_TAG matches the oldest message across
        buckets, even interleaved with bulk posts."""
        box.post(_msg(src=1, tag=1, idx="a"))
        box.post_many([_msg(src=2, tag=2, idx="b"),
                       _msg(src=1, tag=1, idx="c")])
        box.post(_msg(src=3, tag=3, idx="d"))
        order = [box.try_match(src=ANY_SOURCE, tag=ANY_TAG).meta["idx"]
                 for _ in range(4)]
        assert order == ["a", "b", "c", "d"]

    def test_wildcard_source_exact_tag(self, box):
        box.post(_msg(src=1, tag=5, idx=1))
        box.post(_msg(src=2, tag=6, idx=2))
        box.post(_msg(src=3, tag=5, idx=3))
        assert box.try_match(src=ANY_SOURCE, tag=5).meta["idx"] == 1
        assert box.try_match(src=ANY_SOURCE, tag=5).meta["idx"] == 3
        assert box.try_match(src=ANY_SOURCE, tag=6).meta["idx"] == 2

    def test_match_many_fills_spec_order(self, box):
        box.post_many([_msg(src=2, tag=0, idx="y"),
                       _msg(src=1, tag=0, idx="x")])
        a, b = box.match_many([(1, ANY_TAG, None), (2, ANY_TAG, None)])
        assert (a.meta["idx"], b.meta["idx"]) == ("x", "y")

    def test_match_many_with_predicates(self, box):
        box.post_many([_msg(src=1, tag=0, seq=2),
                       _msg(src=1, tag=0, seq=1)])
        want = [(1, ANY_TAG, lambda m, s=s: m.meta["seq"] == s)
                for s in (1, 2)]
        got = box.match_many(want)
        assert [m.meta["seq"] for m in got] == [1, 2]

    def test_match_many_empty(self, box):
        assert box.match_many([]) == []

    def test_match_many_deadlock(self, box):
        from repro.errors import DeadlockError
        box.post(_msg(src=1, tag=1))
        with pytest.raises(DeadlockError):
            box.match_many([(1, 1, None), (1, 99, None)])

    def test_patched_detection_and_fallback(self, box):
        """A per-instance post wrapper (fault injection) is visible via
        ``patched`` and still sees every bulk-posted message."""
        assert not box.patched
        seen = []
        orig = box.post

        def wrapper(msg):
            seen.append(msg.meta.get("idx"))
            orig(msg)

        box.post = wrapper
        assert box.patched
        box.post_many([_msg(idx=1), _msg(idx=2)])
        assert seen == [1, 2]
        assert box.pending == 2
        del box.post
        assert not box.patched


class TestOffEngineWait:
    """A standalone mailbox has no scheduler: its blocking receive is a
    plain condition-variable wait bounded by the monitor's timeout."""

    def test_match_wakes_promptly_on_post(self, box):
        import threading
        import time
        out = {}

        def waiter():
            out["msg"] = box.match(src=0, tag=1)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        t0 = time.perf_counter()
        box.post(_msg(tag=1))
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert time.perf_counter() - t0 < 0.5
        assert out["msg"].tag == 1
