"""Mailbox matching semantics, and the hand-off to a parked receiver."""

import threading

import pytest

from repro.errors import DeadlockError
from repro.sim import sched
from repro.sim.engine import Engine
from repro.sim.mailbox import ANY_SOURCE, ANY_TAG, Mailbox, Message


def _msg(src=0, tag=0, **meta):
    return Message(src=src, dst=1, tag=tag, data=b"", depart_us=0.0,
                   arrival_us=1.0, nbytes=0, meta=meta)


@pytest.fixture
def box():
    return Mailbox(1)


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
        box.post(_msg(src=1, tag=1))
        with pytest.raises(DeadlockError):
            box.match_many([(1, 1, None), (1, 99, None)])

    def test_filter_sees_every_bulk_posted_message(self, box):
        """A delivery filter (a fault plan's message rules) sees a
        batch in order; what it drops is never queued."""
        seen = []

        def keep(msg):
            seen.append(msg.meta["idx"])
            return msg.meta["idx"] != 2

        box.filter = keep
        box.post_many([_msg(idx=1), _msg(idx=2), _msg(idx=3)])
        assert seen == [1, 2, 3]
        assert [box.try_match().meta["idx"] for _ in range(2)] == [1, 3]
        assert box.pending == 0


class TestOffEngineWait:
    """A blocking receive waits only inside an engine run (outside one
    it fails at once: ``test_sim_sched.py``), so the wake runs there."""

    def test_match_wakes_promptly_on_post(self, thetagpu1):
        """The receiver parks once; the post hands it the message and
        wakes it, with no second park and nothing queued."""
        engine = Engine(thetagpu1, nranks=2)
        box = engine.mailbox_of(0)

        def body(ctx):
            if ctx.rank == 0:
                return box.match(src=1, tag=1).tag
            box.post(Message(1, 0, 1, b"", 0.0, 1.0, 0))
            return box.pending

        assert engine.run(body) == [1, 0]
        assert (engine.scheduler.parks, engine.scheduler.switches) == (1, 3)


class _GatedWaitq:
    """A wait queue whose wake-ups the test lets through by hand, so
    the moment between a hand-off and the receiver's wake can be looked
    at — and the wake turned into the scheduler's exact-deadlock raise.
    The receiver runs on a thread of its own, blocked on ``gate`` while
    the test touches the mailbox."""

    def __init__(self):
        self.parked = threading.Event()
        self.gate = threading.Event()
        self.notified = 0
        self.fail = False

    def wait_for(self, predicate, stall_msg, patient=False):
        while not predicate():
            self.parked.set()
            assert self.gate.wait(5.0), "the test never opened the gate"
            self.gate.clear()
            if self.fail:
                raise DeadlockError(f"{stall_msg()}; every live rank is parked")

    def notify_all(self):
        self.notified += 1


class _Receiver(threading.Thread):
    """``box.match(**spec)`` on a thread; ``result()`` joins it."""

    def __init__(self, box, **spec):
        super().__init__(daemon=True)
        self.box, self.spec, self.out = box, spec, None
        self.start()

    def run(self):
        try:
            self.out = self.box.match(**self.spec)
        except DeadlockError as exc:
            self.out = exc

    def result(self):
        self.join(timeout=5.0)
        assert not self.is_alive()
        return self.out


@pytest.fixture
def gated():
    """``(mailbox, its gated wait queue)``."""
    waitq = _GatedWaitq()
    return Mailbox(1, waitq), waitq


def _park(gated, **spec):
    box, waitq = gated
    receiver = _Receiver(box, **spec)
    assert waitq.parked.wait(5.0)
    waitq.parked.clear()
    # the receiver registered before it parked
    assert [reg[:2] for reg in box._parked] == \
        [[spec.get("src", ANY_SOURCE), spec.get("tag", ANY_TAG)]]
    return receiver


class TestHandOff:
    """A post that matches the parked receiver's registration hands the
    message over: nothing is queued, and nothing else ever sees it."""

    def test_wildcard_first_posted_wins(self, gated):
        box, waitq = gated
        receiver = _park(gated, tag=5)
        box.post(_msg(src=1, tag=5, idx="a"))
        box.post(_msg(src=2, tag=5, idx="b"))
        assert waitq.notified == 2
        waitq.gate.set()
        assert receiver.result().meta["idx"] == "a"
        assert box.pending == 1
        assert box.try_match(src=ANY_SOURCE, tag=5).meta["idx"] == "b"

    def test_no_bucket_for_a_handed_message(self, gated):
        box, waitq = gated
        receiver = _park(gated, src=0, tag=7)
        box.post(_msg(tag=7, idx=1))
        assert not box._buckets and not box._parked
        waitq.gate.set()
        assert receiver.result().meta["idx"] == 1

    def test_non_overtaking_after_a_hand_off(self, gated):
        box, waitq = gated
        receiver = _park(gated, src=0, tag=7)
        for idx in (1, 2, 3):
            box.post(_msg(tag=7, idx=idx))
        waitq.gate.set()
        assert receiver.result().meta["idx"] == 1
        assert [box.match(src=0, tag=7).meta["idx"] for _ in range(2)] == [2, 3]

    def test_handed_message_is_seen_once(self, gated):
        """Between the hand-off and the wake the message is the
        receiver's: ``probe`` / ``try_match`` / ``pending`` do not see
        it, and it is delivered exactly once."""
        box, waitq = gated
        receiver = _park(gated, src=0, tag=7)
        box.post(_msg(tag=7, idx=1))
        assert box.pending == 0
        assert box.probe(src=0, tag=7) is None
        assert box.try_match(src=0, tag=7) is None
        waitq.gate.set()
        assert receiver.result().meta["idx"] == 1
        assert box.pending == 0 and box.try_match() is None

    def test_unmatched_post_is_queued_and_still_wakes(self, gated):
        box, waitq = gated
        receiver = _park(gated, src=0, tag=7)
        box.post(_msg(tag=8, idx="other"))
        assert waitq.notified == 1 and box.pending == 1
        waitq.gate.set()                    # wakes, finds nothing, parks again
        assert waitq.parked.wait(5.0)
        assert len(box._parked) == 1
        box.post(_msg(tag=7, idx="mine"))
        waitq.gate.set()
        assert receiver.result().meta["idx"] == "mine"
        assert box.try_match(tag=8).meta["idx"] == "other"

    def test_where_decides_the_hand_off(self, gated):
        box, waitq = gated
        receiver = _park(gated, src=0, tag=7,
                         where=lambda m: m.meta["idx"] == 2)
        box.post(_msg(tag=7, idx=1))
        assert box.pending == 1             # not what the receiver waits for
        box.post(_msg(tag=7, idx=2))
        assert box.pending == 1
        waitq.gate.set()
        assert receiver.result().meta["idx"] == 2

    def test_filter_runs_before_the_hand_off(self, gated):
        """The delivery filter sees every message before the parked
        receiver can: a dropped one is neither handed over nor queued,
        nor does it wake anyone; the next one is handed over."""
        box, waitq = gated
        seen = []

        def keep(msg):
            seen.append(msg.meta["idx"])
            return msg.meta["idx"] != 1

        box.filter = keep
        receiver = _park(gated, src=0, tag=7)
        box.post(_msg(tag=7, idx=1))
        assert box.pending == 0 and box._parked and waitq.notified == 0
        box.post(_msg(tag=7, idx=2))
        box.post(_msg(tag=7, idx=3))
        assert seen == [1, 2, 3] and box.pending == 1
        waitq.gate.set()
        assert receiver.result().meta["idx"] == 2

    def test_post_many_goes_through_the_buckets(self, gated):
        box, waitq = gated
        receiver = _park(gated, src=0, tag=7)
        box.post_many([_msg(tag=7, idx=1), _msg(tag=7, idx=2)])
        assert box.pending == 2 and not box._parked
        box.post(_msg(tag=7, idx=3))        # must not overtake the batch
        assert box.pending == 3
        waitq.gate.set()
        assert receiver.result().meta["idx"] == 1
        assert [box.match(src=0, tag=7).meta["idx"] for _ in range(2)] == [2, 3]

    def test_poke_wakes_without_delivering(self, gated):
        box, waitq = gated
        receiver = _park(gated, src=0, tag=7)
        box.poke()
        assert waitq.notified == 1
        waitq.gate.set()
        assert waitq.parked.wait(5.0)       # re-checked, parked again
        assert receiver.is_alive() and len(box._parked) == 1
        box.post(_msg(tag=7, idx=1))
        waitq.gate.set()
        assert receiver.result().meta["idx"] == 1

    def test_poke_lets_abort_end_the_wait(self, gated):
        box, waitq = gated
        dead = []
        receiver = _park(gated, src=3, tag=7, abort=lambda src: (
            f"peer rank {src} died" if dead else None))
        dead.append(3)
        box.poke()
        waitq.gate.set()
        err = receiver.result()
        assert isinstance(err, DeadlockError)
        assert str(err) == ("rank 1 blocked in recv(src=3, tag=7): "
                            "peer rank 3 died")
        assert not box._parked


class TestHandedMessageIsNeverLost:
    def test_receiver_that_raises_puts_it_back_first(self, gated):
        """The exact-deadlock wake beats the hand-off: the receiver
        raises, and the message is back at the head of its bucket."""
        box, waitq = gated
        receiver = _park(gated, src=0, tag=7)
        box.post(_msg(tag=7, idx=1))        # handed over
        box.post(_msg(tag=7, idx=2))        # queued behind it
        box.post(_msg(src=2, tag=9, idx=3))
        assert box.pending == 2
        waitq.fail = True
        waitq.gate.set()
        assert isinstance(receiver.result(), DeadlockError)
        assert box.pending == 3 and not box._parked
        order = [box.try_match().meta["idx"] for _ in range(3)]
        assert order == [1, 2, 3]           # posting order, wildcard included

    def test_on_engine_deadlock_wake_after_hand_off(self, thetagpu1):
        """Three ranks deadlock; the first one woken to raise posts to
        the second before that one has run.  The second still raises
        (its wake was a deadlock verdict) and then finds the message."""
        from repro.sim.engine import Engine

        def body(ctx):
            try:
                ctx.mailbox.match(src=(ctx.rank + 1) % 3, tag=4)
            except DeadlockError:
                if ctx.rank == 0:
                    ctx.mailbox_of(1).post(Message(2, 1, 4, b"late", 0.0,
                                                   1.0, 0))
                    return None
                got = ctx.mailbox.try_match(src=(ctx.rank + 1) % 3, tag=4)
                return got.data if got is not None else None
            return "matched"

        assert Engine(thetagpu1, nranks=3).run(body) == [None, b"late", None]

    def test_two_off_engine_matchers_on_one_mailbox(self, thetagpu1):
        """One registration at a time: the second matcher takes the
        bucket path, and two posts reach one receiver each."""
        engine = Engine(thetagpu1, nranks=3)
        box = engine.mailbox_of(1)
        registrations = []

        def body(ctx):
            if ctx.rank < 2:                # both match on one mailbox
                return box.match(src=0, tag=1).meta["idx"]
            registrations.append(len(box._parked))
            box.post(_msg(tag=1, idx=1))
            box.post(_msg(tag=1, idx=2))
            return None

        assert engine.run(body) == [1, 2, None]
        assert registrations == [1]
        assert box.pending == 0 and not box._parked

    def test_match_many_beside_a_registered_match(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=3)
        box = engine.mailbox_of(1)

        def body(ctx):
            if ctx.rank == 0:
                return box.match(src=0, tag=1).meta["idx"]
            if ctx.rank == 1:
                return [m.meta["idx"]
                        for m in box.match_many([(0, 2, None), (0, 1, None)])]
            box.post(_msg(tag=1, idx="single"))
            box.post(_msg(tag=2, idx="b2"))
            box.post(_msg(tag=1, idx="b1"))
            return None

        assert engine.run(body) == ["single", ["b2", "b1"], None]
        assert box.pending == 0

    def test_stress_every_message_delivered_once_in_order(self, thetagpu1):
        """Four sender ranks, two blocking receiver ranks, each sender
        passing the token on after every first to fourth post:
        hand-offs and bucket deliveries interleave, yet every message
        arrives exactly once and no receiver sees one source's messages
        out of order."""
        senders, per_sender = 4, 300
        engine = Engine(thetagpu1, nranks=2 + senders)
        box = engine.mailbox_of(1)
        finished, handed, queued = [], [0], [0]

        def body(ctx):
            if ctx.rank < 2:
                mine = []
                while True:
                    msg = box.match(tag=3)
                    if msg.meta["idx"] < 0:
                        return mine
                    mine.append((msg.src, msg.meta["idx"]))
            for idx in range(per_sender):
                handed[0] += bool(box._parked)
                box.post(_msg(src=ctx.rank, tag=3, idx=idx))
                queued[0] = max(queued[0], box.pending)
                if idx % (ctx.rank - 1) == 0:
                    sched.yield_now()
            finished.append(ctx.rank)
            if len(finished) == senders:
                for _ in range(2):
                    box.post(_msg(src=99, tag=3, idx=-1))   # one stop each
            return None

        got = engine.run(body)[:2]
        assert handed[0] > 0 and queued[0] > 1     # both paths were taken
        assert sorted(got[0] + got[1]) == [
            (src, idx) for src in range(2, 2 + senders)
            for idx in range(per_sender)]
        for mine in got:
            for src in range(2, 2 + senders):
                seen = [idx for s, idx in mine if s == src]
                assert seen == sorted(seen)
        assert box.pending == 0 and not box._parked
