"""Tag/source-matched message delivery between rank threads.

A :class:`Mailbox` is one rank's unexpected-message queue.  Senders
:meth:`post` (or :meth:`post_many` for a fused group's batch);
receivers :meth:`match` on ``(source, tag)`` with MPI wildcard
semantics (``ANY_SOURCE``/``ANY_TAG``) and FIFO ordering per
(source, tag) pair — the MPI non-overtaking rule.

The queue is indexed per ``(src, tag)``: an exact-match receive goes
straight to its bucket instead of scanning every pending message, and
wildcard receives resolve against per-message posting order so the
"first posted wins" rule is unchanged.

Only an *unexpected* message is queued.  A receiver that finds nothing
registers its ``(src, tag, where)`` before it parks, and the ``post``
that matches **hands its message over**: no bucket lives and dies for
it, and the woken receiver does not search again.
One registration per mailbox (a second concurrent matcher, ``post_many``
and ``match_many`` use the buckets); a handed message whose receiver
leaves by raising goes back where it would have been queued.

A fault plan's message rules (:mod:`repro.sim.faults`) are the
mailbox's ``filter``, applied by ``post`` and ``post_many`` before the
hand-off or the enqueue: it drops a message or re-times it.  A blocked
receive asks its ``abort`` probe (the engine's ``doomed``) whether the
wait can still end.

There is no lock: inside an engine run the run token orders every
access (:mod:`repro.sim.sched`).  Blocking goes through a wait queue
from the same module: a blocked rank parks its fiber — a list entry, no
polling, deadlocks detected exactly.  A standalone mailbox, or a caller
that is not a rank of the run, gets :class:`~repro.sim.sched.ThreadWaitq`:
it may post, probe and poll, and a wait that cannot return at once
raises :class:`DeadlockError` at once.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (Any, Callable, Deque, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from repro import fastpath
from repro.errors import DeadlockError, InvalidBufferError
from repro.hw.memory import NO_CONTENTS
from repro.sim import sched as _sched

#: MPI_ANY_SOURCE analogue.
ANY_SOURCE = -1
#: MPI_ANY_TAG analogue.
ANY_TAG = -1

#: where a parked receiver's registration ``[src, tag, where, handed
#: message, its posting order]`` takes what a ``post`` hands over
_HANDED, _ORDER = 3, 4


class Message:
    """One in-flight message.

    Attributes:
        src: sending rank.
        dst: destination rank.
        tag: MPI tag.
        data: payload (numpy array snapshot taken at send time — or,
            on the zero-copy datapath, a read-only *view* of the
            sender's live buffer governed by the :class:`PayloadLease`
            in ``lease`` — or any Python object for pickled sends).
        depart_us: sender's virtual time when the message left.
        arrival_us: virtual time at which it is available at ``dst``.
        nbytes: payload size on the wire.
        meta: protocol scratch; ``meta["kind"]`` repeats ``kind`` (a
            rendezvous RTS also keeps its pricing here).
        kind / ctx_id / seq: what match predicates read — message kind,
            communicator scope, sequence number.
        lease: the :class:`PayloadLease` of a borrowed ``data``.
    """

    __slots__ = ("src", "dst", "tag", "data", "depart_us", "arrival_us",
                 "nbytes", "meta", "kind", "ctx_id", "seq", "lease")

    def __init__(self, src: int, dst: int, tag: int, data: Any,
                 depart_us: float, arrival_us: float, nbytes: int,
                 meta: Optional[Mapping] = None, kind: Optional[str] = None,
                 ctx_id: Any = None, seq: Optional[int] = None,
                 lease: Optional["PayloadLease"] = None) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.data = data
        self.depart_us = depart_us
        self.arrival_us = arrival_us
        self.nbytes = nbytes
        self.meta = {} if meta is None else meta
        self.kind = kind
        self.ctx_id = ctx_id
        self.seq = seq
        self.lease = lease

    def __repr__(self) -> str:
        return (f"Message(src={self.src}, dst={self.dst}, tag={self.tag}, "
                f"kind={self.kind!r}, nbytes={self.nbytes}, "
                f"arrival_us={self.arrival_us})")


class PayloadLease:
    """Ownership handoff of a borrowed payload view (zero-copy p2p).

    The sender posts a message whose ``data`` is a read-only view of
    its live buffer instead of a snapshot, attaching a lease.  The
    protocol is a tiny two-party state machine:

    * the receiver calls :meth:`consume` to copy the payload out into
      its buffer;
    * the sender calls :meth:`materialize` at the last point it can
      still do so before its buffer becomes mutable again: the return
      of a blocking send or sendrecv, or the completion of a
      nonblocking send's request (``wait``, ``test``, ``waitany`` or
      ``waitall``, whichever completes it).  If the receiver already
      consumed, nothing happens and the snapshot was **elided**; if
      not, the payload is copied *now* (the copy-on-write escape
      hatch) and the receiver will read the snapshot instead.  A
      nonblocking send's lease outlives the call that posted it, so a
      receive of the sender's own rank that lands on the lent memory
      first materializes it early (``P2PEndpoint._copy_lent``); the
      reclaim then finds it materialized and counts nothing: one copy,
      elided or forced, is counted per lease.

    The two sides never interleave: each runs while its rank holds the
    run token (:mod:`repro.sim.sched`).  Either way the bytes received
    are identical to the eager-copy protocol — the lease only changes
    whether a copy happens at all.
    """

    __slots__ = ("consumed", "materialized")

    def __init__(self) -> None:
        self.consumed = False
        self.materialized = False

    def consume(self, msg: "Message", target) -> None:
        """Receiver side: copy ``msg.data`` into ``target``
        (``repro.hw.memory.copy_payload``, spelled inline)."""
        if target.strides[0]:
            data = msg.data
            if not data.strides[0] and data.size:
                raise InvalidBufferError(NO_CONTENTS)
            target[...] = data     # converts the dtype if it differs
        self.consumed = True
        msg.data = None  # drop the borrowed view promptly

    def materialize(self, msg: "Message") -> None:
        """Sender side: reclaim the buffer, counting the snapshot as
        elided (already consumed) or forced (copied now; a storage-free
        view is its own snapshot).  A lease materialized before is
        counted already."""
        if self.materialized:
            return
        if self.consumed:
            fastpath.STATS.copies_elided += 1
        else:
            if msg.data.strides[0]:     # ``snapshot``, inline
                msg.data = msg.data.copy()
            self.materialized = True
            fastpath.STATS.copies_forced += 1


#: a receive specification for :meth:`Mailbox.match_many`.
MatchSpec = Tuple[int, int, Optional[Callable[[Message], bool]]]


class Mailbox:
    """One rank's matched-receive queue.

    ``waitq`` is what a blocked receive waits on; the engine passes a
    :class:`~repro.sim.sched.CoopWaitq` that parks fibers on its
    scheduler.  A standalone mailbox gets the off-engine waitq.
    """

    def __init__(self, rank: int, waitq: Any = None) -> None:
        self.rank = rank
        self._waitq = _sched.OFF_ENGINE if waitq is None else waitq
        #: (src, tag) -> FIFO of (posting order, message)
        self._buckets: Dict[Tuple[int, int], Deque[Tuple[int, Message]]] = {}
        #: posting-order stamps
        self._ord = itertools.count()
        #: the parked receiver's registration — one at most; while it
        #: stands, nothing queued matches it
        self._parked: List[list] = []
        #: a fault plan's delivery filter, set once before the run:
        #: False drops the message, and it may re-time what it keeps
        self.filter: Optional[Callable[[Message], bool]] = None

    # -- delivery ----------------------------------------------------------

    def _enqueue(self, msg: Message) -> None:
        key = (msg.src, msg.tag)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = deque()
        bucket.append((next(self._ord), msg))

    def post(self, msg: Message) -> None:
        """Deliver ``msg`` (called from the sender's thread): to the
        parked receiver if it waits for exactly this, else to the queue
        — unless the ``filter`` drops it."""
        if self.filter is not None and not self.filter(msg):
            return      # a dropped message is not progress: no wakeup
        reg = self._parked[0] if self._parked else None
        if reg is not None \
                and (reg[0] == msg.src or reg[0] == ANY_SOURCE) \
                and (reg[1] == msg.tag or reg[1] == ANY_TAG) \
                and (reg[2] is None or reg[2](msg)):
            reg[_HANDED], reg[_ORDER] = msg, next(self._ord)
            self._parked.clear()    # one message per registration
        else:
            self._enqueue(msg)
        self._waitq.notify_all()

    def post_many(self, msgs: Sequence[Message]) -> None:
        """Deliver a batch with one wakeup.

        Per-(src, tag) FIFO order follows the order of ``msgs``; the
        ``filter`` sees them in that order.
        """
        if self.filter is not None:
            msgs = [msg for msg in msgs if self.filter(msg)]
        self.deliver_many(msgs)

    def deliver_many(self, msgs: Sequence[Message]) -> None:
        """:meth:`post_many` past the ``filter``, for messages it has
        already seen (a group exchange's unclaimed rows)."""
        if not msgs:
            return
        # a parked receiver must search the queue for these
        self._parked.clear()
        for msg in msgs:
            self._enqueue(msg)
        self._waitq.notify_all()

    # -- matching ----------------------------------------------------------

    def _find(self, src: int, tag: int,
              where: Optional[Callable[[Message], bool]],
              pop: bool = True) -> Optional[Message]:
        """The first (posting-order) matching message, dequeued unless
        ``pop`` is false; None when nothing queued matches."""
        if src != ANY_SOURCE and tag != ANY_TAG:
            key = (src, tag)
            bucket = self._buckets.get(key)
            if not bucket:
                return None
            at = 0
            if where is not None:
                for at, (_, m) in enumerate(bucket):
                    if where(m):
                        break
                else:
                    return None
        else:
            # wildcard: pick the earliest-posted message across the
            # candidate buckets (buckets are sorted by posting order)
            key, at, best_ord = None, 0, None
            for k, bucket in self._buckets.items():
                if src != ANY_SOURCE and k[0] != src:
                    continue
                if tag != ANY_TAG and k[1] != tag:
                    continue
                for i, (order, m) in enumerate(bucket):
                    if best_ord is not None and order >= best_ord:
                        break  # nothing earlier left in this bucket
                    if where is not None and not where(m):
                        continue
                    key, at, best_ord = k, i, order
                    break
            if key is None:
                return None
            bucket = self._buckets[key]
        msg = bucket[at][1]
        if pop:
            del bucket[at]
            if not bucket:
                del self._buckets[key]
        return msg

    def probe(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              where: Optional[Callable[[Message], bool]] = None
              ) -> Optional[Message]:
        """Non-destructive match (MPI_Iprobe): the message stays queued."""
        return self._find(src, tag, where, pop=False)

    def try_match(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
                  where: Optional[Callable[[Message], bool]] = None,
                  abort: Optional[Callable[[int], Optional[str]]] = None
                  ) -> Optional[Message]:
        """Dequeue the first matching message, or None — unless
        ``abort`` (as in :meth:`match`) says none can ever come: then
        the :class:`DeadlockError` the blocking match would raise."""
        msg = self._find(src, tag, where)
        if msg is None and abort is not None:
            reason = abort(src)
            if reason is not None:
                raise DeadlockError(
                    f"rank {self.rank} polling recv(src={src}, "
                    f"tag={tag}): {reason}")
        return msg

    def await_post(self, what: str) -> None:
        """Park until the next delivery to this mailbox, or a
        :meth:`poke`: how a poll over several requests (``waitany``,
        reported as ``what``) waits for any of them.  Exact deadlock
        detection raises :class:`DeadlockError` when none can come."""
        woken: List[bool] = []

        def ready() -> bool:
            if woken:
                return True     # re-checked after a wakeup
            woken.append(True)
            return False

        self._waitq.wait_for(ready, lambda: (
            f"rank {self.rank} blocked in {what}"))

    def poke(self) -> None:
        """Wake every blocked waiter for a predicate re-check without
        delivering anything — how the engine propagates a rank death or
        a communicator revocation to waits that can never complete."""
        self._waitq.notify_all()

    def match(self, src: int = ANY_SOURCE, tag: int = ANY_TAG,
              where: Optional[Callable[[Message], bool]] = None,
              abort: Optional[Callable[[int], Optional[str]]] = None) -> Message:
        """Blocking matched receive (FIFO per source/tag pair).

        ``abort(src)``, when given, is re-checked alongside the queue: a
        non-None reason means the wait can never be satisfied (the peer
        died, the communicator was revoked) and the receive raises
        :class:`DeadlockError` immediately, with the reason, instead of
        parking until the deadlock detector fires.  Queued
        messages always win over an abort: anything the peer posted
        before dying is still deliverable.
        """
        msg = self._find(src, tag, where)
        if msg is not None:
            return msg
        # nothing queued matches: register, so the post that does
        # hands its message over, and park
        parked = self._parked
        reg = [src, tag, where, None, 0]
        if not parked:
            parked.append(reg)

        def ready() -> bool:
            if reg[_HANDED] is not None:
                return True     # handed over by the post that woke us
            if not (parked and parked[0] is reg):
                # not registered (any more): a match may be queued
                reg[_HANDED] = self._find(src, tag, where)
                if reg[_HANDED] is not None:
                    return True
                if not parked:
                    parked.append(reg)
            if abort is not None:
                reason = abort(src)
                if reason is not None:
                    raise DeadlockError(
                        f"rank {self.rank} blocked in recv(src={src}, "
                        f"tag={tag}): {reason}")
            return False

        try:
            self._waitq.wait_for(ready, lambda: (
                f"rank {self.rank} blocked in recv(src={src}, tag={tag})"))
        except BaseException:
            if reg[_HANDED] is not None:
                # handed over, but we leave by raising (a deadlock
                # wake): back in front of all posted after it
                msg, order = reg[_HANDED], reg[_ORDER]
                bucket = self._buckets.setdefault((msg.src, msg.tag),
                                                  deque())
                bucket.insert(sum(o < order for o, _ in bucket),
                              (order, msg))
            raise
        finally:
            if parked and parked[0] is reg:
                parked.clear()
        return reg[_HANDED]

    def match_many(self, specs: Sequence[MatchSpec],
                   abort: Optional[Callable[[Sequence[int]], Optional[str]]] = None
                   ) -> List[Message]:
        """Blocking matched receive of a whole batch.

        ``specs`` is a sequence of ``(src, tag, where)``; the result
        holds the matched messages in spec order.  Each wakeup drains
        every spec that can currently match, instead of one wait per
        message.  Specs are scanned in order on every pass, so two
        specs competing for the same (src, tag) stream preserve FIFO.
        ``abort`` has :meth:`match` semantics, asked for each source
        still outstanding when a pass makes no progress.
        """
        results: List[Optional[Message]] = [None] * len(specs)
        remaining = list(range(len(specs)))
        if not remaining:
            return []  # type: ignore[return-value]

        def drained() -> bool:
            # drain every spec that can currently match; a pop may feed
            # a later wildcard spec, so keep passing until a pass makes
            # no progress
            while True:
                progressed = False
                still: List[int] = []
                for idx in remaining:
                    src, tag, where = specs[idx]
                    results[idx] = self._find(src, tag, where)
                    if results[idx] is not None:
                        progressed = True
                    else:
                        still.append(idx)
                remaining[:] = still
                if not remaining:
                    return True
                if not progressed:
                    for i in remaining if abort is not None else ():
                        reason = abort(specs[i][0])
                        if reason is not None:
                            raise DeadlockError(
                                f"rank {self.rank} blocked in fused recv "
                                f"({len(remaining)}/{len(specs)} "
                                f"outstanding): {reason}")
                    return False

        self._waitq.wait_for(drained, lambda: (
            f"rank {self.rank} blocked in fused recv "
            f"({len(remaining)}/{len(specs)} outstanding)"))
        return results  # type: ignore[return-value]

    @property
    def pending(self) -> int:
        """Number of unmatched messages (diagnostics)."""
        return sum(len(b) for b in self._buckets.values())
