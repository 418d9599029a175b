"""The abstract CCL backend and its generic simulated implementation.

Every vendor backend provides the same NCCL-style surface:

* the five built-in collectives (§3.2): ``all_reduce``, ``broadcast``,
  ``reduce``, ``all_gather``, ``reduce_scatter`` — executed as *fused*
  operations: one engine rendezvous gathers every rank's buffer, the
  result is computed once, and completion time comes from the backend's
  closed-form cost model (the vendor library is a black box; its
  internal ring/tree steps are priced, not stepped);
* point-to-point ``send``/``recv`` with **group semantics** (§3.3):
  inside ``group_start``/``group_end`` operations are queued and
  launched together, paying one launch overhead and contending on the
  wire tracker — the substrate Listing 1's AlltoAllv builds on.  The
  *group* is also the transport unit: a flush stages its ops once, as
  columns, with work linear in their number, and delivers them either
  as one bulk mailbox post per peer and one ``match_many`` or, for a
  group opened with a communicator hint (the send-recv collectives do
  this), through one engine rendezvous in which the columns themselves
  change hands (:class:`repro.sim.engine.GroupExchangeSlot`).  Every
  message is priced and booked on the wire individually, in program
  order — batching changes wall-clock synchronization only;
* capability checks: one declarative descriptor per backend
  (:attr:`CCLBackend.capabilities` — datatypes, HCCL float only, and
  the four reduce ops the NCCL API defines).

A call completes on the rank's virtual clock before it returns: there
is no device stream holding work behind the caller.

Payloads travel as borrowed read-only views wherever the rendezvous
proves every reader is done before the sender returns (the built-ins'
consume barrier, the whole-group exchange); a send window that aliases
a receive window of the same call is snapshotted instead
(copy-on-write), and the bulk mailbox transport always snapshots.

Subclasses supply the vendor identity and constants.
"""

from __future__ import annotations

import functools
import threading
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import fastpath
from repro.errors import (
    CCLInvalidUsage,
    CCLUnsupportedOperation,
    InvalidBufferError,
)
from repro.hw.cluster import PathScope
from repro.hw.memory import (NO_CONTENTS, Buffer, aliasing_probe, as_array,
                             borrow_view, copy_payload)
from repro.hw.vendors import Vendor
from repro.mpi.datatypes import Datatype
from repro.mpi.ops import Op
from repro.perfmodel import ccl_models
from repro.perfmodel.params import CCLParams
from repro.sim.engine import GroupExchangeSlot
from repro.sim.mailbox import ANY_TAG, Message
from repro.xccl.caps import CapabilityDescriptor
from repro.xccl.comm import XCCLComm
from repro.xccl.datatypes import require_support

_MSG_KIND = "ccl-p2p"
_MSG_META = MappingProxyType({"kind": _MSG_KIND})


class _GroupState(threading.local):
    def __init__(self) -> None:
        self.depth = 0
        #: the open group's rows per backend, in first-queued order:
        #: backend -> (sends, recvs), each row ``(comm, window, wire
        #: bytes, peer)`` with the window already cut to the row's count
        self.queued: Dict["CCLBackend", Tuple[List[tuple], List[tuple]]] = {}
        #: communicator whose symmetric exchange this group is (set by
        #: the outermost group_start; enables the fused rendezvous)
        self.exchange: Optional[XCCLComm] = None


_group = _GroupState()


def group_start(exchange: Optional[XCCLComm] = None) -> None:
    """``ncclGroupStart``: queue subsequent p2p ops on this thread.

    ``exchange`` optionally names the communicator whose ranks all
    participate symmetrically in this group (every send has a matching
    recv queued in the same group call on the peer — true for the
    send-recv collectives of §3.3).  Such a group flushes through one
    whole-group rendezvous instead of P^2 mailbox round trips.  The
    hint is only honoured on the outermost ``group_start`` of a nest.
    """
    if _group.depth == 0:
        _group.exchange = exchange
    _group.depth += 1


def group_end() -> None:
    """``ncclGroupEnd``: launch each backend's queued rows as one fused
    batch (one device per rank makes that one batch in practice)."""
    if _group.depth <= 0:
        raise CCLInvalidUsage("group_end without matching group_start")
    _group.depth -= 1
    if _group.depth:
        return
    queued, _group.queued = _group.queued, {}
    exchange, _group.exchange = _group.exchange, None
    owner = None if exchange is None else exchange.backend
    if owner is not None and owner not in queued:
        # whole-group rendezvous: flush even with zero local rows,
        # since the other ranks of the exchange arrive regardless
        queued[owner] = ([], [])
    for backend, (sends, recvs) in queued.items():
        backend._execute_group(
            sends, recvs,
            exchange if backend is owner and _only_on(exchange, sends)
            and _only_on(exchange, recvs) else None)


def _only_on(comm: XCCLComm, rows: Sequence[tuple]) -> bool:
    """Whether every row of ``rows`` is on ``comm``."""
    for row in rows:
        if row[0] is not comm:
            return False
    return True


def aborts_group_on_error(fn):
    """Decorator for code that opens groups: whatever escapes it — a
    CCL error from a queued call, a bad buffer — first aborts the
    thread's open group (depth 0, queued rows and the buffers they pin
    dropped, exchange hint cleared), so the next group on this thread
    starts clean instead of queueing into a dead one."""
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BaseException:
            _group.__init__()   # this thread's state, as new
            raise
    return guarded


def in_group() -> bool:
    """True while a group is open on this thread."""
    return _group.depth > 0


def _spans_nodes(sends: Sequence[tuple], recvs: Sequence[tuple]) -> bool:
    """Whether a row's peer lives on another node than its rank."""
    for rows in (sends, recvs):
        for comm, _window, _nbytes, peer in rows:
            nodes = comm.record.nodes
            if nodes[peer] != nodes[comm.rank]:
                return True
    return False


def _aliasing(sends: Sequence[tuple], recvs: Sequence[tuple]):
    """The copy-on-write probe of a flush over its receive windows, or
    None when no send allocation can overlap a receive allocation.

    A row's window lies inside the array it was cut from (``.base``);
    the allocations are compared once per flush
    (:func:`aliasing_probe` over whole arrays: by extents, numpy's
    verdict where those do not decide), and only when one overlaps is
    every send window put to the probe — numpy's verdict, window by
    window."""
    overlaps = aliasing_probe(_homes(recvs))
    for home in _homes(sends):
        if overlaps(home):
            return aliasing_probe([row[1] for row in recvs])
    return None


def _homes(rows: Sequence[tuple]) -> List[np.ndarray]:
    """The distinct arrays the windows of ``rows`` were cut from (a
    window that is not a view is its own)."""
    homes = {}
    for row in rows:
        window = row[1]
        home = window.base
        if not isinstance(home, np.ndarray):
            home = window
        homes[id(home)] = home
    return list(homes.values())


def _land(ctx, recvs: Sequence[tuple], rows: Sequence[tuple],
          arrivals: List[float], transport: str) -> None:
    """Copy delivered ``rows`` into the windows of their ``recvs``,
    appending each arrival time to ``arrivals`` (the caller merges the
    batch's max into its clock in one step).  A storage-free window
    takes nothing; storage-free contents have nothing to give real
    memory.  ``transport`` labels the trace events with the delivery
    path the batch took."""
    for (_comm, target, _n, _peer), (payload, _nb, _d, arrival) \
            in zip(recvs, rows):
        if target.strides[0]:
            if not payload.strides[0] and payload.size:
                raise InvalidBufferError(NO_CONTENTS)
            target[...] = payload
        arrivals.append(arrival)
    if ctx.trace.enabled:
        for (comm, _t, _n, peer), (_p, nbytes, depart, arrival) \
                in zip(recvs, rows):
            ctx.trace.record("ccl-recv", depart, arrival,
                             peer=comm.group[peer], nbytes=nbytes,
                             label=transport)


def _recv_scope(recvs: Sequence[tuple]):
    """The scope the bulk receive of a flush asks ``doomed`` about: its
    communicator's — or, for a batch mixing communicators, none, so
    only the peers' deaths count."""
    if not recvs or not _only_on(recvs[0][0], recvs):
        return None
    return recvs[0][0].record.scope


def _row_of(msg: Message):
    """A mailbox message as a delivered row."""
    return msg.data, msg.nbytes, msg.depart_us, msg.arrival_us


class CCLBackend:
    """Base class of all simulated vendor CCLs."""

    #: backend name ("nccl", ...); set by subclasses.
    name: str = "xccl"
    #: vendors whose devices this backend can drive.
    vendors: Tuple[Vendor, ...] = ()
    #: cost-model constants; set by subclasses.
    params: CCLParams
    #: declarative capability descriptor (:mod:`repro.xccl.caps`), the
    #: one place the backend's datatype and reduce-op answers live;
    #: every backend binds one at class definition.
    capabilities: CapabilityDescriptor

    # -- capability checks -------------------------------------------------

    def _check(self, dt: Datatype, op: Optional[Op], count: int,
               *windows: Tuple[object, int]) -> None:
        """Refuse a call before it queues or meets anyone: a datatype or
        reduce op the backend lacks, a negative ``count``, or a window
        ``(buffer, blocks)`` holding fewer than ``count * blocks``
        elements (``ncclInvalidArgument``; a None buffer is not used by
        this rank).  The count is all a storage-free window has to say
        what it moves."""
        require_support(self.capabilities, dt)
        if op is not None and not self.capabilities.allows_op(op):
            raise CCLUnsupportedOperation(
                f"{self.name} has no reduce op for {op.name}")
        if count < 0:
            raise CCLInvalidUsage(f"{self.name}: negative count {count}")
        for buf, blocks in windows:
            if buf is None:
                continue
            # the size only (``as_array`` is a call per queued p2p op)
            size = (buf.array if isinstance(buf, Buffer)
                    else np.asarray(buf)).size
            if count * blocks > size:
                raise CCLInvalidUsage(
                    f"{self.name}: count {count} x {blocks} does not fit a "
                    f"{size}-element buffer")

    # -- point-to-point ---------------------------------------------------------
    #
    # ``send`` and ``recv`` queue one row each; the §3.3 collectives call
    # them once per message, with plain slices of their windows, which
    # pass the checks inline (anything else goes through ``_check``).
    # The two bodies differ in one index: a shared helper would be a
    # call per row.

    def send(self, comm: XCCLComm, buf, count: int, dt: Datatype,
             peer: int) -> None:
        """``xcclSend``: to communicator rank ``peer``.  Queued as one
        row when a group is open, otherwise flushed at once."""
        if type(buf) is np.ndarray and buf.ndim == 1 \
                and 0 <= count <= buf.size \
                and dt.name in self.capabilities.mpi_datatypes:
            arr = buf   # nothing here for ``_check`` to refuse
        else:
            self._check(dt, None, count, (buf, 1))
            arr = as_array(buf)
        if not 0 <= peer < len(comm.group):
            comm.world_rank(peer)   # raises
        row = (comm, arr if arr.size == count else arr[:count],
               count * dt.wire_itemsize, peer)
        queued = _group.queued.get(self)
        if queued is not None:
            queued[0].append(row)
        elif _group.depth:
            _group.queued[self] = ([row], [])
        else:
            self._execute_group([row], [])

    def recv(self, comm: XCCLComm, buf, count: int, dt: Datatype,
             peer: int) -> None:
        """``xcclRecv``: from communicator rank ``peer``."""
        if type(buf) is np.ndarray and buf.ndim == 1 \
                and 0 <= count <= buf.size \
                and dt.name in self.capabilities.mpi_datatypes:
            arr = buf   # nothing here for ``_check`` to refuse
        else:
            self._check(dt, None, count, (buf, 1))
            arr = as_array(buf)
        if not 0 <= peer < len(comm.group):
            comm.world_rank(peer)   # raises
        row = (comm, arr if arr.size == count else arr[:count],
               count * dt.wire_itemsize, peer)
        queued = _group.queued.get(self)
        if queued is not None:
            queued[1].append(row)
        elif _group.depth:
            _group.queued[self] = ([], [row])
        else:
            self._execute_group([], [row])

    def _route_pricing(self, comm: XCCLComm, peer: int, bidir: bool):
        """Size-independent route pricing for one CCL p2p flow to
        communicator rank ``peer``: ``(resources, beta, alpha base,
        store-forward rate)``.

        Inter-node transfers price against the *fabric* bandwidth (the
        backend's ``bw_eff_inter`` is calibrated to it; the RDMA engine
        streams through the intermediate hops).  ``bidir`` marks flows
        known to run both directions simultaneously: bandwidth drops to
        the backend's measured bidirectional share.
        """
        ctx = comm.ctx
        cluster = ctx.cluster
        src, dst = ctx.device, ctx.device_of(comm.group[peer])
        path = cluster.path(src, dst)
        inter = path.scope == PathScope.INTER
        if path.scope == PathScope.LOCAL:
            beta = path.beta_bpus
        elif inter:
            assert path.fabric is not None
            beta = path.fabric.beta_bpus * self.params.bw_eff_inter
        else:
            beta = path.beta_bpus * self.params.bw_eff_intra
        if bidir:
            duplex = min(path.bottleneck.duplex_factor, self.params.bibw_ratio)
            if duplex < 2.0:
                beta *= duplex / 2.0
        alpha_base = path.alpha_us + self.params.step_alpha(inter)
        return (cluster.transfer_resources(src, dst), beta, alpha_base,
                self.params.store_forward_bpus(inter))

    @staticmethod
    def _seq_matcher(uid: int, seq: int):
        """Predicate matching one CCL p2p message by (uid, seq)."""
        def match(m: Message) -> bool:
            return (m.kind == _MSG_KIND and m.ctx_id == uid
                    and m.seq == seq)
        return match

    @staticmethod
    def _message(src: int, dst: int, uid: int, seq: int, row) -> Message:
        """A staged row as a mailbox message."""
        payload, nbytes, depart, arrival = row
        return Message(src, dst, 0, payload, depart, arrival, nbytes,
                       _MSG_META, _MSG_KIND, uid, seq)

    def _stage(self, ctx, sends: Sequence[tuple], recvs: Sequence[tuple],
               t0: float, borrow: bool):
        """Turn the send rows of one flush into columns, in program
        order and in one pass with no call per row: ``(seqs, rows,
        by_dst)`` — per send its sequence number and ``(payload, nbytes,
        depart, arrival)``, and the sends' positions per destination
        world rank.

        ``borrow``: the transport's exit is synchronized on every rank,
        so a send may travel as a borrowed read-only view of its window
        unless it aliases a receive window of the flush (copy-on-write,
        :func:`_aliasing`); otherwise every send is snapshotted.  Route
        pricing is walked once per (peer, direction) and replayed from
        the communicator — topology and backend constants are immutable
        — and the flush is booked in one ``book_many``, in program
        order; counters are bumped once, with the flush's totals."""
        # flows that both send to and receive from a peer in this batch
        # run both directions simultaneously (bibw, alltoall patterns)
        recv_from = {(row[0], row[3]) for row in recvs}
        probe = _aliasing(sends, recvs) if borrow else None
        seqs: List[int] = []
        staged = []     # (payload, nbytes, booking | None for a self-copy)
        by_dst: Dict[int, List[int]] = {}
        bookings = []
        forced = 0
        for comm, view, nbytes, peer in sends:
            if not borrow or probe is not None and probe(view):
                # in-place patterns (send window aliased with a receive
                # window) keep copy-on-write semantics; a storage-free
                # view is its own snapshot
                payload = view.copy() if view.strides[0] else view
                forced += 1
            else:
                # lent as a read-only view: a window cut from a lent send
                # buffer (the §3.3 collectives lend theirs) already is one
                payload = borrow_view(view) if view.flags.writeable \
                    else view
            by_dst.setdefault(comm.group[peer], []).append(len(seqs))
            counters = comm.send_seq
            if counters is None:
                counters = comm.send_seq = [0] * len(comm.group)
            counters[peer] = seq = counters[peer] + 1
            seqs.append(seq)
            if peer == comm.rank:
                staged.append((payload, nbytes, None))
                continue
            key = (peer, (comm, peer) in recv_from)
            priced = comm.route_pricing.get(key)
            if priced is None:
                priced = comm.route_pricing[key] = \
                    self._route_pricing(comm, *key)
            resources, beta, alpha_base, sf_bpus = priced
            staged.append((payload, nbytes, len(bookings)))
            bookings.append((resources, t0, nbytes, beta,
                             alpha_base + nbytes / sf_bpus))
        arrivals = ctx.engine.wires.book_many(bookings)
        rows = [(payload, nbytes, t0, t0 + 0.5 if bi is None else arrivals[bi])
                for payload, nbytes, bi in staged]
        stats = fastpath.STATS
        stats.fusion_flushes += 1
        stats.fusion_msgs += len(rows)
        if borrow:
            stats.copies_forced += forced
            stats.copies_elided += len(rows) - forced
        return seqs, rows, by_dst

    def _admit(self, ctx, sends: Sequence[tuple], seqs: List[int],
               rows: List[tuple], by_dst: Dict[int, List[int]]) -> None:
        """Put staged rows to the destinations' mailbox ``filter`` as
        ``post_many`` would (per destination, in program order): a
        dropped row leaves ``by_dst``, a kept one takes its arrival."""
        for world, mine in by_dst.items():
            admit = ctx.mailbox_of(world).filter
            kept = []
            for i in mine:
                msg = self._message(ctx.rank, world, sends[i][0].uid,
                                    seqs[i], rows[i])
                if admit(msg):
                    rows[i] = _row_of(msg)
                    kept.append(i)
            mine[:] = kept

    def _execute_group(self, sends: Sequence[tuple], recvs: Sequence[tuple],
                       exchange: Optional[XCCLComm] = None) -> None:
        """Launch a batch of queued rows: one launch overhead, all sends
        posted, all receives matched, the clock merged at the end.

        The rows stay columns from the first queued op to the last
        copy-out: :meth:`_stage` numbers, prices and books the sends in
        one pass, and two transports deliver the same columns, so
        per-message virtual times are identical (same pricing, same
        wire bookings, same order):

        * bulk: the rows become ``Message`` objects, one ``post_many``
          per peer, recvs drained by one ``match_many``;
        * whole-group rendezvous (``exchange`` hint): every rank of the
          communicator deposits its columns into one
          :class:`~repro.sim.engine.GroupExchangeSlot` and picks its
          inbound rows out of the others' — no mailbox traffic, and a
          ``Message`` only for inbound rows no receive of this group
          claims.

        Receive windows are filled by :func:`_land`, with no call per
        row.  A fault plan's message rules (the mailboxes' ``filter``)
        see every row on either transport: before the rendezvous the
        sender puts its rows to them (:meth:`_admit`); a dropped row's
        receive falls to the deferred mailbox match.
        """
        ctx = (exchange or (sends or recvs)[0][0]).ctx
        # transport label for trace events: which of the delivery paths
        # this batch took (observability only)
        transport = "bulk" if exchange is None else "exchange"

        if sends or recvs:
            t0 = ctx.clock.advance(
                self.params.launch_us
                + (self.params.inter_extra_launch_us
                   if _spans_nodes(sends, recvs) else 0.0))
        elif exchange is not None:
            t0 = ctx.now  # empty exchange-side flush: nothing launched
        else:
            return

        # stage every send first so symmetric groups cannot deadlock.
        # The whole-group rendezvous is the one transport whose exit is
        # synchronized on every rank, so only there may send snapshots
        # become borrowed views (reclaimed at the consume barrier).
        seqs, rows, by_dst = self._stage(ctx, sends, recvs, t0,
                                         exchange is not None)
        if ctx.trace.enabled:
            for (comm, _v, _n, peer), row in zip(sends, rows):
                ctx.trace.record("ccl-send", t0, t0, peer=comm.group[peer],
                                 nbytes=row[1], label=transport)

        arrivals_in: List[float] = [t0]
        doomed = ctx.engine.doomed
        if exchange is None:
            for world, mine in by_dst.items():
                ctx.mailbox_of(world).post_many([
                    self._message(ctx.rank, world, sends[i][0].uid,
                                  seqs[i], rows[i]) for i in mine])
            specs = []
            for comm, _t, _n, peer in recvs:
                counters = comm.recv_seq
                if counters is None:
                    counters = comm.recv_seq = [0] * len(comm.group)
                counters[peer] = seq = counters[peer] + 1
                specs.append((comm.group[peer], ANY_TAG,
                              self._seq_matcher(comm.uid, seq)))
            matched = ctx.mailbox.match_many(
                specs, abort=functools.partial(doomed, _recv_scope(recvs)))
            _land(ctx, recvs, [_row_of(m) for m in matched], arrivals_in,
                  transport)
        else:
            if ctx.engine.any_mailbox_patched:
                self._admit(ctx, sends, seqs, rows, by_dst)
            slot = ctx.collective_slot(exchange.next_group_key(),
                                       exchange.size, factory=GroupExchangeSlot)
            inbound = {(sender, their_seqs[i]): their_rows[i]
                       for sender, mine, (their_seqs, their_rows)
                       in slot.exchange_for(exchange.rank, by_dst,
                                            (seqs, rows), ctx.rank)
                       for i in mine}
            fastpath.STATS.fusion_exchanges += 1
            counters = exchange.recv_seq
            if counters is None:
                counters = exchange.recv_seq = [0] * exchange.size
            claimed, landed, pending = [], [], []
            for row in recvs:
                peer = row[3]
                counters[peer] = seq = counters[peer] + 1
                got = inbound.pop((peer, seq), None)
                if got is None:
                    # sent outside this group call (mixed patterns),
                    # or dropped by a fault rule: fall back to the
                    # mailbox.  The blocking match is
                    # deferred past the consume barrier — the sender
                    # may only post this message after leaving its own
                    # group.
                    pending.append((row, seq))
                else:
                    claimed.append(row)
                    landed.append(got)
            fastpath.STATS.fusion_fallbacks += len(pending)
            if inbound:
                # inbound mail this group's recvs did not claim stays
                # receivable by a later group or recv; borrowed views
                # must not escape the barrier, so materialize them
                unclaimed = []
                for (sender, seq), got in inbound.items():
                    if not got[0].flags.writeable:
                        if got[0].strides[0]:
                            got = (got[0].copy(),) + got[1:]
                        fastpath.STATS.copies_forced += 1
                    unclaimed.append(self._message(
                        exchange.group[sender], ctx.rank, exchange.uid,
                        seq, got))
                ctx.mailbox.deliver_many(unclaimed)
            # land every exchanged view first, then release all senders
            # at the consume barrier; only then may the deferred
            # fallback matches block on late traffic
            _land(ctx, claimed, landed, arrivals_in, transport)
            slot.consume_barrier(exchange.rank)
            for row, seq in pending:
                msg = ctx.mailbox.match(
                    src=exchange.group[row[3]],
                    where=self._seq_matcher(exchange.uid, seq),
                    abort=functools.partial(doomed, exchange.record.scope))
                _land(ctx, [row], [_row_of(msg)], arrivals_in, "fallback")
        ctx.clock.merge_many(arrivals_in)

    # -- fused built-in collectives ------------------------------------------

    def _fused(self, comm: XCCLComm, key, payload, duration: float, compute,
               consume, cleanup=None, nbytes: int = 0, label: str = ""):
        """Common rendezvous plumbing: deposit payload, one rank
        computes, everyone completes at ``max(arrivals) + duration``.

        ``consume(rank, result, data)`` runs on every rank's own thread
        under the slot's consume barrier — the window in which borrowed
        payload views and pooled accumulators may still be read (see
        :class:`repro.sim.engine.CollectiveSlot`).  ``cleanup(result)``
        runs once, after the last consumer — where pooled scratch is
        returned.

        When tracing is on, the call records one ``ccl`` span from this
        rank's deposit to the collective's completion time — the only
        trace record the five built-in collectives get (the vendor
        library is a black box; its internal steps are priced, not
        stepped).
        """
        ctx = comm.ctx
        t_deposit = ctx.now
        slot = ctx.collective_slot(key, comm.size)

        def _run(payloads: Dict[int, Tuple]):
            data = {r: p[0] for r, p in payloads.items()}
            t_done = max(p[1] for p in payloads.values()) + duration
            return compute(data), t_done

        def _consume(rank: int, result_pair, payloads: Dict[int, Tuple]):
            consume(rank, result_pair[0],
                    {r: p[0] for r, p in payloads.items()})

        _cleanup = None if cleanup is None else \
            (lambda result_pair: cleanup(result_pair[0]))
        _result, t_done = slot.exchange(comm.rank, (payload, ctx.now), _run,
                                        consume=_consume, cleanup=_cleanup)
        ctx.clock.merge(t_done)
        # key = ("xccl", uid, kind, seq) — see XCCLComm.next_coll_key
        if ctx.trace.enabled:
            ctx.trace.record("ccl", t_deposit, ctx.now, nbytes=nbytes,
                             label=label or f"{self.name}:{key[2]}")

    def _reduce_pooled(self, comm: XCCLComm, op: Op,
                       data: Dict[int, np.ndarray]):
        """``(accumulator, pool, key)``: every rank's operand reduced
        in rank order into scratch drawn from the engine's shared pool
        (exact shape match); :meth:`_release_pooled` hands it back.
        One in-place chain (``out=acc``) for every op: nothing is
        allocated per step, and float SUM / PROD keep the association
        order their results depend on.  Storage-free operands have
        nothing to reduce: the first stands for the result, and no
        accumulator is drawn."""
        if not data[0].strides[0] and data[0].size:
            return data[0], None, None
        pool = comm.ctx.engine.scratch_pool
        key = (str(data[0].dtype), int(data[0].size))
        acc = pool.acquire(key)
        if acc is None:
            acc = np.empty_like(data[0])
        np.copyto(acc, data[0], casting="unsafe")
        for r in range(1, len(data)):
            op.reduce_into(acc, data[r])
        return acc, pool, key

    @staticmethod
    def _release_pooled(res) -> None:
        acc, pool, key = res
        if pool is not None:
            pool.release(key, acc)

    def all_reduce(self, comm: XCCLComm, sendbuf, recvbuf, count: int,
                   dt: Datatype, op: Op) -> None:
        """``xcclAllReduce``."""
        self._check(dt, op, count, (sendbuf, 1), (recvbuf, 1))
        nbytes = count * dt.wire_itemsize
        dur = ccl_models.allreduce_time(self.params, comm.shape, nbytes)
        src = recvbuf if sendbuf is None else sendbuf
        src_view = as_array(src)[:count]
        key = comm.next_coll_key("allreduce")
        fastpath.STATS.copies_elided += 1
        out = as_array(recvbuf)[:count]
        self._fused(
            comm, key, borrow_view(src_view), dur,
            lambda data: self._reduce_pooled(comm, op, data),
            consume=lambda rank, res, data: copy_payload(out, res[0]),
            cleanup=self._release_pooled, nbytes=nbytes)

    def broadcast(self, comm: XCCLComm, buf, count: int, dt: Datatype,
                  root: int) -> None:
        """``xcclBroadcast`` (in-place, NCCL ``ncclBcast`` style)."""
        self._check(dt, None, count, (buf, 1))
        comm.world_rank(root)
        nbytes = count * dt.wire_itemsize
        dur = ccl_models.bcast_time(self.params, comm.shape, nbytes)
        key = comm.next_coll_key("bcast")
        if comm.rank == root:
            fastpath.STATS.copies_elided += 1
            payload = borrow_view(as_array(buf)[:count])
            out = None
        else:
            payload = None
            out = as_array(buf)[:count]

        def consume(rank, result, data):
            if out is not None:
                copy_payload(out, result)

        self._fused(comm, key, payload, dur, lambda data: data[root],
                    consume=consume, nbytes=nbytes)

    def reduce(self, comm: XCCLComm, sendbuf, recvbuf, count: int,
               dt: Datatype, op: Op, root: int) -> None:
        """``xcclReduce``: result lands at ``root`` only."""
        self._check(dt, op, count,
                    (recvbuf if sendbuf is None else sendbuf, 1),
                    (recvbuf if comm.rank == root else None, 1))
        comm.world_rank(root)
        nbytes = count * dt.wire_itemsize
        dur = ccl_models.reduce_time(self.params, comm.shape, nbytes)
        src = recvbuf if sendbuf is None else sendbuf
        src_view = as_array(src)[:count]
        key = comm.next_coll_key("reduce")
        fastpath.STATS.copies_elided += 1
        out = as_array(recvbuf)[:count] if comm.rank == root else None

        def consume(rank, res, data):
            if out is not None:
                copy_payload(out, res[0])

        self._fused(comm, key, borrow_view(src_view), dur,
                    lambda data: self._reduce_pooled(comm, op, data),
                    consume=consume, cleanup=self._release_pooled,
                    nbytes=nbytes)

    def all_gather(self, comm: XCCLComm, sendbuf, recvbuf, count: int,
                   dt: Datatype) -> None:
        """``xcclAllGather``: ``count`` elements contributed per rank."""
        self._check(dt, None, count, (sendbuf, 1), (recvbuf, comm.size))
        nbytes = count * dt.wire_itemsize
        dur = ccl_models.allgather_time(self.params, comm.shape, nbytes)
        in_place = sendbuf is None
        src = sendbuf if not in_place else \
            as_array(recvbuf)[comm.rank * count:(comm.rank + 1) * count]
        src_view = as_array(src)[:count]
        out = as_array(recvbuf)[:count * comm.size]
        key = comm.next_coll_key("allgather")
        if not in_place and np.may_share_memory(src_view, out):
            # aliased send window (nonstandard in-place spelling):
            # copy-on-write — peers read a snapshot while this rank
            # overwrites the window
            fastpath.STATS.copies_forced += 1
            payload = src_view.copy() if src_view.strides[0] else src_view
        else:
            fastpath.STATS.copies_elided += 1
            payload = borrow_view(src_view)
        me = comm.rank

        def consume(rank, result, data):
            # gather straight from the deposited payloads into this
            # rank's receive buffer: no concatenation, no staging;
            # in place, the own segment already holds its bytes
            for r in range(comm.size):
                if in_place and r == me:
                    continue
                copy_payload(out[r * count:(r + 1) * count], data[r])

        self._fused(comm, key, payload, dur, lambda data: None,
                    consume=consume, nbytes=nbytes)

    def reduce_scatter(self, comm: XCCLComm, sendbuf, recvbuf, count: int,
                       dt: Datatype, op: Op) -> None:
        """``xcclReduceScatter``: ``count`` elements produced per rank."""
        self._check(dt, op, count,
                    (recvbuf if sendbuf is None else sendbuf, comm.size),
                    (recvbuf, 1))
        nbytes = count * dt.wire_itemsize
        dur = ccl_models.reduce_scatter_time(self.params, comm.shape, nbytes)
        src = sendbuf if sendbuf is not None else recvbuf
        src_view = as_array(src)[:count * comm.size]
        key = comm.next_coll_key("reduce_scatter")
        fastpath.STATS.copies_elided += 1
        out = as_array(recvbuf)[:count]
        lo, hi = comm.rank * count, (comm.rank + 1) * count
        self._fused(
            comm, key, borrow_view(src_view), dur,
            lambda data: self._reduce_pooled(comm, op, data),
            consume=lambda rank, res, data:
                copy_payload(out, res[0][lo:hi]),
            cleanup=self._release_pooled, nbytes=nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"
