"""Point-to-point protocols: eager and receiver-driven rendezvous.

The transport under every MPI call.  Messages below the eager threshold
are buffered-sent: the payload snapshot travels immediately and the
send completes locally.  Larger messages use rendezvous: the RTS
carries the payload, the *receiver* prices the bulk transfer on the
wire tracker once it has matched, and a CTS-completion flows back so
the sender's ``wait`` learns when its buffer was drained — which lets
nonblocking exchange patterns complete without a progress thread.

Every method takes its buffers as **windows** ``(buffer, offset,
count)`` (``count`` None: the rest of the buffer) and cuts them itself,
reading residency from the buffer: the public spellings pass offset 0,
and a collective's rounds pass the block they move, so no buffer view
is built per message.

Payloads whose protocol already guarantees the sender cannot reuse the
buffer early travel as *borrowed views*
(:class:`~repro.sim.mailbox.PayloadLease`) instead of snapshots:

* **rendezvous sends, blocking and nonblocking** — the receiver copies
  the payload out *before* posting its CTS, so the send's completion
  (the return of ``send`` / ``sendrecv``, or ``wait`` / ``test`` /
  ``waitany`` / ``waitall`` on an ``isend``'s request) proves the view
  was drained; no snapshot is ever taken.  MPI's buffer rule
  (MPI-4.1 §3.7.2) is what lends a nonblocking send's window: the
  caller must not modify it until the request completes, so a write
  before then is erroneous, and here its effect is undefined;
* **eager sends inside** :meth:`P2PEndpoint.sendrecv` — the snapshot
  is deferred: the view is posted, and only if the partner has not
  consumed it by the time ``sendrecv`` returns is a copy forced (the
  copy-on-write escape hatch).  Ring and pairwise exchanges — the hot
  users of ``Sendrecv`` — mostly find the view already consumed.

Overlapping windows (a send window sharing memory with the receive
window of the same ``sendrecv``) always force the copying path.  A
nonblocking send's lease outlives the call that posted it, so it stays
copy-on-write against its own rank's receives: until its request
completes it is registered on the rank (``RankContext.lent``, keyed by
the allocation its view was cut from), and a receive landing on memory
it lent copies it out first (:meth:`P2PEndpoint._copy_lent`).  An eager
send outside ``sendrecv`` completes locally — nothing orders the
receiver's copy before the caller's next write — so it keeps its
snapshot.  Overlap is decided by allocation: windows of two distinct
arrays that each own their memory cannot overlap (the rule of
:func:`~repro.hw.memory.aliasing_probe`), and only windows of one
allocation — an in-place exchange, a ring inside one receive buffer —
or of arrays that do not own their memory are numpy's to judge.  Faults
do not force copies: a dropped message is never read, and a delayed one
is re-timed, not held.  The handoff never affects virtual time or
received bytes.

Per message the path is flat: what a send needs of its route is a
**send descriptor** decoded once per (peer, device, bidir) — wire
resources, alpha, beta, eager threshold, destination mailbox; what a
match reads (kind, scope, sequence number, lease) are fields of the
:class:`~repro.sim.mailbox.Message`; and every wait and poll of an
endpoint shares one predicate and one abort probe (``Engine.doomed``
on the endpoint's scope).  Every method, :meth:`P2PEndpoint.sendrecv`
included, posts through one send helper and lands through one receive
helper.

Device buffers ride the GPU-direct path (device-to-device alpha/beta,
plus a per-message GDR surcharge) when the runtime is GPU-aware, or are
staged through host memory chunk-by-chunk when it is not (§2.2 of the
paper).
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType
from typing import Optional, Tuple

import numpy as np

from repro import fastpath
from repro.errors import InvalidBufferError, MPITruncateError
from repro.hw.cluster import PathScope
from repro.hw.memory import (NO_CONTENTS, DeviceBuffer, as_array, borrow_view,
                              snapshot)
from repro.mpi.config import MPIConfig
from repro.mpi.datatypes import Datatype
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.sim.engine import RankContext
from repro.sim.mailbox import ANY_SOURCE, ANY_TAG, Message, PayloadLease

_KIND_EAGER = "eager"
_KIND_RTS = "rts"
_KIND_CTS = "cts"
#: the kinds a receive matches (a CTS only ever answers a send's wait)
_INCOMING = (_KIND_EAGER, _KIND_RTS)
#: ``Message.meta`` of the two kinds that carry nothing else there
_META_EAGER = MappingProxyType({"kind": _KIND_EAGER})
_META_CTS = MappingProxyType({"kind": _KIND_CTS})

_seq = itertools.count(1)


def lends(sarr: np.ndarray, view: np.ndarray, rarr: np.ndarray,
          window: np.ndarray) -> bool:
    """Whether a ``sendrecv`` may lend its send ``view`` (of ``sarr``):
    it shares no memory with the receive ``window`` (of ``rarr``).
    Windows of two distinct allocations that own their memory are
    disjoint (``aliasing_probe``'s rule): numpy judges the rest."""
    return not ((sarr is rarr or sarr.base is not None
                 or rarr.base is not None)
                and np.may_share_memory(view, window))


class P2PEndpoint:
    """The p2p engine of one rank within one communicator context.

    Arguments arrive resolved: the communicator checks them, passes
    *world* ranks and the datatype.  ``ctx_id`` isolates traffic between
    communicators.
    """

    def __init__(self, ctx: RankContext, config: MPIConfig, ctx_id: int) -> None:
        self.ctx = ctx
        self.config = config
        self.ctx_id = ctx_id
        #: send descriptor per (peer, device, bidir): ``(resources,
        #: alpha, beta, eager threshold, destination mailbox)`` —
        #: topology and config are immutable, so the graph walk and the
        #: mailbox lookup are done once.
        self._path_cache: dict = {}

        def incoming(m: Message) -> bool:
            return m.ctx_id == ctx_id and m.kind in _INCOMING
        #: the one match predicate of every receive of this endpoint
        self._incoming = incoming
        #: the one abort probe of every wait and poll (``peer -> reason``)
        self._doomed = functools.partial(ctx.engine.doomed, ctx_id)
        #: the rank's pending lent sends (one dict for all its endpoints)
        self._lent = ctx.lent

    # -- path pricing -----------------------------------------------------

    def _path_for(self, peer_world: int, device_involved: bool,
                  bidir: bool = False):
        """The send descriptor of a key, decoded on first use."""
        key = (peer_world, device_involved, bidir)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        cluster = self.ctx.cluster
        src, dst = self.ctx.device, self.ctx.device_of(peer_world)
        path = cluster.path(src, dst)
        resources = self.ctx.engine.wires.resources(
            cluster.transfer_resources(src, dst))
        alpha = path.alpha_us
        if device_involved:
            alpha += self.config.gpu_alpha_extra_us
        if path.scope == PathScope.INTER:
            # RDMA streams through the hops; calibrated against fabric
            assert path.fabric is not None
            beta = self.config.effective_beta(path.scope, path.fabric.beta_bpus)
        else:
            beta = self.config.effective_beta(path.scope, path.beta_bpus)
            beta = path.bottleneck.effective_beta(beta)
        if bidir and path.bottleneck.duplex_factor < 2.0:
            beta *= path.bottleneck.duplex_factor / 2.0
        cached = self._path_cache[key] = (
            resources, alpha, beta, self.config.eager_threshold(path.scope),
            self.ctx.mailbox_of(peer_world))
        return cached

    def stage_us(self, nbytes: int) -> float:
        """What a pipelined D2H (or H2D) staging copy of ``nbytes``
        charges."""
        cfg = self.config
        host = self.ctx.device.node.host_link
        chunks = max(1, -(-nbytes // cfg.pipeline_chunk_bytes))
        # pipelined: one chunk latency plus full-size wire time
        return host.alpha_us * chunks + nbytes / host.beta_bpus

    def eager_recv_us(self, nbytes: int) -> float:
        """What landing an eager message of ``nbytes`` charges its
        receiver (:meth:`_finish_recv` spells it inline)."""
        cfg = self.config
        return cfg.recv_overhead_us + cfg.tag_matching_us + nbytes / cfg.unpack_bpus

    # -- send -------------------------------------------------------------

    def isend(self, buf, off: int, count: Optional[int], dst_world: int,
              tag: int, datatype: Datatype) -> Request:
        """Nonblocking send of window ``(buf, off, count)`` (``count``
        None: the rest of ``buf``); returns a :class:`Request`.

        A rendezvous payload is lent until the request completes (MPI's
        rule: the caller leaves the window alone until then); the
        receiver copies it out once, and a receive of this rank landing
        on it first takes the snapshot instead.  An eager payload is a
        snapshot: the send completes here."""
        arr = as_array(buf)
        view = arr[off:] if count is None else arr[off:off + count]
        msg, req = self._send_impl(view, isinstance(buf, DeviceBuffer),
                                   dst_world, tag, datatype, True,
                                   keep=True)
        if req is None:  # eager: completed locally
            return Request.completed(
                Status(msg.src, tag, view.size, msg.nbytes), kind="send")
        return req

    def _send_impl(self, view: np.ndarray, device: bool, dst_world: int,
                   tag: int, datatype: Datatype, lend: bool,
                   lend_eager: bool = False, bidir: bool = False,
                   keep: bool = False) -> Tuple[Message, Optional[Request]]:
        """Post a send of ``view`` (of a device buffer when ``device``):
        ``(msg, None)`` for an eager send (complete already) or ``(msg,
        request)`` for rendezvous.

        ``lend`` promises the caller waits for the CTS before it reuses
        the buffer, which licenses lending a rendezvous payload;
        ``lend_eager`` extends the lease to an eager payload whose
        caller materializes it before returning (:meth:`sendrecv`).
        Every other payload is a snapshot.  ``bidir`` marks a flow that
        runs in both directions over the same link at once (a
        ``sendrecv`` with one partner): it is priced at the
        duplex-shared rate.  ``keep`` says the request outlives this
        call (:meth:`isend`): a lent rendezvous payload is registered on
        the rank until the request completes.
        """
        ctx, cfg = self.ctx, self.config
        nbytes = view.size * datatype.wire_itemsize
        if device and not cfg.gpu_direct:
            ctx.clock.advance(self.stage_us(nbytes))
        t0 = ctx.clock.advance(cfg.send_overhead_us)
        key = (dst_world, device and cfg.gpu_direct, bidir)
        resources, alpha, beta, eager_max, mailbox = \
            self._path_cache.get(key) or self._path_for(*key)
        seq = next(_seq)
        eager = nbytes <= eager_max
        if eager:
            arrival = ctx.engine.wires.book(resources, t0, nbytes, beta, alpha)
            kind, meta = _KIND_EAGER, _META_EAGER
        else:
            # the RTS is a tiny control message (one-way latency); the
            # receiver prices the bulk transfer from what it carries
            arrival = t0 + (alpha + cfg.tag_matching_us)
            kind, meta = _KIND_RTS, {
                "kind": _KIND_RTS, "resources": resources, "beta": beta,
                "alpha": alpha}
        # -- zero-copy handoff decision (never affects virtual time); a
        # storage-free view is its own snapshot --
        lease: Optional[PayloadLease] = None
        if lend_eager if eager else lend:
            lease = PayloadLease()
            payload = borrow_view(view)
        else:
            payload = snapshot(view)
        msg = Message(ctx.rank, dst_world, tag, payload, t0, arrival, nbytes,
                      meta, kind, self.ctx_id, seq, lease)
        mailbox.post(msg)
        if ctx.trace.enabled:
            ctx.trace.record("send", t0 - cfg.send_overhead_us, t0,
                             peer=dst_world, nbytes=nbytes, label=kind)
        if eager:
            return msg, None
        count = view.size
        lent = home = None
        if keep:
            if view.strides[0]:
                # a slice's base is its allocation (numpy collapses views)
                lent, home = self._lent, id(view.base)
                entries = lent.get(home)
                if entries is None:
                    entries = lent[home] = {}
                entries[seq] = msg
            else:   # storage-free: nothing to overwrite, but still pending
                ctx.unlent_sends += 1

        def match_cts(m: Message) -> bool:
            return m.kind == _KIND_CTS and m.seq == seq

        def complete(blocking_wait: bool) -> Optional[Status]:
            if blocking_wait:
                cts = ctx.mailbox.match(dst_world, ANY_TAG, match_cts,
                                        self._doomed)
            else:
                cts = ctx.mailbox.try_match(dst_world, ANY_TAG, match_cts,
                                            self._doomed)
                if cts is None:
                    return None
            ctx.clock.merge(cts.arrival_us)
            if lease is not None:
                if lent is not None:
                    entries = lent[home]
                    del entries[seq]
                    if not entries:
                        del lent[home]
                elif keep:
                    ctx.unlent_sends -= 1
                # the receiver consumed before posting the CTS, so this
                # reclaim only counts the snapshot we never took (or,
                # after a copy-on-write, nothing)
                lease.materialize(msg)
            return Status(ctx.rank, tag, count, nbytes)

        return msg, Request(complete, kind="send", mailbox=ctx.mailbox)

    def post_booked(self, payload: np.ndarray, dst_world: int, tag: int,
                    nbytes: int, arrival_us: float) -> None:
        """Post an eager message whose wire was booked already: a
        compiled replay's departure, handed to the mailbox when its call
        goes back to per-rank replay (its departure time is not kept:
        the arrival stands in, read only by traces, which never run
        compiled)."""
        self.ctx.mailbox_of(dst_world).post(Message(
            self.ctx.rank, dst_world, tag, payload, arrival_us, arrival_us,
            nbytes, _META_EAGER, _KIND_EAGER, self.ctx_id, next(_seq)))

    def send(self, buf, off: int, count: Optional[int], dst_world: int,
             tag: int, datatype: Datatype) -> Status:
        """Blocking send (completes locally for eager, on match for
        rendezvous — standard MPI semantics).

        Being blocking is what licenses the zero-copy rendezvous
        handoff: the receiver has drained the leased view by the time
        ``wait`` observes the CTS.
        """
        arr = as_array(buf)
        view = arr[off:] if count is None else arr[off:off + count]
        msg, req = self._send_impl(view, isinstance(buf, DeviceBuffer),
                                   dst_world, tag, datatype, True)
        if req is None:
            return Status(msg.src, tag, view.size, msg.nbytes)
        return req.wait()

    # -- receive ------------------------------------------------------------

    def _finish_recv(self, msg: Message, device: bool, window: np.ndarray,
                     datatype: Datatype) -> Status:
        """Land a matched message in ``window`` (of a device buffer when
        ``device``)."""
        ctx, cfg = self.ctx, self.config
        capacity = window.size * datatype.wire_itemsize
        nbytes = msg.nbytes
        if nbytes > capacity:
            raise MPITruncateError(
                f"rank {ctx.rank}: message of {nbytes} B from {msg.src} "
                f"truncates {capacity} B receive buffer")
        data = msg.data
        recv_count = data.size
        staged = device and not cfg.gpu_direct
        lease = msg.lease
        target = window[:recv_count]
        if self._lent and target.strides[0]:
            self._copy_lent(target)   # this rank's pending sends may lend it
        # landing without a lease: ``copy_payload``'s two tests, inline
        land = lease is None and target.strides[0]
        if land and not data.strides[0] and recv_count:
            raise InvalidBufferError(NO_CONTENTS)

        if msg.kind == _KIND_EAGER:
            clock = ctx.clock
            if msg.arrival_us > clock._now:     # ``merge``, inline
                clock._now = msg.arrival_us
            # :meth:`eager_recv_us`, inline (a call per message)
            clock.advance(cfg.recv_overhead_us + cfg.tag_matching_us
                          + nbytes / cfg.unpack_bpus)
            if staged:
                ctx.clock.advance(self.stage_us(nbytes))  # H2D staging leg
            if lease is not None:
                lease.consume(msg, target)
            elif land:
                target[...] = data
        else:
            # rendezvous: we price the bulk transfer now that we matched
            price = msg.meta
            ctx.clock.merge(msg.arrival_us)  # RTS arrival
            t_ready = ctx.clock.advance(cfg.recv_overhead_us + cfg.tag_matching_us)
            depart = max(msg.depart_us,     # CTS control latency back
                         t_ready + (price["alpha"] + cfg.tag_matching_us))
            arrival = ctx.engine.wires.book(
                price["resources"], depart, nbytes, price["beta"],
                price["alpha"])
            ctx.clock.merge(arrival)
            cts = Message(ctx.rank, msg.src, msg.tag, None, t_ready, arrival,
                          0, _META_CTS, _KIND_CTS, self.ctx_id, msg.seq)
            if staged:
                ctx.clock.advance(self.stage_us(nbytes))  # H2D staging leg
            if lease is not None:
                # copy the leased view out *before* the CTS departs:
                # the sender's wait then proves the view was drained
                # (the CTS timestamps were fixed above, so posting it
                # after the copy changes no virtual time)
                lease.consume(msg, target)
                ctx.mailbox_of(msg.src).post(cts)
            else:
                ctx.mailbox_of(msg.src).post(cts)
                if land:
                    target[...] = data
        if ctx.trace.enabled:
            ctx.trace.record("recv", msg.depart_us, ctx.now, peer=msg.src,
                             nbytes=nbytes, label=msg.kind)
        return Status(msg.src, msg.tag, recv_count, nbytes)

    def _copy_lent(self, target: np.ndarray) -> None:
        """Copy-on-write before ``target`` is written: materialize every
        still-unconsumed lease of this rank's pending sends whose view
        shares memory with it.  Only the leases cut from ``target``'s
        allocation can, when that allocation owns its memory."""
        home = target.base
        if not isinstance(home, np.ndarray):
            home = target
        lent = self._lent
        if home.flags.owndata:
            groups = (lent.get(id(home)) or {},)
        else:
            groups = tuple(lent.values())
        for entries in groups:
            for msg in entries.values():
                lease = msg.lease
                if not (lease.consumed or lease.materialized) \
                        and np.may_share_memory(msg.data, target):
                    lease.materialize(msg)

    def recv(self, buf, off: int, count: Optional[int], src_world: int,
             tag: int, datatype: Datatype) -> Status:
        """Blocking receive into window ``(buf, off, count)``."""
        arr = as_array(buf)
        msg = self.ctx.mailbox.match(src_world, tag, self._incoming,
                                     self._doomed)
        return self._finish_recv(
            msg, isinstance(buf, DeviceBuffer),
            arr[off:] if count is None else arr[off:off + count], datatype)

    def irecv(self, buf, off: int, count: Optional[int], src_world: int,
              tag: int, datatype: Datatype) -> Request:
        """Nonblocking receive; data lands at ``wait``/successful ``test``."""
        box = self.ctx.mailbox

        def complete(blocking: bool) -> Optional[Status]:
            if blocking:
                msg = box.match(src_world, tag, self._incoming, self._doomed)
            else:
                msg = box.try_match(src_world, tag, self._incoming,
                                    self._doomed)
                if msg is None:
                    return None
            arr = as_array(buf)
            return self._finish_recv(
                msg, isinstance(buf, DeviceBuffer),
                arr[off:] if count is None else arr[off:off + count],
                datatype)

        return Request(complete, kind="recv", mailbox=box)

    def probe(self, src_world: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe (``MPI_Iprobe``): Status of a matchable
        message, or None."""
        msg = self.ctx.mailbox.probe(src_world, tag, self._incoming)
        if msg is None:
            return None
        return Status(msg.src, msg.tag,
                      msg.data.size if msg.data is not None else 0,
                      msg.nbytes)

    def sendrecv(self, sbuf, soff: int, scount: Optional[int],
                 dst_world: int, rbuf, roff: int, rcount: Optional[int],
                 src_world: int, sendtag: int, recvtag: int,
                 datatype: Datatype) -> Status:
        """Combined send+receive of two windows (the deadlock-free
        exchange of ring/pairwise rounds, and ``MPI_Sendrecv``).

        Both protocol legs qualify for the zero-copy handoff: the
        rendezvous leg because we wait for the CTS before returning,
        and the eager leg because the snapshot is *deferred* — posted
        as a leased view and only materialized (copy-on-write) if the
        partner has not drained it by the time we return.  Windows that
        overlap keep the copying path.
        """
        sarr, rarr = as_array(sbuf), as_array(rbuf)
        view = sarr[soff:] if scount is None else sarr[soff:soff + scount]
        window = rarr[roff:] if rcount is None else rarr[roff:roff + rcount]
        lend = lends(sarr, view, rarr, window)
        if not lend:
            fastpath.STATS.copies_forced += 1
        smsg, sreq = self._send_impl(
            view, isinstance(sbuf, DeviceBuffer), dst_world, sendtag,
            datatype, lend, lend,
            dst_world == src_world)  # symmetric partner exchange: bidir
        # inline irecv+wait: the blocking match needs no Request shell
        msg = self.ctx.mailbox.match(src_world, recvtag, self._incoming,
                                     self._doomed)
        status = self._finish_recv(msg, isinstance(rbuf, DeviceBuffer),
                                   window, datatype)
        if sreq is not None:  # rendezvous send still outstanding
            sreq.wait()  # lease reclaim counted in the send completion
        elif smsg.lease is not None:
            # deferred eager snapshot: reclaim the buffer before the
            # caller can touch it again
            smsg.lease.materialize(smsg)
        return status
