"""Communicators: the MPI face of the runtime.

mpi4py-style buffer API (``Send``/``Recv``/``Bcast``/``Allreduce``/...),
context-isolated traffic per communicator, ``Dup``/``Split``, and a
pluggable collective dispatcher.  The dispatcher indirection is the
paper's integration hook (§3.3 "provided hooks in MPI runtimes"): the
default dispatcher selects among classic MPI algorithms; the xCCL
abstraction layer (:mod:`repro.core`) installs a dispatcher that can
route to vendor CCL backends, falling back here when capability checks
fail.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import fastpath
from repro.errors import (CommRevokedError, DeadlockError, MPICommError,
                          MPICountError, MPIRankError, MPITypeError,
                          RankKilledError)
from repro.hw.memory import Buffer, as_array, copy_payload
from repro.mpi.compute import alloc_like
from repro.mpi.config import MPIConfig, mvapich_gpu
from repro.mpi.datatypes import _BY_NP, Datatype, datatype_of
from repro.mpi.derived import DerivedDatatype
from repro.mpi.ops import Op, SUM
from repro.mpi.p2p import P2PEndpoint
from repro.mpi.request import Request, waitall
from repro.mpi.status import Status
from repro.sim.engine import RankContext
from repro.sim.mailbox import ANY_SOURCE, ANY_TAG
from repro.sim.sched import yield_now

#: sentinel for in-place collective input (``MPI_IN_PLACE``).
IN_PLACE = object()

#: what a :attr:`CollectiveCall.key` holds for a send buffer that is
#: the receive buffer (a buffer's type stands for it otherwise)
ALIASED = object()

#: (predefined op, datatype) pairs ``Op.validate`` has accepted
_VALID_OPS: set = set()

#: what a point-to-point call with no buffer moves (count 0 only)
_NOTHING = np.zeros(0, dtype=np.uint8)

#: collective traffic lives above this tag (user tags stay below).
COLL_TAG_BASE = 1 << 20

#: what a blocking operation raises when a peer died under it
_PEER_FAILURES = (DeadlockError, RankKilledError)


class CollectiveCall:
    """One logical collective operation, fully described (HiCCL-style):
    built once by the :class:`Communicator` entry point, it is all a
    collective dispatcher receives.

    Element-addressed exactly like the MPI calls it mirrors: ``count``
    for uniform collectives, ``sendcounts``/``sdispls`` and
    ``recvcounts``/``rdispls`` for the vector forms (gatherv and
    allgatherv populate the recv side, scatterv the send side).
    ``Bcast``'s single buffer is stored as ``recvbuf``.

    ``key`` is what a dispatcher's plans are looked up by: the
    descriptor's own fields — collective, count (the vector forms'
    counts and displacements), datatype, op, root and each buffer's
    type, which is its residency and, for ``IN_PLACE`` or None, its
    spelling.  Two calls with one key on one communicator route and
    run alike.  A send buffer that *is* the receive buffer (not
    ``IN_PLACE``) is keyed apart (:data:`ALIASED`): its rounds cannot
    tell the two roles apart.  None: the call is planned afresh.
    """

    __slots__ = ("coll", "comm", "sendbuf", "recvbuf", "count", "sendcounts",
                 "sdispls", "recvcounts", "rdispls", "dt", "op", "root",
                 "key")

    def __init__(self, coll: str, comm: "Communicator", sendbuf=None,
                 recvbuf=None, count: int = 0, sendcounts=None, sdispls=None,
                 recvcounts=None, rdispls=None, dt: Optional[Datatype] = None,
                 op: Optional[Op] = None, root: Optional[int] = None,
                 key: Optional[tuple] = None) -> None:
        self.key = key
        self.coll = coll
        self.comm = comm
        self.sendbuf = sendbuf
        self.recvbuf = recvbuf
        self.count = count
        self.sendcounts = sendcounts
        self.sdispls = sdispls
        self.recvcounts = recvcounts
        self.rdispls = rdispls
        self.dt = dt
        self.op = op
        self.root = root


class Communicator:
    """One rank's view of a communicator.

    What every member derives identically (group, rank map, vendor mix,
    shape, factorizations) lives once, on the shared :attr:`record`; the
    view owns its rank, sequence counter, endpoint, dispatcher and
    :attr:`routing_cache`.

    Construct the world communicator with :meth:`world`; derive others
    with :meth:`Dup` / :meth:`Split`.
    """

    def __init__(self, ctx: RankContext, config: MPIConfig,
                 group: Sequence[int], ctx_id: str) -> None:
        self.record = record = ctx.engine.comm_record(ctx_id, group, ctx.rank)
        self.ctx = ctx
        #: the caller's config, before any vendor downgrade — children
        #: (Dup/Split) derive from this, so a single-vendor island
        #: split out of a mixed communicator regains GPU-direct paths.
        self._base_config = config
        if config.gpu_direct and record.mixed_vendor:
            # GPU-direct transports (CUDA IPC, GPUDirect/ROCm RDMA) are
            # vendor-specific: a communicator spanning vendor islands
            # can only move device buffers through host staging — the
            # per-hop cost the bridge route amortizes down
            # to one hop per remote island.
            config = config.with_(gpu_direct=False)
        self.config = config
        self.group: Tuple[int, ...] = record.group
        self.ctx_id = ctx_id
        self.endpoint = P2PEndpoint(ctx, config, ctx_id)
        self._from_world = record.rank_of
        #: this process's rank within the communicator
        self.rank = record.rank_of[ctx.rank]
        #: number of ranks in the communicator
        self.size = len(record.group)
        self._seq = itertools.count(1)
        #: ULFM agree / shrink occurrences, apart from ``_seq``: survivors
        #: leave a failed collective at different points of it
        self._recoveries = itertools.count()
        self._freed = False
        #: the ledger of everything this rank caches about the
        #: communicator, by name (factorizations, negotiated descriptor,
        #: levels, call plans, tuning call counters, the CCL
        #: communicator); :meth:`Free` and :meth:`Comm_shrink` drain it,
        #: calling each entry's ``Free`` if it has one
        self.routing_cache: Dict[str, object] = {}
        #: the recorder of the round program a collective's first call
        #: is writing (:mod:`repro.mpi.coll.replay`), None between them
        self._tape = None
        from repro.mpi.coll import MPICollDispatcher  # local: avoid cycle
        #: the collective dispatcher — anything with ``run(call)`` and
        #: ``warm(call)``, caching per communicator only in
        #: :attr:`routing_cache`; assign to replace it
        self.coll = MPICollDispatcher()

    # -- construction -------------------------------------------------------

    @classmethod
    def world(cls, ctx: RankContext, config: Optional[MPIConfig] = None) -> "Communicator":
        """The COMM_WORLD of this run."""
        return cls(ctx, config or mvapich_gpu(), ctx.engine.world_group, "w")

    def Dup(self) -> "Communicator":
        """Duplicate with an isolated context (``MPI_Comm_dup``)."""
        self._check_live()
        seq = next(self._seq)
        return Communicator(self.ctx, self._base_config, self.group,
                            f"{self.ctx_id}.d{seq}")

    def Split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """Partition by color, order by key (``MPI_Comm_split``).

        Returns None for ``color < 0`` (``MPI_UNDEFINED``).
        """
        self._check_live()
        seq = next(self._seq)
        slot = self.ctx.collective_slot((self.ctx_id, "split", seq),
                                        parties=self.size)
        groups = slot.exchange(self.rank, (color, key, self.ctx.rank),
                               _split_groups)
        self.ctx.clock.advance(2.0)  # metadata allgather, tiny
        if color < 0:
            return None
        return Communicator(self.ctx, self._base_config, groups[color],
                            f"{self.ctx_id}.s{seq}.{color}")

    def Free(self) -> None:
        """Release the communicator (``MPI_Comm_free``): drain the
        ledger and give up this member's hold on the shared
        :attr:`record`."""
        if self._freed:
            return
        self._freed = True
        self._drain()
        self.record.release()

    def _drain(self) -> None:
        """Empty the ledger, calling each entry's own ``Free`` — also
        :meth:`Comm_shrink`'s, whose parent keeps its identity."""
        for entry in self.routing_cache.values():
            free = getattr(entry, "Free", None)
            if free is not None:
                free()
        self.routing_cache.clear()

    def _check_live(self) -> None:
        if self._freed:
            raise MPICommError("communicator used after Free")

    # -- fault tolerance (ULFM-style) ------------------------------------------

    def _guarded(self, fn, *args):
        """``fn(*args)`` under the elastic contract: the one guard of
        every collective run and p2p call (a nonblocking one's, around
        its request's completion).  On a revoked communicator, or one
        with a dead member (only a ``FaultPlan.kill`` makes one), raises
        :class:`~repro.errors.CommRevokedError` after revoking it
        engine-wide; the dying rank keeps its :class:`RankKilledError`.
        A :class:`Status` — or a complete request's — comes back naming
        the communicator rank."""
        engine = self.ctx.engine
        if engine._revoked and engine.is_revoked(self.ctx_id):
            self._raise_revoked()
        try:
            out = fn(*args)
        except _PEER_FAILURES as exc:
            if isinstance(exc, RankKilledError) and exc.rank == self.ctx.rank:
                raise  # our own death: propagate to the engine
            dead = engine.dead_ranks & set(self.group)
            if dead or engine.is_revoked(self.ctx_id):
                engine.revoke_comm(self.ctx_id)
                raise CommRevokedError(self.ctx_id, dead) from exc
            raise
        status = out._status if type(out) is Request else out
        if type(status) is Status:
            status.source = self._from_world[status.source]
        return out

    def _raise_revoked(self) -> None:
        engine = self.ctx.engine
        raise CommRevokedError(self.ctx_id,
                               engine.dead_ranks & set(self.group))

    def Comm_revoke(self) -> None:
        """Revoke the communicator (``MPIX_Comm_revoke``).

        Idempotent and engine-wide: after any rank revokes, every
        pending and future operation on this communicator raises
        :class:`~repro.errors.CommRevokedError` on every survivor.
        """
        self._check_live()
        self.ctx.engine.revoke_comm(self.ctx_id)

    def Comm_is_revoked(self) -> bool:
        """True once any rank has revoked this communicator."""
        return self.ctx.engine.is_revoked(self.ctx_id)

    def _survivors(self) -> Tuple[int, ...]:
        dead = self.ctx.engine.dead_ranks
        return tuple(w for w in self.group if w not in dead)

    def Comm_agree(self, flag: int = 1) -> Tuple[int, Tuple[int, ...]]:
        """Fault-tolerant agreement (``MPIX_Comm_agree``).

        Survivors rendezvous (the dead are excluded by construction)
        and agree on the bitwise-AND of their ``flag`` values and the
        union of their locally-known failed ranks.  Returns
        ``(agreed_flag, failed_ranks)`` — identical on every survivor.
        The wait is *patient* (see :data:`repro.sim.sched.PATIENT_STALLS`):
        survivors reach the agreement staggered, one recovery at a
        time, so transient deadlock firings en route are absorbed.
        """
        self._check_live()
        engine = self.ctx.engine
        survivors = self._survivors()
        slot = self.ctx.collective_slot(
            (self.ctx_id, "ulfm-agree", next(self._recoveries)),
            parties=len(survivors), patient=True)

        def compute(payloads):
            agreed = ~0
            dead: set = set()
            for f, d in payloads.values():
                agreed &= int(f)
                dead.update(d)
            return int(agreed), tuple(sorted(dead))

        local_dead = tuple(sorted(engine.dead_ranks & set(self.group)))
        result = slot.exchange(survivors.index(self.ctx.rank),
                               (int(flag), local_dead), compute)
        self.ctx.clock.advance(2.0)  # agreement metadata round, tiny
        return result

    def Comm_shrink(self) -> "Communicator":
        """Build a working communicator from the survivors
        (``MPIX_Comm_shrink``).

        Survivors rendezvous, verify they see the same survivor set,
        and derive a fresh context id from an engine-wide shrink
        generation — computed exactly once, inside the rendezvous, so
        every survivor names the new communicator identically.  The old
        communicator's ledger is drained: everything in it is keyed to
        the pre-failure rank set.  The new communicator keeps this
        rank's dispatcher, so hybrid routing — and, with the
        ``online_tune`` option on, re-tuning for the survivor shape —
        resumes immediately.
        """
        self._check_live()
        engine = self.ctx.engine
        survivors = self._survivors()
        ctx_id = self.ctx_id
        slot = self.ctx.collective_slot(
            (ctx_id, "ulfm-shrink", next(self._recoveries)),
            parties=len(survivors), patient=True)

        def compute(payloads):
            views = set(payloads.values())
            if len(views) != 1:
                raise MPICommError(
                    f"Comm_shrink survivor views disagree: {sorted(views)}")
            gen = engine.shrink_generation(ctx_id)
            fastpath.STATS.comm_shrinks += 1
            return gen, views.pop()

        gen, survivors = slot.exchange(survivors.index(self.ctx.rank),
                                       survivors, compute)
        self.ctx.clock.advance(2.0)  # shrink metadata round, tiny
        self._drain()
        new = Communicator(self.ctx, self._base_config, survivors,
                           f"{ctx_id}!{gen}")
        new.coll = self.coll
        return new

    # -- identity -----------------------------------------------------------

    def Get_rank(self) -> int:
        """``MPI_Comm_rank``."""
        return self.rank

    def Get_size(self) -> int:
        """``MPI_Comm_size``."""
        return self.size

    def world_rank(self, comm_rank: int) -> int:
        """Translate a communicator rank to a world rank."""
        if not 0 <= comm_rank < len(self.group):
            raise MPIRankError(
                f"rank {comm_rank} out of range for size {len(self.group)}")
        return self.group[comm_rank]

    @property
    def now(self) -> float:
        """The rank's current virtual time (us)."""
        return self.ctx.now

    # -- point-to-point: one resolved form, every spelling --------------------
    #
    # :meth:`_resolve` turns one side of a call into the endpoint's
    # arguments — buffer, count, world peer, tag and datatype (the
    # window's offset is always 0 here) — plus a derived-type layout.
    # Blocking spellings run the endpoint under :meth:`_guarded`,
    # nonblocking ones guard their request's completion, and ``_init``
    # spellings resolve at init.

    def _resolve(self, buf, peer: int, tag: int, count: Optional[int],
                 datatype, recv: bool = False, probe: bool = False) -> tuple:
        """``(buf, count, world peer, tag, datatype, layout)``,
        checked before anything is sent: :class:`MPICommError` after
        :meth:`Free`, :class:`MPIRankError` for a peer outside the
        communicator (``ANY_SOURCE`` only on a receive),
        :class:`MPICountError` for a count below zero or beyond ``buf``
        (``buf`` None is an empty buffer: only count 0 fits it).

        ``layout`` is None for a predefined type.  A derived send keeps
        its type there, packed when posted (:meth:`_packed`); a derived
        receive lands in contiguous scratch, ``layout`` being ``(type,
        user buffer, instances)`` for :meth:`_unpacked`.  A ``probe``
        resolves the peer alone.
        """
        if self._freed:
            self._check_live()  # raises
        group = self.group
        if 0 <= peer < len(group):
            peer = group[peer]
        elif not (recv and peer == ANY_SOURCE):
            raise MPIRankError(
                f"peer {peer} out of range for size {len(group)}")
        if probe:
            return None, None, peer, tag, None, None
        if buf is None:
            buf = _NOTHING
        layout = None
        if isinstance(datatype, DerivedDatatype):
            layout, datatype = datatype, datatype.base
            count = 1 if count is None else count
        elif datatype is None:
            datatype = datatype_of(buf)
        if count is not None:
            size = as_array(buf).size
            if count < 0 or (count if layout is None
                             else layout.span(count)) > size:
                raise MPICountError(
                    f"count {count} does not fit a {size}-element buffer")
            if recv and layout is not None:
                n = count * layout.elements_per_instance
                return (alloc_like(self.ctx, buf, n, datatype.storage), n,
                        peer, tag, datatype, (layout, buf, count))
        return buf, count, peer, tag, datatype, layout

    def _packed(self, s: tuple) -> tuple:
        """Derived send ``s`` packed into a contiguous wire buffer."""
        buf, count, peer, tag, datatype, layout = s
        flat = layout.pack(buf, count)
        packed = alloc_like(self.ctx, buf, flat.size, datatype.storage)
        copy_payload(as_array(packed), flat)
        self._pack_cost(flat.size * datatype.wire_itemsize)
        return packed, flat.size, peer, tag, datatype, None

    def _unpacked(self, r: tuple, status: Optional[Status]) -> Optional[Status]:
        """``status`` of derived receive ``r``, its scratch unpacked into
        the user's buffer (None: not yet)."""
        if status is None:
            return None
        scratch, n, _, _, datatype, (layout, buf, instances) = r
        if self.ctx.lent:    # a pending send of this rank lent ``buf``
            self.endpoint._copy_lent(as_array(buf))
        layout.unpack(as_array(scratch)[:n], buf, instances)
        self._pack_cost(n * datatype.wire_itemsize)
        status.count = instances
        return status

    def _pack_cost(self, nbytes: int) -> None:
        self.ctx.clock.advance(0.2 + nbytes / self.config.unpack_bpus)

    def _post(self, side: tuple, recv: bool) -> Request:
        """Resolved ``side`` posted nonblocking under :meth:`_guarded`;
        the request's completion (``wait`` and ``test`` alike) runs
        under it too, a derived receive unpacking then.  A request born
        complete (an eager send) has nothing left to guard."""
        if not recv and side[5] is not None:
            side = self._packed(side)
        req = self._guarded(self.endpoint.irecv if recv
                            else self.endpoint.isend, side[0], 0, *side[1:5])
        if req._done:
            return req
        req._complete = guarded = partial(self._guarded, req._complete)
        if recv and side[5] is not None:
            def unpacking(blocking: bool) -> Optional[Status]:
                return self._unpacked(side, guarded(blocking))
            req._complete = unpacking
        return req

    def Send(self, buf, dest: int, tag: int = 0,
             count: Optional[int] = None, datatype: Optional[Datatype] = None) -> None:
        """Blocking send to communicator rank ``dest``."""
        s = self._resolve(buf, dest, tag, count, datatype)
        if s[5] is not None:
            s = self._packed(s)
        self._guarded(self.endpoint.send, s[0], 0, *s[1:5])

    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> Status:
        """Blocking receive from communicator rank ``source``."""
        r = self._resolve(buf, source, tag, count, datatype, recv=True)
        status = self._guarded(self.endpoint.recv, r[0], 0, *r[1:5])
        return status if r[5] is None else self._unpacked(r, status)

    def Isend(self, buf, dest: int, tag: int = 0,
              count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> Request:
        """Nonblocking send."""
        return self._post(self._resolve(buf, dest, tag, count, datatype),
                          False)

    def Irecv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> Request:
        """Nonblocking receive (derived types unpack at completion)."""
        return self._post(
            self._resolve(buf, source, tag, count, datatype, True), True)

    def Sendrecv(self, sendbuf, dest: int, recvbuf, source: int,
                 sendtag: int = 0, recvtag: Optional[int] = None,
                 datatype: Optional[Datatype] = None) -> Status:
        """Combined exchange (``MPI_Sendrecv``); ``datatype`` describes
        both buffers."""
        s = self._resolve(sendbuf, dest, sendtag, None, datatype)
        r = self._resolve(recvbuf, source,
                          sendtag if recvtag is None else recvtag, None,
                          datatype, True)
        if s[5] is not None:
            s = self._packed(s)
        status = self._guarded(self.endpoint.sendrecv, s[0], 0, s[1], s[2],
                               r[0], 0, r[1], r[2], s[3], r[3], s[4])
        return status if r[5] is None else self._unpacked(r, status)

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe.  A miss lets the other ranks run before
        returning, so a ``while Iprobe() is None`` loop cannot starve
        the sender it is waiting for."""
        r = self._resolve(None, source, tag, None, None, recv=True,
                          probe=True)
        status = self._guarded(self.endpoint.probe, r[2], tag)
        if status is None:
            yield_now()
        return status

    # -- rounds: what a collective algorithm sends, below the public API ----
    #
    # One entry per spelling.  The collective's :class:`CollectiveCall`
    # checked its arguments once and its one :meth:`_guarded` converts
    # peer failures, so a round translates its peers, re-checks
    # revocation (a revoked communicator raises at the next round) and
    # calls the endpoint — looked up on every call, so whatever wraps
    # ``P2PEndpoint`` sees every round.  A window is ``(buf, offset,
    # count)``: the endpoint cuts it, and no buffer view is built per
    # message.  No status is translated: rounds discard theirs.  While
    # the communicator records a round program (``_tape``), each round
    # is also written down as a row; a replay makes the same endpoint
    # calls (:mod:`repro.mpi.coll.replay`).

    def _send(self, buf, off: int, count: int, dest: int, tag: int,
              dt: Datatype) -> None:
        """A blocking send round."""
        engine = self.ctx.engine
        if engine._revoked and engine.is_revoked(self.ctx_id):
            self._raise_revoked()
        if self._tape is not None:
            self._tape.send(buf, off, count, self.group[dest], tag, dt)
        self.endpoint.send(buf, off, count, self.group[dest], tag, dt)

    def _recv(self, buf, off: int, count: int, source: int, tag: int,
              dt: Datatype) -> None:
        """A blocking receive round."""
        engine = self.ctx.engine
        if engine._revoked and engine.is_revoked(self.ctx_id):
            self._raise_revoked()
        if self._tape is not None:
            self._tape.recv(buf, off, count, self.group[source], tag, dt)
        self.endpoint.recv(buf, off, count, self.group[source], tag, dt)

    def _isend(self, buf, off: int, count: int, dest: int, tag: int,
               dt: Datatype) -> Request:
        """A nonblocking send round; complete it with :meth:`_waitall`."""
        engine = self.ctx.engine
        if engine._revoked and engine.is_revoked(self.ctx_id):
            self._raise_revoked()
        req = self.endpoint.isend(buf, off, count, self.group[dest], tag, dt)
        if self._tape is not None:
            self._tape.isend(buf, off, count, self.group[dest], tag, dt,
                             req)
        return req

    def _irecv(self, buf, off: int, count: int, source: int, tag: int,
               dt: Datatype) -> Request:
        """A nonblocking receive round; complete it with :meth:`_waitall`."""
        engine = self.ctx.engine
        if engine._revoked and engine.is_revoked(self.ctx_id):
            self._raise_revoked()
        req = self.endpoint.irecv(buf, off, count, self.group[source], tag,
                                  dt)
        if self._tape is not None:
            self._tape.irecv(buf, off, count, self.group[source], tag, dt,
                             req)
        return req

    def _waitall(self, reqs) -> None:
        """Complete a collective's nonblocking rounds, in order."""
        if self._tape is not None:
            self._tape.wait(reqs)
        waitall(reqs)

    def _sendrecv(self, sbuf, soff: int, scount: int, dest: int, rbuf,
                  roff: int, rcount: int, source: int, sendtag: int,
                  recvtag: int, dt: Datatype) -> None:
        """An exchange round: window ``(sbuf, soff, scount)`` to
        ``dest`` while ``(rbuf, roff, rcount)`` fills from ``source``."""
        engine = self.ctx.engine
        if engine._revoked and engine.is_revoked(self.ctx_id):
            self._raise_revoked()
        group = self.group
        if self._tape is not None:
            self._tape.exchange(sbuf, soff, scount, group[dest], rbuf, roff,
                                rcount, group[source], sendtag, recvtag, dt)
        self.endpoint.sendrecv(sbuf, soff, scount, group[dest], rbuf, roff,
                               rcount, group[source], sendtag, recvtag, dt)

    # -- persistent requests (MPI_Send_init / MPI_Recv_init) --------------------

    def Send_init(self, buf, dest: int, tag: int = 0,
                  count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> "PersistentRequest":
        """Persistent send: resolved here, so a bad argument raises at
        init; each ``Start`` posts it (packing a derived type then)."""
        return PersistentRequest(self, partial(
            self._post, self._resolve(buf, dest, tag, count, datatype), False))

    def Recv_init(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                  count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> "PersistentRequest":
        """Persistent receive, resolved here like :meth:`Send_init`."""
        return PersistentRequest(self, partial(self._post, self._resolve(
            buf, source, tag, count, datatype, True), True))

    # -- collective plumbing ---------------------------------------------------

    def next_coll_tag(self) -> int:
        """Reserved tag block for the next collective call (identical
        call sequence on every rank keeps these in agreement)."""
        tag = COLL_TAG_BASE + (next(self._seq) << 6)
        if self._tape is not None:
            self._tape.tag(tag)
        return tag

    # -- collectives: one descriptor, three spellings -----------------------
    #
    # A collective's arguments are checked and resolved once, by the
    # builder that returns its :class:`CollectiveCall`; the blocking,
    # persistent (``_init``) and nonblocking (``I``) spellings are
    # :meth:`_run`, :meth:`_persistent` and :meth:`_eager` of that one
    # descriptor.  Every argument error is raised by the builder, before
    # anything is sent and identically on every rank.

    def _uniform(self, coll: str, sendbuf, recvbuf, ref,
                 count: Optional[int], datatype: Optional[Datatype],
                 op: Optional[Op] = None, root: Optional[int] = None,
                 share: int = 1) -> CollectiveCall:
        """Descriptor of a uniform-count collective.  ``ref`` is the
        buffer the datatype and the default count (its size over
        ``share``) are read from; an in-place root's ``IN_PLACE``
        stands for its other buffer, which holds a block per rank.

        Both windows must hold what the call moves (:data:`_WINDOWS`),
        or :class:`MPICountError` is raised here, before any route runs,
        with one text on every route.  In place, the receive window
        holds this rank's contribution as well.  A derived ``datatype``
        raises :class:`MPITypeError` (:func:`_refuse_derived`).
        (Inline: this runs on every collective call, and a helper would
        be calls of its own.)
        """
        self._check_live()
        if ref is IN_PLACE:
            ref, share = (recvbuf if sendbuf is IN_PLACE else sendbuf,
                          self.size)
        arr = as_array(ref)
        # resolved inline: a lookup by the array's dtype, and an op
        # checked once per datatype (helpers would be calls of their own)
        if datatype is None:
            dt = _BY_NP.get(arr.dtype) or datatype_of(ref)
        else:
            dt = datatype
            if isinstance(dt, DerivedDatatype):
                _refuse_derived(coll, dt)
        if count is None:
            count = arr.size // share
        if count < 0:
            raise MPICountError(f"negative count {count}")
        send, recv, rooted = _WINDOWS[coll]
        if send == _P:
            send = self.size
        if recv == _P:
            recv = self.size
        if rooted is not None and self.rank != root:
            if rooted:
                recv = 0
            else:
                send = 0
        if sendbuf is IN_PLACE or sendbuf is None:
            send, recv = 0, max(send, recv)
        # a window whose elements are not the datatype's prices its
        # local work by its own: such a call is planned afresh each time
        keyed = True
        for side, buf, blocks in (("send", sendbuf, send),
                                  ("receive", recvbuf, recv)):
            if blocks and buf is not None and buf is not IN_PLACE:
                arr = buf.array if isinstance(buf, Buffer) \
                    else np.asarray(buf)
                if count * blocks > arr.size:
                    raise MPICountError(
                        f"{coll}: count {count} x {blocks} does not fit "
                        f"the {arr.size}-element {side} buffer")
                keyed = keyed and arr.dtype == dt.storage
        if op is not None and (op, dt) not in _VALID_OPS:
            op.validate(dt)
            if op.predefined:
                _VALID_OPS.add((op, dt))
        if root is not None:
            self.world_rank(root)
        key = (coll, count, dt, op, root,
               ALIASED if sendbuf is recvbuf else type(sendbuf),
               type(recvbuf)) if keyed else None
        return CollectiveCall(coll, self, sendbuf, recvbuf, count, dt=dt,
                              op=op, root=root, key=key)

    def _ragged(self, coll: str, sendbuf, recvbuf, ref,
                datatype: Optional[Datatype], send=None, recv=None,
                root: Optional[int] = None) -> CollectiveCall:
        """Descriptor of a vector collective; ``send`` / ``recv`` are
        the ``(counts, displs)`` pairs of the sides that have one.

        As in :meth:`_uniform`, every window the call moves must fit its
        buffer, or :class:`MPICountError` is raised here, before any
        route runs: each non-empty block of a vector side (at the root
        alone when the collective has one), and this rank's block of
        the side without a vector.  A derived ``datatype`` raises
        :class:`MPITypeError` (:func:`_refuse_derived`).
        """
        self._check_live()
        if isinstance(datatype, DerivedDatatype):
            _refuse_derived(coll, datatype)
        if ref is IN_PLACE:
            ref = recvbuf if sendbuf is IN_PLACE else sendbuf
        call = CollectiveCall(coll, self, sendbuf, recvbuf,
                              dt=datatype or datatype_of(ref), root=root)
        mine = root is None or self.rank == root
        if send is not None:
            counts, displs = call.sendcounts, call.sdispls = \
                self._vector(*send)
            if mine:
                _fit_blocks(coll, "send", sendbuf, counts, displs)
            if recv is None:
                _fit_blocks(coll, "receive", recvbuf, (counts[self.rank],),
                            (0,))
        if recv is not None:
            counts, displs = call.recvcounts, call.rdispls = \
                self._vector(*recv)
            if mine:
                _fit_blocks(coll, "receive", recvbuf, counts, displs)
            if send is None:
                _fit_blocks(coll, "send", sendbuf, (counts[self.rank],),
                            (0,))
        if root is not None:
            self.world_rank(root)
        if all(buf is None or buf is IN_PLACE or as_array(buf).dtype ==
               call.dt.storage for buf in (sendbuf, recvbuf)):
            vectors = (call.sendcounts, call.sdispls, call.recvcounts,
                       call.rdispls)
            call.key = (coll, call.dt, root,
                        ALIASED if sendbuf is recvbuf else type(sendbuf),
                        type(recvbuf),
                        *(None if v is None else tuple(v) for v in vectors))
        return call

    def _vector(self, counts: Sequence[int],
                displs: Optional[Sequence[int]]) -> Tuple[List[int], List[int]]:
        """``(counts, displs)`` as lists (default displacements: packed),
        each holding one non-negative entry per rank."""
        counts = list(counts)
        displs = _prefix(counts) if displs is None else list(displs)
        for vec in (counts, displs):
            if len(vec) != len(self.group) or min(vec, default=0) < 0:
                raise MPICountError(
                    f"counts / displacements must be {len(self.group)} "
                    f"non-negative entries, got {vec}")
        return counts, displs

    def _run(self, call: CollectiveCall) -> None:
        """The blocking spelling: the dispatcher runs ``call`` under
        :meth:`_guarded`."""
        self._guarded(self.coll.run, call)

    def _eager(self, call: CollectiveCall) -> Request:
        """The nonblocking spelling (§1.2 advantage 4): executed
        eagerly, so the request is born complete."""
        self._run(call)
        return Request.completed(Status(), kind=f"i{call.coll}")

    def _persistent(self, call: CollectiveCall) -> "PersistentCollRequest":
        """The persistent spelling (MPI 4.0 ``MPI_Allreduce_init``
        style): arguments resolved and the call key planned once, so
        each ``Start`` replays a cache hit."""
        self.coll.warm(call)
        # the run completes synchronously, so every Start returns the
        # same already-done request marker
        done = Request.completed(Status(), kind=f"{call.coll}-init")

        def start() -> Request:
            self._run(call)
            return done

        return PersistentCollRequest(self, start, call.coll)

    # builders of the collectives that have more than one spelling

    def _barrier(self) -> CollectiveCall:
        self._check_live()
        return CollectiveCall("barrier", self, key=("barrier",))

    def _bcast(self, buf, root: int = 0, count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> CollectiveCall:
        return self._uniform("bcast", None, buf, buf, count, datatype,
                             root=root)

    def _reduce(self, sendbuf, recvbuf, op: Op = SUM, root: int = 0,
                count: Optional[int] = None,
                datatype: Optional[Datatype] = None) -> CollectiveCall:
        return self._uniform("reduce", sendbuf, recvbuf,
                             _contribution(sendbuf, recvbuf), count, datatype,
                             op, root)

    def _allreduce(self, sendbuf, recvbuf, op: Op = SUM,
                   count: Optional[int] = None,
                   datatype: Optional[Datatype] = None) -> CollectiveCall:
        return self._uniform("allreduce", sendbuf, recvbuf,
                             _contribution(sendbuf, recvbuf), count, datatype,
                             op)

    def _allgather(self, sendbuf, recvbuf, count: Optional[int] = None,
                   datatype: Optional[Datatype] = None) -> CollectiveCall:
        ref, share = (recvbuf, self.size) if sendbuf is IN_PLACE \
            else (sendbuf, 1)
        return self._uniform("allgather", sendbuf, recvbuf, ref, count,
                             datatype, share=share)

    def _alltoall(self, sendbuf, recvbuf, count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> CollectiveCall:
        return self._uniform("alltoall", sendbuf, recvbuf, sendbuf, count,
                             datatype, share=self.size)

    def _reduce_scatter_block(self, sendbuf, recvbuf, op: Op = SUM,
                              count: Optional[int] = None,
                              datatype: Optional[Datatype] = None) -> CollectiveCall:
        return self._uniform("reduce_scatter_block", sendbuf, recvbuf,
                             recvbuf, count, datatype, op,
                             share=self.size if sendbuf is IN_PLACE else 1)

    # blocking spellings

    def Barrier(self) -> None:
        """``MPI_Barrier``."""
        self._run(self._barrier())

    def Bcast(self, buf, root: int = 0, count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> None:
        """``MPI_Bcast``: root's buffer to everyone."""
        self._run(self._bcast(buf, root, count, datatype))

    def Reduce(self, sendbuf, recvbuf, op: Op = SUM, root: int = 0,
               count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> None:
        """``MPI_Reduce`` to ``root``."""
        self._run(self._reduce(sendbuf, recvbuf, op, root, count, datatype))

    def Allreduce(self, sendbuf, recvbuf, op: Op = SUM,
                  count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> None:
        """``MPI_Allreduce``."""
        self._run(self._allreduce(sendbuf, recvbuf, op, count, datatype))

    def Allgather(self, sendbuf, recvbuf, count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> None:
        """``MPI_Allgather``; ``count`` is the per-rank contribution."""
        self._run(self._allgather(sendbuf, recvbuf, count, datatype))

    def Allgatherv(self, sendbuf, recvbuf, counts: Sequence[int],
                   displs: Optional[Sequence[int]] = None,
                   datatype: Optional[Datatype] = None) -> None:
        """``MPI_Allgatherv`` with per-rank counts."""
        self._run(self._ragged("allgatherv", sendbuf, recvbuf, recvbuf,
                               datatype, recv=(counts, displs)))

    def Alltoall(self, sendbuf, recvbuf, count: Optional[int] = None,
                 datatype: Optional[Datatype] = None) -> None:
        """``MPI_Alltoall``; ``count`` is the per-destination block."""
        self._run(self._alltoall(sendbuf, recvbuf, count, datatype))

    def Alltoallv(self, sendbuf, sendcounts: Sequence[int],
                  recvbuf, recvcounts: Sequence[int],
                  sdispls: Optional[Sequence[int]] = None,
                  rdispls: Optional[Sequence[int]] = None,
                  datatype: Optional[Datatype] = None) -> None:
        """``MPI_Alltoallv`` (Listing 1 of the paper targets this)."""
        self._run(self._ragged("alltoallv", sendbuf, recvbuf, sendbuf,
                               datatype, send=(sendcounts, sdispls),
                               recv=(recvcounts, rdispls)))

    def Gather(self, sendbuf, recvbuf, root: int = 0,
               count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> None:
        """``MPI_Gather`` to ``root`` (recvbuf significant at root)."""
        self._run(self._uniform("gather", sendbuf, recvbuf, sendbuf, count,
                                datatype, root=root))

    def Gatherv(self, sendbuf, recvbuf, counts: Sequence[int],
                displs: Optional[Sequence[int]] = None, root: int = 0,
                datatype: Optional[Datatype] = None) -> None:
        """``MPI_Gatherv``."""
        self._run(self._ragged("gatherv", sendbuf, recvbuf, sendbuf,
                               datatype, recv=(counts, displs), root=root))

    def Scatter(self, sendbuf, recvbuf, root: int = 0,
                count: Optional[int] = None,
                datatype: Optional[Datatype] = None) -> None:
        """``MPI_Scatter`` from ``root``."""
        self._run(self._uniform("scatter", sendbuf, recvbuf, recvbuf, count,
                                datatype, root=root))

    def Scatterv(self, sendbuf, counts: Sequence[int], recvbuf,
                 displs: Optional[Sequence[int]] = None, root: int = 0,
                 datatype: Optional[Datatype] = None) -> None:
        """``MPI_Scatterv``."""
        self._run(self._ragged("scatterv", sendbuf, recvbuf, recvbuf,
                               datatype, send=(counts, displs), root=root))

    def Reduce_scatter_block(self, sendbuf, recvbuf, op: Op = SUM,
                             count: Optional[int] = None,
                             datatype: Optional[Datatype] = None) -> None:
        """``MPI_Reduce_scatter_block``; ``count`` is per-rank output."""
        self._run(self._reduce_scatter_block(sendbuf, recvbuf, op, count,
                                             datatype))

    def Scan(self, sendbuf, recvbuf, op: Op = SUM,
             count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> None:
        """``MPI_Scan`` (inclusive prefix reduction)."""
        self._run(self._uniform("scan", sendbuf, recvbuf,
                                _contribution(sendbuf, recvbuf), count,
                                datatype, op))

    def Exscan(self, sendbuf, recvbuf, op: Op = SUM,
               count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> None:
        """``MPI_Exscan`` (exclusive prefix reduction; rank 0's recvbuf
        is untouched)."""
        self._run(self._uniform("exscan", sendbuf, recvbuf,
                                _contribution(sendbuf, recvbuf), count,
                                datatype, op))

    # nonblocking spellings

    def Ibcast(self, buf, root: int = 0, **kw) -> Request:
        """Nonblocking broadcast."""
        return self._eager(self._bcast(buf, root, **kw))

    def Iallreduce(self, sendbuf, recvbuf, op: Op = SUM, **kw) -> Request:
        """Nonblocking allreduce."""
        return self._eager(self._allreduce(sendbuf, recvbuf, op, **kw))

    def Ialltoall(self, sendbuf, recvbuf, **kw) -> Request:
        """Nonblocking alltoall."""
        return self._eager(self._alltoall(sendbuf, recvbuf, **kw))

    def Ibarrier(self) -> Request:
        """Nonblocking barrier."""
        return self._eager(self._barrier())

    # persistent spellings

    def Allreduce_init(self, sendbuf, recvbuf, op: Op = SUM,
                       count: Optional[int] = None,
                       datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent allreduce."""
        return self._persistent(
            self._allreduce(sendbuf, recvbuf, op, count, datatype))

    def Bcast_init(self, buf, root: int = 0, count: Optional[int] = None,
                   datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent broadcast."""
        return self._persistent(self._bcast(buf, root, count, datatype))

    def Reduce_init(self, sendbuf, recvbuf, op: Op = SUM, root: int = 0,
                    count: Optional[int] = None,
                    datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent reduce."""
        return self._persistent(
            self._reduce(sendbuf, recvbuf, op, root, count, datatype))

    def Allgather_init(self, sendbuf, recvbuf, count: Optional[int] = None,
                       datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent allgather (``count`` per-rank contribution)."""
        return self._persistent(
            self._allgather(sendbuf, recvbuf, count, datatype))

    def Alltoall_init(self, sendbuf, recvbuf, count: Optional[int] = None,
                      datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent alltoall (``count`` per-destination block)."""
        return self._persistent(
            self._alltoall(sendbuf, recvbuf, count, datatype))

    def Reduce_scatter_block_init(self, sendbuf, recvbuf, op: Op = SUM,
                                  count: Optional[int] = None,
                                  datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent reduce_scatter_block (``count`` per-rank output)."""
        return self._persistent(
            self._reduce_scatter_block(sendbuf, recvbuf, op, count, datatype))

    def Barrier_init(self) -> "PersistentCollRequest":
        """Persistent barrier."""
        return self._persistent(self._barrier())


class PersistentRequest:
    """A reusable request (``MPI_Send_init``/``MPI_Recv_init``).

    ``Start`` activates one iteration; ``wait`` completes it; the
    request can then be started again.  ``startall``/``waitall`` work
    via the plain functions in :mod:`repro.mpi.request`.
    """

    def __init__(self, comm: Communicator, factory) -> None:
        self._comm = comm
        self._factory = factory
        self._active: Optional[Request] = None

    def Start(self) -> "PersistentRequest":
        """Activate the operation (``MPI_Start``)."""
        if self._active is not None and not self._active.done:
            raise MPICommError("Start on an already-active persistent request")
        self._comm._check_live()
        self._active = self._factory()
        return self

    def wait(self) -> Status:
        """Complete the active iteration."""
        if self._active is None:
            raise MPICommError("wait on an inactive persistent request")
        return self._active.wait()

    def test(self):
        """Poll the active iteration."""
        if self._active is None:
            raise MPICommError("test on an inactive persistent request")
        return self._active.test()

    @property
    def active(self) -> bool:
        """True while an iteration is started and incomplete."""
        return self._active is not None and not self._active.done


class PersistentCollRequest(PersistentRequest):
    """A persistent collective (``MPI_Allreduce_init`` family).

    The descriptor is built — arguments checked, the call key
    planned — once at init; every ``Start`` runs it again.
    """

    def __init__(self, comm: Communicator, factory, coll: str) -> None:
        super().__init__(comm, factory)
        #: which collective this request replays (e.g. ``"allreduce"``)
        self.coll = coll


def spans_world(ctx_id: str) -> bool:
    """Whether ``ctx_id`` names COMM_WORLD (``w``) or a duplicate of it
    (``Dup`` appends ``.d<seq>``; ``Split`` appends ``.s<seq>.<color>``
    and ``Comm_shrink`` ``!<generation>``); an empty id is a trace's
    that names no communicator."""
    head, *tail = ctx_id.split(".")
    return head in ("w", "") and "!" not in ctx_id \
        and all(part[:1] == "d" for part in tail)


def _split_groups(payloads) -> Dict[int, Tuple[int, ...]]:
    """``Split``'s rendezvous, computed once for every member: color ->
    its world ranks ordered by ``(key, world rank)``, one shared tuple."""
    members: Dict[int, list] = {}
    for color, key, world in payloads.values():
        if color >= 0:
            members.setdefault(color, []).append((key, world))
    return {color: tuple(w for _, w in sorted(kw))
            for color, kw in members.items()}


#: stands for the communicator size in :data:`_WINDOWS`
_P = -1

#: per uniform collective, the elements each window moves, in blocks of
#: ``count``: ``(send, receive, root-only side)`` — the side (0: send,
#: 1: receive) significant at the root alone, or None
_WINDOWS = {
    "bcast": (0, 1, None),
    "reduce": (1, 1, 1),
    "allreduce": (1, 1, None),
    "allgather": (1, _P, None),
    "alltoall": (_P, _P, None),
    "reduce_scatter_block": (_P, 1, None),
    "gather": (1, _P, 1),
    "scatter": (_P, 1, 0),
    "scan": (1, 1, None),
    "exscan": (1, 1, None),
}


def _contribution(sendbuf, recvbuf):
    """The buffer holding this rank's input: ``recvbuf`` for the
    in-place spellings."""
    return recvbuf if sendbuf is IN_PLACE or sendbuf is None else sendbuf


def _refuse_derived(coll: str, datatype: DerivedDatatype) -> None:
    """:class:`MPITypeError` for a derived type in a collective: only
    point-to-point packs a derived layout (docs/api.md), so every member
    passing one is refused alike, before anything is sent."""
    raise MPITypeError(
        f"{coll}: derived datatype {datatype.name} is supported on "
        f"point-to-point only; pass its base type {datatype.base.name}")


def _fit_blocks(coll: str, side: str, buf, counts: Sequence[int],
                displs: Sequence[int]) -> None:
    """:class:`MPICountError` unless every non-empty block ``(displs[r],
    counts[r])`` fits ``buf`` (None and ``IN_PLACE`` hold no window)."""
    if buf is None or buf is IN_PLACE:
        return
    have = (buf.array if isinstance(buf, Buffer) else np.asarray(buf)).size
    for count, displ in zip(counts, displs):
        if count and displ + count > have:
            raise MPICountError(
                f"{coll}: count {count} at displacement {displ} does not "
                f"fit the {have}-element {side} buffer")


def _prefix(counts: Sequence[int]) -> List[int]:
    """Exclusive prefix sums (default displacements)."""
    out, acc = [], 0
    for c in counts:
        out.append(acc)
        acc += int(c)
    return out
