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
from typing import Dict, List, Optional, Sequence, Tuple


from repro import fastpath
from repro.errors import (CommRevokedError, DeadlockError, MPICommError,
                          MPICountError, MPIRankError, RankKilledError)
from repro.hw.memory import as_array
from repro.mpi.compute import alloc_like
from repro.mpi.config import MPIConfig, mvapich_gpu
from repro.mpi.datatypes import Datatype, datatype_of
from repro.mpi.derived import DerivedDatatype
from repro.mpi.ops import Op, SUM
from repro.mpi.p2p import P2PEndpoint
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.sim.engine import RankContext
from repro.sim.mailbox import ANY_SOURCE, ANY_TAG
from repro.sim.sched import yield_now

#: sentinel for in-place collective input (``MPI_IN_PLACE``).
IN_PLACE = object()

#: collective traffic lives above this tag (user tags stay below).
COLL_TAG_BASE = 1 << 20

#: what a blocking operation raises when a peer died under it
_PEER_FAILURES = (DeadlockError, RankKilledError)


class Communicator:
    """One rank's view of a communicator.

    Construct the world communicator with :meth:`world`; derive others
    with :meth:`Dup` / :meth:`Split`.
    """

    def __init__(self, ctx: RankContext, config: MPIConfig,
                 group: Sequence[int], ctx_id: str) -> None:
        if ctx.rank not in group:
            raise MPICommError(f"rank {ctx.rank} not in group {group}")
        self.ctx = ctx
        #: the caller's config, before any vendor downgrade — children
        #: (Dup/Split) derive from this, so a single-vendor island
        #: split out of a mixed communicator regains GPU-direct paths.
        self._base_config = config
        if config.gpu_direct and \
                len({ctx.device_of(w).vendor for w in group}) > 1:
            # GPU-direct transports (CUDA IPC, GPUDirect/ROCm RDMA) are
            # vendor-specific: a communicator spanning vendor islands
            # can only move device buffers through host staging — the
            # per-hop cost the ``hetero`` bridge route amortizes down
            # to one hop per remote island.
            config = config.with_(gpu_direct=False)
        self.config = config
        self.group: Tuple[int, ...] = tuple(group)
        self.ctx_id = ctx_id
        ctx.engine.register_ctx_group(ctx_id, self.group)
        self.endpoint = P2PEndpoint(ctx, config, ctx_id)
        self._from_world = {w: i for i, w in enumerate(self.group)}
        self._rank = self._from_world[ctx.rank]
        self._seq = itertools.count(1)
        self._freed = False
        #: everything the routing layers cache about this communicator
        #: (factorizations, negotiated descriptor, and the levels — the
        #: sub-communicators — of each multi-level instance), by name.
        #: A value with a ``Free`` method holds sub-communicators built
        #: for — and owned by — this one: :meth:`Free` and
        #: :meth:`Comm_shrink` call it when they drain the dict.
        self.routing_cache: Dict[str, object] = {}
        from repro.mpi.coll import MPICollDispatcher  # local: avoid cycle
        self.coll = MPICollDispatcher()

    # -- construction -------------------------------------------------------

    @classmethod
    def world(cls, ctx: RankContext, config: Optional[MPIConfig] = None) -> "Communicator":
        """The COMM_WORLD of this run."""
        return cls(ctx, config or mvapich_gpu(), tuple(range(ctx.size)), "w")

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
        entries = slot.exchange(self._rank, (color, key, self.ctx.rank),
                                lambda payloads: dict(payloads))
        self.ctx.clock.advance(2.0)  # metadata allgather, tiny
        if color < 0:
            return None
        members = sorted(((k, w) for c, k, w in entries.values() if c == color))
        group = tuple(w for _, w in members)
        return Communicator(self.ctx, self._base_config, group,
                            f"{self.ctx_id}.s{seq}.{color}")

    def Free(self) -> None:
        """Release the communicator (``MPI_Comm_free``).

        Also drains :attr:`routing_cache` — freeing the node-leader,
        hierarchy and bridge sub-communicators cached there — and tells
        the dispatcher to drop compiled plans / CCL state for this
        communicator.
        """
        if self._freed:
            return
        self._freed = True
        self._release_routing_caches()

    def _release_routing_caches(self) -> None:
        """Tear down every per-communicator routing cache.

        Shared by :meth:`Free` and :meth:`Comm_shrink`: a shrunk
        communicator's parent keeps its identity (user code may still
        translate ranks through it) but must drop hierarchical
        sub-communicators, bridge/hetero descriptors, compiled plans and
        online-tuning overlays — all keyed to a rank set that no longer
        exists.
        """
        for entry in self.routing_cache.values():
            free = getattr(entry, "Free", None)
            if free is not None:
                free()
        self.routing_cache.clear()
        release = getattr(self.coll, "release", None)
        if release is not None:
            release(self)

    def _check_live(self) -> None:
        if self._freed:
            raise MPICommError("communicator used after Free")

    # -- fault tolerance (ULFM-style) ------------------------------------------

    def _elastic(self, run):
        """Run one blocking operation under the elastic-failure contract.

        An operation on a revoked communicator — or one whose peers
        include a dead rank (only a ``FaultPlan.kill`` rule makes one),
        observed as the deadlock the death causes — raises
        :class:`~repro.errors.CommRevokedError`, after revoking the
        communicator engine-wide so every survivor agrees.  The dying
        rank itself keeps its :class:`RankKilledError`.  A program that
        does not catch the revoke still fails its run with
        :class:`~repro.errors.RankFailedError`; with no rank dead and
        nothing revoked this is a plain call that takes no lock.
        """
        self._check_revoked()
        try:
            return run()
        except _PEER_FAILURES as exc:
            self._failed(exc)

    def _check_revoked(self) -> None:
        engine = self.ctx.engine
        if engine.is_revoked(self.ctx_id):
            raise CommRevokedError(
                self.ctx_id, engine.dead_ranks & set(self.group))

    def _failed(self, exc: BaseException) -> None:
        """In a handler of :data:`_PEER_FAILURES` (``Send`` / ``Recv``
        / ``Sendrecv`` spell :meth:`_elastic` out, so a message costs no
        closure): raise the contract's conversion of ``exc``, or
        ``exc`` again."""
        if isinstance(exc, RankKilledError) and exc.rank == self.ctx.rank:
            raise  # our own death: propagate to the engine
        engine = self.ctx.engine
        dead = engine.dead_ranks & set(self.group)
        if dead or engine.is_revoked(self.ctx_id):
            engine.revoke_comm(self.ctx_id)
            raise CommRevokedError(self.ctx_id, dead) from exc
        raise

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
        slot = self.ctx.collective_slot((self.ctx_id, "ulfm-agree"),
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
        communicator's routing caches (hierarchy, bridge descriptors,
        compiled plans, online-tuning overlays) are torn down: they are
        keyed to the pre-failure rank set.  The new communicator keeps
        this rank's dispatcher, so hybrid routing — and, with the
        ``online_tune`` option on, re-tuning for the survivor shape —
        resumes immediately.
        """
        self._check_live()
        engine = self.ctx.engine
        survivors = self._survivors()
        ctx_id = self.ctx_id
        slot = self.ctx.collective_slot((ctx_id, "ulfm-shrink"),
                                        parties=len(survivors), patient=True)

        def compute(payloads):
            views = set(payloads.values())
            if len(views) != 1:
                raise MPICommError(
                    f"Comm_shrink survivor views disagree: {sorted(views)}")
            gen = engine.shrink_generation(ctx_id)
            fastpath.STATS.note_shrink()
            return gen

        gen = slot.exchange(survivors.index(self.ctx.rank), survivors,
                            compute)
        self.ctx.clock.advance(2.0)  # shrink metadata round, tiny
        self._release_routing_caches()
        new = Communicator(self.ctx, self._base_config, survivors,
                           f"{ctx_id}!{gen}")
        new.coll = self.coll
        return new

    # -- identity -----------------------------------------------------------

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return len(self.group)

    def Get_rank(self) -> int:
        """``MPI_Comm_rank``."""
        return self._rank

    def Get_size(self) -> int:
        """``MPI_Comm_size``."""
        return len(self.group)

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

    # -- point-to-point -------------------------------------------------------

    def _pack_cost(self, nbytes: int) -> None:
        self.ctx.clock.advance(0.2 + nbytes / self.config.unpack_bpus)

    def _pack_derived(self, buf, count: Optional[int], dtype):
        """(packed buffer, element count) for a derived send."""
        instances = count if count is not None else 1
        flat = dtype.pack(buf, instances)
        packed = alloc_like(self.ctx, buf, flat.size, dtype.base.storage)
        as_array(packed)[...] = flat
        self._pack_cost(flat.size * dtype.base.wire_itemsize)
        return packed, flat.size

    def Send(self, buf, dest: int, tag: int = 0,
             count: Optional[int] = None, datatype: Optional[Datatype] = None) -> None:
        """Blocking send to communicator rank ``dest``.

        Derived datatypes are packed into a contiguous wire buffer
        (charged in virtual time) before transmission.
        """
        self._check_live()
        if isinstance(datatype, DerivedDatatype):
            buf, count = self._pack_derived(buf, count, datatype)
            datatype = datatype.base
        if self.ctx.engine._revoked:
            self._check_revoked()
        try:
            self.endpoint.send(buf, self.world_rank(dest), tag, count,
                               datatype)
        except _PEER_FAILURES as exc:
            self._failed(exc)

    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> Status:
        """Blocking receive from communicator rank ``source``."""
        self._check_live()
        src_world = source if source == ANY_SOURCE else self.world_rank(source)
        derived = isinstance(datatype, DerivedDatatype)
        if derived:
            instances = count if count is not None else 1
            count = instances * datatype.elements_per_instance
            user_buf, user_type, datatype = buf, datatype, datatype.base
            buf = alloc_like(self.ctx, buf, count, datatype.storage)
        if self.ctx.engine._revoked:
            self._check_revoked()
        try:
            status = self.endpoint.recv(buf, src_world, tag, count, datatype)
        except _PEER_FAILURES as exc:
            self._failed(exc)
        if derived:
            user_type.unpack(as_array(buf)[:count], user_buf, instances)
            self._pack_cost(count * datatype.wire_itemsize)
            status.count = instances
        status.source = self._from_world[status.source]
        return status

    def Isend(self, buf, dest: int, tag: int = 0,
              count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> Request:
        """Nonblocking send."""
        self._check_live()
        if isinstance(datatype, DerivedDatatype):
            buf, count = self._pack_derived(buf, count, datatype)
            datatype = datatype.base
        return self.endpoint.isend(buf, self.world_rank(dest), tag, count, datatype)

    def Irecv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> Request:
        """Nonblocking receive (derived types unpack at completion)."""
        self._check_live()
        src_world = source if source == ANY_SOURCE else self.world_rank(source)
        if not isinstance(datatype, DerivedDatatype):
            return self.endpoint.irecv(buf, src_world, tag, count, datatype)
        instances = count if count is not None else 1
        n = instances * datatype.elements_per_instance
        scratch = alloc_like(self.ctx, buf, n, datatype.base.storage)
        inner = self.endpoint.irecv(scratch, src_world, tag, n, datatype.base)

        def complete(blocking: bool) -> Optional[Status]:
            if blocking:
                status = inner.wait()
            else:
                done, status = inner.test()
                if not done:
                    return None
            datatype.unpack(as_array(scratch)[:n], buf, instances)
            self._pack_cost(n * datatype.base.wire_itemsize)
            status.count = instances
            return status

        return Request(complete, kind="recv-derived")

    def Sendrecv(self, sendbuf, dest: int, recvbuf, source: int,
                 sendtag: int = 0, recvtag: Optional[int] = None,
                 datatype: Optional[Datatype] = None) -> Status:
        """Combined exchange (``MPI_Sendrecv``)."""
        self._check_live()
        if self.ctx.engine._revoked:
            self._check_revoked()
        group = self.group
        if not (0 <= dest < len(group) and 0 <= source < len(group)):
            # ``world_rank``'s test, repeated: two calls fewer a message,
            # which the call-count guard (tests/test_mpi_p2p.py) needs
            self.world_rank(dest)
            self.world_rank(source)
        try:
            status = self.endpoint.sendrecv(
                sendbuf, group[dest], recvbuf, group[source], sendtag,
                recvtag if recvtag is not None else sendtag,
                datatype=datatype)
        except _PEER_FAILURES as exc:
            self._failed(exc)
        status.source = self._from_world[status.source]
        return status

    def Iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Nonblocking probe.  A miss lets the other ranks run before
        returning, so a ``while Iprobe() is None`` loop cannot starve
        the sender it is waiting for."""
        self._check_live()
        src_world = source if source == ANY_SOURCE else self.world_rank(source)
        status = self.endpoint.probe(src_world, tag)
        if status is None:
            yield_now()
        return status

    # -- persistent requests (MPI_Send_init / MPI_Recv_init) --------------------

    def Send_init(self, buf, dest: int, tag: int = 0,
                  count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> "PersistentRequest":
        """Create a persistent send request; activate with ``Start``.

        Amortizes argument validation across iterations of a fixed
        communication pattern (halo exchanges, solver loops).
        """
        self._check_live()
        self.world_rank(dest)
        return PersistentRequest(
            lambda: self.Isend(buf, dest, tag, count, datatype))

    def Recv_init(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                  count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> "PersistentRequest":
        """Create a persistent receive request."""
        self._check_live()
        return PersistentRequest(
            lambda: self.Irecv(buf, source, tag, count, datatype))

    # -- collective plumbing ---------------------------------------------------

    def next_coll_tag(self) -> int:
        """Reserved tag block for the next collective call (identical
        call sequence on every rank keeps these in agreement)."""
        return COLL_TAG_BASE + (next(self._seq) << 6)

    def coll_key(self, kind: str, tag: int) -> Tuple:
        """Engine rendezvous key for a CCL-style fused collective."""
        return (self.ctx_id, kind, tag)

    def _resolve(self, sendbuf, recvbuf, count: Optional[int],
                 datatype: Optional[Datatype]):
        """Common (sendbuf, recvbuf, count, datatype) normalization."""
        ref = recvbuf if sendbuf is IN_PLACE or sendbuf is None else sendbuf
        dt = datatype or datatype_of(ref)
        if count is None:
            count = as_array(ref).size
        if count < 0:
            raise MPICountError(f"negative count {count}")
        return count, dt

    # -- collectives ---------------------------------------------------------

    def Barrier(self) -> None:
        """``MPI_Barrier``."""
        self._check_live()
        self._elastic(lambda: self.coll.barrier(self))

    def Bcast(self, buf, root: int = 0, count: Optional[int] = None,
              datatype: Optional[Datatype] = None) -> None:
        """``MPI_Bcast``: root's buffer to everyone."""
        self._check_live()
        count, dt = self._resolve(buf, buf, count, datatype)
        self.world_rank(root)
        self._elastic(lambda: self.coll.bcast(self, buf, count, dt, root))

    def Reduce(self, sendbuf, recvbuf, op: Op = SUM, root: int = 0,
               count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> None:
        """``MPI_Reduce`` to ``root``."""
        self._check_live()
        count, dt = self._resolve(sendbuf, recvbuf, count, datatype)
        op.validate(dt)
        self.world_rank(root)
        self._elastic(
            lambda: self.coll.reduce(self, sendbuf, recvbuf, count, dt, op,
                                     root))

    def Allreduce(self, sendbuf, recvbuf, op: Op = SUM,
                  count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> None:
        """``MPI_Allreduce``."""
        self._check_live()
        count, dt = self._resolve(sendbuf, recvbuf, count, datatype)
        op.validate(dt)
        self._elastic(
            lambda: self.coll.allreduce(self, sendbuf, recvbuf, count, dt, op))

    def Allgather(self, sendbuf, recvbuf, count: Optional[int] = None,
                  datatype: Optional[Datatype] = None) -> None:
        """``MPI_Allgather``; ``count`` is the per-rank contribution."""
        self._check_live()
        if count is None:
            ref = recvbuf if sendbuf is IN_PLACE else sendbuf
            count = as_array(ref).size
            if sendbuf is IN_PLACE:
                count //= self.size
        dt = datatype or datatype_of(recvbuf)
        self._elastic(
            lambda: self.coll.allgather(self, sendbuf, recvbuf, count, dt))

    def Allgatherv(self, sendbuf, recvbuf, counts: Sequence[int],
                   displs: Optional[Sequence[int]] = None,
                   datatype: Optional[Datatype] = None) -> None:
        """``MPI_Allgatherv`` with per-rank counts."""
        self._check_live()
        dt = datatype or datatype_of(recvbuf)
        displs = list(displs) if displs is not None else _prefix(counts)
        self._elastic(
            lambda: self.coll.allgatherv(self, sendbuf, recvbuf, list(counts),
                                         displs, dt))

    def Alltoall(self, sendbuf, recvbuf, count: Optional[int] = None,
                 datatype: Optional[Datatype] = None) -> None:
        """``MPI_Alltoall``; ``count`` is the per-destination block."""
        self._check_live()
        if count is None:
            count = as_array(sendbuf).size // self.size
        dt = datatype or datatype_of(sendbuf)
        self._elastic(
            lambda: self.coll.alltoall(self, sendbuf, recvbuf, count, dt))

    def Alltoallv(self, sendbuf, sendcounts: Sequence[int],
                  recvbuf, recvcounts: Sequence[int],
                  sdispls: Optional[Sequence[int]] = None,
                  rdispls: Optional[Sequence[int]] = None,
                  datatype: Optional[Datatype] = None) -> None:
        """``MPI_Alltoallv`` (Listing 1 of the paper targets this)."""
        self._check_live()
        dt = datatype or datatype_of(sendbuf)
        sdispls = list(sdispls) if sdispls is not None else _prefix(sendcounts)
        rdispls = list(rdispls) if rdispls is not None else _prefix(recvcounts)
        self._elastic(
            lambda: self.coll.alltoallv(self, sendbuf, list(sendcounts),
                                        sdispls, recvbuf, list(recvcounts),
                                        rdispls, dt))

    def Gather(self, sendbuf, recvbuf, root: int = 0,
               count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> None:
        """``MPI_Gather`` to ``root`` (recvbuf significant at root)."""
        self._check_live()
        if count is None:
            count = as_array(sendbuf).size
        dt = datatype or datatype_of(sendbuf)
        self.world_rank(root)
        self._elastic(
            lambda: self.coll.gather(self, sendbuf, recvbuf, count, dt, root))

    def Gatherv(self, sendbuf, recvbuf, counts: Sequence[int],
                displs: Optional[Sequence[int]] = None, root: int = 0,
                datatype: Optional[Datatype] = None) -> None:
        """``MPI_Gatherv``."""
        self._check_live()
        dt = datatype or datatype_of(sendbuf)
        displs = list(displs) if displs is not None else _prefix(counts)
        self.world_rank(root)
        self._elastic(
            lambda: self.coll.gatherv(self, sendbuf, recvbuf, list(counts),
                                      displs, dt, root))

    def Scatter(self, sendbuf, recvbuf, root: int = 0,
                count: Optional[int] = None,
                datatype: Optional[Datatype] = None) -> None:
        """``MPI_Scatter`` from ``root``."""
        self._check_live()
        if count is None:
            count = as_array(recvbuf).size
        dt = datatype or datatype_of(recvbuf)
        self.world_rank(root)
        self._elastic(
            lambda: self.coll.scatter(self, sendbuf, recvbuf, count, dt, root))

    def Scatterv(self, sendbuf, counts: Sequence[int], recvbuf,
                 displs: Optional[Sequence[int]] = None, root: int = 0,
                 datatype: Optional[Datatype] = None) -> None:
        """``MPI_Scatterv``."""
        self._check_live()
        dt = datatype or datatype_of(recvbuf)
        displs = list(displs) if displs is not None else _prefix(counts)
        self.world_rank(root)
        self._elastic(
            lambda: self.coll.scatterv(self, sendbuf, list(counts), displs,
                                       recvbuf, dt, root))

    def Reduce_scatter_block(self, sendbuf, recvbuf, op: Op = SUM,
                             count: Optional[int] = None,
                             datatype: Optional[Datatype] = None) -> None:
        """``MPI_Reduce_scatter_block``; ``count`` is per-rank output."""
        self._check_live()
        if count is None:
            count = as_array(recvbuf).size
        dt = datatype or datatype_of(recvbuf)
        op.validate(dt)
        self._elastic(
            lambda: self.coll.reduce_scatter_block(self, sendbuf, recvbuf,
                                                   count, dt, op))

    def Scan(self, sendbuf, recvbuf, op: Op = SUM,
             count: Optional[int] = None,
             datatype: Optional[Datatype] = None) -> None:
        """``MPI_Scan`` (inclusive prefix reduction)."""
        self._check_live()
        count, dt = self._resolve(sendbuf, recvbuf, count, datatype)
        op.validate(dt)
        self._elastic(
            lambda: self.coll.scan(self, sendbuf, recvbuf, count, dt, op))

    def Exscan(self, sendbuf, recvbuf, op: Op = SUM,
               count: Optional[int] = None,
               datatype: Optional[Datatype] = None) -> None:
        """``MPI_Exscan`` (exclusive prefix reduction; rank 0's recvbuf
        is untouched)."""
        self._check_live()
        count, dt = self._resolve(sendbuf, recvbuf, count, datatype)
        op.validate(dt)
        self._elastic(
            lambda: self.coll.exscan(self, sendbuf, recvbuf, count, dt, op))

    # -- nonblocking collectives (§1.2 advantage 4) ----------------------------

    def Ibcast(self, buf, root: int = 0, **kw) -> Request:
        """Nonblocking broadcast (executed eagerly; see DESIGN.md)."""
        self.Bcast(buf, root, **kw)
        return Request.completed(Status(), kind="ibcast")

    def Iallreduce(self, sendbuf, recvbuf, op: Op = SUM, **kw) -> Request:
        """Nonblocking allreduce (executed eagerly)."""
        self.Allreduce(sendbuf, recvbuf, op, **kw)
        return Request.completed(Status(), kind="iallreduce")

    def Ialltoall(self, sendbuf, recvbuf, **kw) -> Request:
        """Nonblocking alltoall (executed eagerly)."""
        self.Alltoall(sendbuf, recvbuf, **kw)
        return Request.completed(Status(), kind="ialltoall")

    def Ibarrier(self) -> Request:
        """Nonblocking barrier (executed eagerly)."""
        self.Barrier()
        return Request.completed(Status(), kind="ibarrier")

    # -- persistent collectives (MPI 4.0 ``MPI_Allreduce_init`` style) -----------

    def _warm_plan(self, coll: str, nbytes: int, dt, op, *buffers) -> None:
        """Compile the routing plan at init time (when the dispatcher
        supports planning), so ``Start`` replays a cache hit."""
        decide = getattr(self.coll, "decide", None)
        if decide is not None:
            decide(self, coll, nbytes, dt, op, *buffers)

    def _persistent_coll(self, coll: str, run) -> "PersistentCollRequest":
        # the blocking run() completes synchronously, so every Start
        # returns the same already-done request marker
        done = Request.completed(Status(), kind=f"{coll}-init")

        def factory() -> Request:
            self._check_live()
            run()
            return done

        return PersistentCollRequest(factory, coll)

    def Allreduce_init(self, sendbuf, recvbuf, op: Op = SUM,
                       count: Optional[int] = None,
                       datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent allreduce: arguments resolved and the routing
        plan compiled once; each ``Start`` replays it."""
        self._check_live()
        count, dt = self._resolve(sendbuf, recvbuf, count, datatype)
        op.validate(dt)
        self._warm_plan("allreduce", count * dt.itemsize, dt, op,
                        sendbuf, recvbuf)
        return self._persistent_coll(
            "allreduce",
            lambda: self.coll.allreduce(self, sendbuf, recvbuf, count, dt, op))

    def Bcast_init(self, buf, root: int = 0, count: Optional[int] = None,
                   datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent broadcast."""
        self._check_live()
        count, dt = self._resolve(buf, buf, count, datatype)
        self.world_rank(root)
        self._warm_plan("bcast", count * dt.itemsize, dt, None, buf)
        return self._persistent_coll(
            "bcast", lambda: self.coll.bcast(self, buf, count, dt, root))

    def Reduce_init(self, sendbuf, recvbuf, op: Op = SUM, root: int = 0,
                    count: Optional[int] = None,
                    datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent reduce."""
        self._check_live()
        count, dt = self._resolve(sendbuf, recvbuf, count, datatype)
        op.validate(dt)
        self.world_rank(root)
        bufs = (sendbuf, recvbuf) if self._rank == root else (sendbuf,)
        self._warm_plan("reduce", count * dt.itemsize, dt, op, *bufs)
        return self._persistent_coll(
            "reduce",
            lambda: self.coll.reduce(self, sendbuf, recvbuf, count, dt, op,
                                     root))

    def Allgather_init(self, sendbuf, recvbuf, count: Optional[int] = None,
                       datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent allgather (``count`` per-rank contribution)."""
        self._check_live()
        if count is None:
            ref = recvbuf if sendbuf is IN_PLACE else sendbuf
            count = as_array(ref).size
            if sendbuf is IN_PLACE:
                count //= self.size
        dt = datatype or datatype_of(recvbuf)
        self._warm_plan("allgather", count * dt.itemsize, dt, None,
                        sendbuf, recvbuf)
        return self._persistent_coll(
            "allgather",
            lambda: self.coll.allgather(self, sendbuf, recvbuf, count, dt))

    def Alltoall_init(self, sendbuf, recvbuf, count: Optional[int] = None,
                      datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent alltoall (``count`` per-destination block)."""
        self._check_live()
        if count is None:
            count = as_array(sendbuf).size // self.size
        dt = datatype or datatype_of(sendbuf)
        self._warm_plan("alltoall", count * dt.itemsize, dt, None,
                        sendbuf, recvbuf)
        return self._persistent_coll(
            "alltoall",
            lambda: self.coll.alltoall(self, sendbuf, recvbuf, count, dt))

    def Reduce_scatter_block_init(self, sendbuf, recvbuf, op: Op = SUM,
                                  count: Optional[int] = None,
                                  datatype: Optional[Datatype] = None) -> "PersistentCollRequest":
        """Persistent reduce_scatter_block (``count`` per-rank output)."""
        self._check_live()
        if count is None:
            count = as_array(recvbuf).size
        dt = datatype or datatype_of(recvbuf)
        op.validate(dt)
        self._warm_plan("reduce_scatter", count * dt.itemsize, dt, op,
                        sendbuf, recvbuf)
        return self._persistent_coll(
            "reduce_scatter",
            lambda: self.coll.reduce_scatter_block(self, sendbuf, recvbuf,
                                                   count, dt, op))

    def Barrier_init(self) -> "PersistentCollRequest":
        """Persistent barrier."""
        self._check_live()
        return self._persistent_coll("barrier",
                                     lambda: self.coll.barrier(self))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Communicator {self.ctx_id} rank {self._rank}/{self.size}>"


class PersistentRequest:
    """A reusable request (``MPI_Send_init``/``MPI_Recv_init``).

    ``Start`` activates one iteration; ``wait`` completes it; the
    request can then be started again.  ``startall``/``waitall`` work
    via the plain functions in :mod:`repro.mpi.request`.
    """

    def __init__(self, factory) -> None:
        self._factory = factory
        self._active: Optional[Request] = None

    def Start(self) -> "PersistentRequest":
        """Activate the operation (``MPI_Start``)."""
        if self._active is not None and not self._active.done:
            raise MPICommError("Start on an already-active persistent request")
        self._active = self._factory()
        return self

    def wait(self) -> Status:
        """Complete the active iteration."""
        if self._active is None:
            raise MPICommError("wait on an inactive persistent request")
        status = self._active.wait()
        return status

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

    Arguments are resolved — and, with the fast path on, the routing
    plan compiled — once at init; every ``Start`` replays the plan.
    """

    def __init__(self, factory, coll: str) -> None:
        super().__init__(factory)
        #: which collective this request replays (e.g. ``"allreduce"``)
        self.coll = coll

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.active else "idle"
        return f"<PersistentCollRequest {self.coll} {state}>"


def start_all(requests: Sequence["PersistentRequest"]) -> None:
    """``MPI_Startall``."""
    for r in requests:
        r.Start()


def _prefix(counts: Sequence[int]) -> List[int]:
    """Exclusive prefix sums (default displacements)."""
    out, acc = [], 0
    for c in counts:
        out.append(acc)
        acc += int(c)
    return out
