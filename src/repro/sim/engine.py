"""SPMD launcher: rank programs, virtual clocks, shared slots.

:func:`run_spmd` is the ``mpiexec`` of this reproduction: it places
``nranks`` rank programs onto a cluster's accelerators (block,
node-major — the paper's one-rank-per-device configuration), runs
them, and returns their per-rank return values.  Ranks run as
cooperative run-queue fibers under one run token
(:mod:`repro.sim.sched`), so the interleaving — and with it every
virtual time — is a pure function of the program.

The engine also hosts :class:`CollectiveSlot` rendezvous objects: the
mechanism by which a simulated CCL collective gathers every rank's
buffer and virtual arrival time, lets exactly one rank compute the
result and its completion time, and distributes both to all parties.
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.config import from_env
from repro.errors import (DeadlockError, MPICommError, RankFailedError,
                          RankKilledError, SimulationError)
from repro.hw.cluster import Cluster
from repro.hw.device import Accelerator
from repro.sim.clock import VirtualClock
from repro.sim.mailbox import ANY_SOURCE, Mailbox, Message
from repro.sim.sched import CoopScheduler, CoopWaitq
from repro.sim.tracing import Trace
from repro.sim.wire import WireTracker


class CollectiveSlot:
    """One-shot all-parties rendezvous with a single-computer reduction.

    All ``parties`` threads call :meth:`exchange`; the last to arrive
    runs ``compute(payloads)`` (a dict rank -> payload) and its return
    value is handed to every caller.

    The CCL built-ins deposit *borrowed views* of live sender buffers
    instead of snapshots.  Those views may be read inside
    ``compute`` (every party is parked in the rendezvous while it runs)
    and inside a per-rank ``consume`` callback: when ``consume`` is
    given, each party runs it before leaving and **no party returns
    until all have finished consuming** — the exit barrier that makes
    the borrow safe.  ``cleanup`` (run once, by the last consumer) is
    where pooled accumulators are returned to their pool.
    """

    def __init__(self, key: Any, parties: int, waitq: CoopWaitq,
                 on_finish=None, patient: bool = False, abort=None) -> None:
        if parties <= 0:
            raise SimulationError(f"collective slot needs parties > 0, got {parties}")
        self.key = key
        self.parties = parties
        self._on_finish = on_finish
        #: hopelessness probe (``() -> Optional[str]``, the engine's
        #: :meth:`Engine.doomed` on the slot's scope): a non-None reason
        #: means a party can never arrive and waiters raise
        #: :class:`DeadlockError` immediately instead of parking
        self._abort = abort
        #: patient slots (the ULFM agree/shrink rendezvous) absorb a few
        #: deadlock firings instead of raising on the first one —
        #: during elastic recovery survivors arrive staggered, after
        #: converting their own failures
        self._patient = patient
        self._waitq = waitq
        self._payloads: Dict[int, Any] = {}
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._done = False
        self._failed = False
        self._retrieved = 0
        self._consumed = 0
        self._consume_done = False

    def exchange(self, rank: int, payload: Any,
                 compute: Callable[[Dict[int, Any]], Any],
                 consume: Optional[Callable[[int, Any, Dict[int, Any]], None]] = None,
                 cleanup: Optional[Callable[[Any], None]] = None) -> Any:
        """Deposit ``payload``, wait for all parties, return the result.

        ``consume(rank, result, payloads)``, when given, runs on every
        party's own thread after the result is computed; the call only
        returns once every party has consumed (and ``cleanup(result)``
        has run, on the last consumer's thread).  All parties of one
        exchange must agree on whether they pass ``consume`` — the CCL
        built-ins always do, every other caller never does.

        If ``compute`` raises, the exception is re-raised on **every**
        party (not just the computing one): the waiters are released
        immediately and raise the same exception object, instead of
        a misleading :class:`DeadlockError` once everyone has parked.
        """
        if rank in self._payloads:
            raise SimulationError(
                f"rank {rank} arrived twice at collective {self.key!r}")
        self._payloads[rank] = payload
        if len(self._payloads) == self.parties:
            try:
                self._result = compute(self._payloads)
            except BaseException as exc:  # noqa: BLE001 - re-raised on all
                self._fail(exc)
                raise
            self._done = True
            self._waitq.notify_all()
        else:
            self._waitq.wait_for(
                self._done_or_hopeless,
                lambda: (f"rank {rank} waiting in collective "
                         f"{self.key!r}: {len(self._payloads)}"
                         f"/{self.parties} arrived"),
                patient=self._patient)
            if self._error is not None:
                raise self._error
        result = self._result
        if consume is not None:
            # payloads and result are frozen once ``_done``, and the
            # exit barrier keeps them alive until the last consumer is
            # through
            consume(rank, result, self._payloads)
            self.consume_barrier(rank, cleanup, result)
        self._retrieved += 1
        if self._retrieved == self.parties:
            # drop payload/result references so finished slots hold
            # no buffer snapshots, and let the engine reap the slot
            self._payloads.clear()
            self._result = None
            if self._on_finish is not None:
                self._on_finish(self)
        return result

    def _done_or_hopeless(self) -> bool:
        """Wait predicate: done, or provably never-completing (a party
        died / the communicator was revoked) — the latter raises."""
        if self._done:
            return True
        if self._abort is not None:
            reason = self._abort()
            if reason is not None:
                raise DeadlockError(
                    f"collective {self.key!r} can never complete: {reason}")
        return False

    def poison(self, exc: BaseException) -> None:
        """Fail the slot from outside (communicator revocation): every
        parked waiter is released and raises ``exc``.  No-op on a slot
        that already completed."""
        if self._done:
            return
        self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        """Poison the slot: record the compute failure, drop the payload
        references, release every waiter, and retire the slot.  The
        caller re-raises on its own party."""
        self._error = exc
        self._failed = True
        self._done = True
        self._payloads.clear()
        self._waitq.notify_all()
        if self._on_finish is not None:
            self._on_finish(self)

    def consume_barrier(self, rank: int, cleanup=None, result=None) -> None:
        """Exit barrier for borrowed payloads: every party calls this
        once after consuming (:meth:`exchange` does, when given
        ``consume``; the fused group transport copies its inbound
        messages after the rendezvous returns and calls it itself).
        None returns until all have — only then may senders' live
        buffers be mutated again.  The last one runs
        ``cleanup(result)`` and releases everyone."""
        self._consumed += 1
        if self._consumed == self.parties:
            if cleanup is not None:
                cleanup(result)
            self._consume_done = True
            self._waitq.notify_all()
            return
        self._waitq.wait_for(
            lambda: self._consume_done,
            lambda: (f"rank {rank} waiting for consumers of collective "
                     f"{self.key!r}: {self._consumed}/{self.parties} done"),
            patient=self._patient)

    @property
    def finished(self) -> bool:
        """True once every party has retrieved the result (or the slot
        was poisoned by a compute failure)."""
        return self._retrieved == self.parties or self._failed


class GroupExchangeSlot(CollectiveSlot):
    """Rendezvous for one fused ``xcclGroupStart``/``End`` call.

    Every rank of the communicator deposits the columns it staged its
    sends into, with the rows indexed per destination; once all have
    arrived, each rank picks its own inbound rows out of the deposits —
    O(parties) per rank, on its own thread, nothing merged by the last
    arriver.  One rendezvous replaces the O(P^2) per-message mailbox
    post/notify round trips of a symmetric group (alltoallv,
    allgatherv, ...), while every message keeps the depart/arrival
    virtual times its sender priced — the batching is wall-clock only.
    """

    def exchange_for(self, rank: int, by_dst: Dict[int, List[int]],
                     columns: Any, world_rank: int) -> List[Any]:
        """Deposit ``columns`` and their rows per destination world
        rank; return ``(sender comm rank, rows, sender's columns)`` for
        every sender with rows for ``world_rank``, in sender comm-rank
        order (rows in the sender's program order: FIFO per pair)."""
        # a copy: the slot clears its payloads when the last party leaves
        deposits = self.exchange(rank, (by_dst, columns),
                                 lambda got: [got[r] for r in sorted(got)])
        return [(sender, index[world_rank], cols)
                for sender, (index, cols) in enumerate(deposits)
                if world_rank in index]


def _scope_of(key: Any) -> Any:
    """The communicator scope a slot key names, or None: comm-scoped
    keys lead with an MPI ctx_id string or are ``("xccl"/"xccl-group",
    uid, ...)`` tuples."""
    if not isinstance(key, tuple) or not key:
        return None
    if key[0] in ("xccl", "xccl-group") and len(key) > 1:
        return ("xccl", key[1])
    return key[0] if isinstance(key[0], str) else None


class CommRecord:
    """The facts every member of one communicator derives identically,
    built once by the first member to reach it (:meth:`Engine.comm_record`)
    and shared by reference.  Write-once: each fact is a function of the
    group and the cluster alone, computed by whichever member asks first.
    It stays in :attr:`Engine.records` while a member handle is live."""

    def __init__(self, engine: "Engine", scope: Any, group: tuple) -> None:
        self._engine = engine
        self.scope = scope
        #: world ranks, in communicator order
        self.group = group
        #: world rank -> communicator rank
        self.rank_of: Dict[int, int] = {w: i for i, w in enumerate(group)}
        #: the rank-independent half of each factorization, by what it
        #: groups by (filled by :func:`repro.mpi.coll.levels.factorize`)
        self.factors: Dict[str, Any] = {}
        #: live member handles
        self.handles = 0
        #: the open rendezvous of central replay, by the first
        #: collective tag of the call they gather
        #: (:mod:`repro.mpi.coll.replay`)
        self.central_slots: Dict[int, Any] = {}
        #: the open records of compiled replay's calls, by the first
        #: collective tag of the call (:mod:`repro.mpi.coll.compiled`)
        self.call_records: Dict[int, Any] = {}
        #: a key compiled here: from then on every call leaves its record
        self.compiles = False

    def release(self) -> None:
        """One member handle is gone (``Comm_free``,
        ``XCCLComm.destroy``); the last takes the record out of the
        engine's table, and its open call records with it."""
        self.handles -= 1
        records = self._engine.records
        if not self.handles and records.get(self.scope) is self:
            del records[self.scope]
            self.call_records.clear()

    @functools.cached_property
    def mixed_vendor(self) -> bool:
        """True when the members' accelerators span several vendors."""
        device_of = self._engine.device_of
        return len({device_of(w).vendor for w in self.group}) > 1

    @functools.cached_property
    def nodes(self) -> tuple:
        """Per communicator rank: the index of the node hosting it."""
        e = self._engine
        return tuple(e.cluster.node_index_of(e.device_of(w)) for w in self.group)

    @functools.cached_property
    def uncontended(self) -> bool:
        """True when every wire booking of this communicator's members
        happens in its sender's own program order, so the order in
        which members are evaluated cannot move a clock — central
        replay's shape condition (:mod:`repro.mpi.coll.replay`): one
        switched node, so each device pair has a private directed wire,
        no device hosting two ranks of the run, and no option that
        observes the members' interleaving — tracing, the online
        tuner (its fit reads whichever samples members have returned
        by then) or a fault plan."""
        e = self._engine
        cluster = e.cluster
        return (cluster.node_count == 1 and cluster.nodes[0].switched
                and len({d.global_id for d in e._devices}) == e.nranks
                and not e.options["trace"] and not e.options["online_tune"]
                and e.faults is None)

    @functools.cached_property
    def shape(self):
        """The :class:`~repro.perfmodel.shape.CommShape` of the group."""
        from repro.perfmodel.shape import shape_of  # deferred: sim below perfmodel
        engine = self._engine
        return shape_of(engine.cluster, self.group, engine.ranks_per_node)


class RankContext:
    """Everything one rank program sees.

    Attributes:
        rank / size: position in the job.
        device: the accelerator this rank drives.
        clock: the rank's virtual clock (microseconds).
        trace: per-rank trace log.
        engine: back-reference for mailbox/slot lookups.
    """

    def __init__(self, engine: "Engine", rank: int) -> None:
        self.engine = engine
        self.rank = rank
        self.size = engine.nranks
        self.device: Accelerator = engine.device_of(rank)
        self.clock = VirtualClock()
        self.mailbox = engine.mailbox_of(rank)
        self.trace = Trace(rank, enabled=engine.options["trace"])
        #: occurrence numbers of the run-wide rendezvous the rank program
        #: issues outside any communicator (OMB statistics, pure-CCL
        #: bootstraps): every rank of the run issues them in one order
        self.program_seq = itertools.count()
        #: lazily-built staging BufferPool (see repro.mpi.compute);
        #: stays None until the fast path first needs scratch space.
        self.staging_pool = None
        #: the rank's unreclaimed nonblocking rendezvous sends, ``id`` of
        #: the allocation their lent view was cut from -> ``{seq:
        #: message}``: a receive landing on that memory copies them out
        #: first (``repro.mpi.p2p.P2PEndpoint._copy_lent``)
        self.lent: Dict[int, Dict[int, Message]] = {}
        #: the rank's pending nonblocking rendezvous sends of
        #: storage-free views, which ``lent`` misses (they lend nothing):
        #: like a lent one, each has its receiver's booking of this
        #: rank's wire still to come
        self.unlent_sends = 0

    @property
    def cluster(self) -> Cluster:
        """The cluster the job runs on."""
        return self.engine.cluster

    @property
    def now(self) -> float:
        """Current virtual time (us)."""
        return self.clock.now

    def mailbox_of(self, rank: int) -> Mailbox:
        """Another rank's mailbox (for posting sends)."""
        return self.engine.mailbox_of(rank)

    def device_of(self, rank: int) -> Accelerator:
        """Another rank's accelerator (for path lookups)."""
        return self.engine.device_of(rank)

    def collective_slot(self, key: Any, parties: Optional[int] = None,
                        patient: bool = False,
                        factory: type = CollectiveSlot) -> CollectiveSlot:
        """The rendezvous slot named ``key`` (``factory``: its flavour).

        A key names one rendezvous: a key its issuer repeats carries the
        issuer's occurrence number (``XCCLComm.next_coll_key``'s
        sequence, a communicator's ``split`` / ``win`` / ULFM counters,
        :attr:`program_seq`), so the Nth occurrence on one rank meets the
        Nth on every other rank.  A rank reaching an unfinished slot it
        already joined raises :class:`SimulationError`.
        """
        return self.engine.collective_slot(key, parties or self.size,
                                           factory, patient)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RankContext {self.rank}/{self.size} on {self.device.model}>"


class Engine:
    """Owns the shared state of one SPMD run.

    The two options below are the run's whole configuration surface.
    ``None`` means "the ``MPIX_*`` default" (:mod:`repro.config`, read
    once, here); an explicit ``True``/``False`` wins.  They are fixed
    for the engine's lifetime — every dispatcher of the run, those of
    sub-communicators included, reads them off the engine it shares.
    Which route a collective takes — the hierarchy and the
    mixed-vendor bridge included — is a tuning-table row, not an
    option (:mod:`repro.core.tuning_table`).

    Args:
        trace: record per-rank event traces (``MPIX_TRACE``).
            Observation only: payloads and virtual times are
            bit-identical either way.
        online_tune: feed measured latencies back into a
            per-communicator overlay on the static tuning table
            (``MPIX_ONLINE_TUNE``, :mod:`repro.core.online_tune`).
            Routes only deviate after the per-bucket warm-up.
    """

    def __init__(self, cluster: Cluster, nranks: Optional[int] = None,
                 ranks_per_node: Optional[int] = None,
                 trace: Optional[bool] = None, *,
                 online_tune: Optional[bool] = None) -> None:
        self.cluster = cluster
        self.ranks_per_node = ranks_per_node
        capacity = (cluster.node_count * ranks_per_node if ranks_per_node
                    else cluster.device_count)
        self.nranks = nranks if nranks is not None else capacity
        if self.nranks <= 0:
            raise SimulationError(f"nranks must be positive, got {self.nranks}")
        if self.nranks > capacity:
            raise SimulationError(
                f"{self.nranks} ranks exceed cluster capacity {capacity}")
        env = from_env()
        #: the two options as resolved, by argument name (read-only)
        self.options: Mapping[str, bool] = MappingProxyType({
            name: getattr(env, name) if arg is None else bool(arg)
            for name, arg in (("trace", trace),
                              ("online_tune", online_tune))})
        # the fast-path counters are process-global; a new engine is a
        # new run, so start it from zero (tests and back-to-back sweeps
        # must not see a previous engine's counts).  The memoized tuning
        # tables are the same leak class: a new engine may target a
        # different system, so back-to-back runs must never be served a
        # previous system's tables (deferred imports keep sim below core)
        from repro import fastpath
        fastpath.STATS.reset()
        from repro.core.tuning_table import clear_cache
        clear_cache()
        #: measured-latency overlay shared by every rank's dispatch
        #: pipeline; None unless the ``online_tune`` option is on
        from repro.core.online_tune import OnlineTuner
        self.online_tuner = (OnlineTuner() if self.options["online_tune"]
                             else None)
        # ULFM state: ranks known dead and communicator contexts
        # revoked, shared by the ranks (under the run token, like every
        # table below: repro.sim.sched)
        self.dead_ranks: set = set()
        self._revoked: set = set()
        self._shrink_gens: Dict[str, int] = {}
        #: communicator scope -> its shared record (:meth:`comm_record`),
        #: whose group :meth:`doomed` reads; held while a member handle
        #: is live, cleared per run
        self.records: Dict[Any, CommRecord] = {}
        #: COMM_WORLD's group, built once per engine
        self.world_group = tuple(range(self.nranks))
        #: the installed :class:`~repro.sim.faults.FaultInjector`, or
        #: None (:func:`~repro.sim.faults.with_faults` sets it)
        self.faults = None
        #: collectives one member ran for all (central replay,
        #: :mod:`repro.mpi.coll.replay`), over the engine's runs
        self.central_replays = 0
        #: collectives whose members ran compiled slices (compiled
        #: replay, :mod:`repro.mpi.coll.compiled`), over the engine's runs
        self.compiled_replays = 0
        # ranks run as fibers under one run token; their waits park and
        # their deadlocks are detected exactly (a wait from outside a
        # run fails at once)
        self.scheduler = CoopScheduler()
        self._mailboxes = [Mailbox(r, CoopWaitq(self.scheduler))
                           for r in range(self.nranks)]
        self._devices = [cluster.device_for_rank(r, ranks_per_node)
                         for r in range(self.nranks)]
        self._slots: Dict[Any, CollectiveSlot] = {}
        self.wires = WireTracker()
        self._seq = itertools.count()
        self.contexts: List[RankContext] = []
        # shared accumulator pool for the zero-copy collectives: the
        # reducing rank differs call to call (import is deferred to
        # keep sim below core in the layering)
        from repro.core.plan import BufferPool
        self.scratch_pool = BufferPool(counter="accumulator_reuses")

    # -- lookups -----------------------------------------------------------

    def mailbox_of(self, rank: int) -> Mailbox:
        """Mailbox of ``rank``."""
        return self._mailboxes[rank]

    @property
    def any_mailbox_patched(self) -> bool:
        """True while a fault plan's message rules filter deliveries
        (every mailbox then carries the same ``filter``): the
        whole-group rendezvous then puts its rows to it too.  O(1)."""
        return self._mailboxes[0].filter is not None

    def device_of(self, rank: int) -> Accelerator:
        """Accelerator assigned to ``rank``."""
        return self._devices[rank]

    def node_of(self, rank: int) -> int:
        """Cluster node index hosting ``rank`` (Chrome-trace pids)."""
        return self.cluster.node_index_of(self._devices[rank])

    def traces(self) -> List[Trace]:
        """The per-rank traces of the most recent :meth:`run` (empty
        before the first run)."""
        return [ctx.trace for ctx in self.contexts]

    def collective_slot(self, key: Any, parties: int,
                        factory: type = CollectiveSlot,
                        patient: bool = False) -> CollectiveSlot:
        """Get-or-create the rendezvous slot for ``key``.

        Slots are reclaimed once all parties retrieved their result.
        ``factory`` selects the slot flavour (plain collective or
        :class:`GroupExchangeSlot`); keys never collide across flavours.
        """
        slot = self._slots.get(key)
        if slot is None or slot.finished:
            # patient slots are the ULFM recovery rendezvous: they run
            # on a revoked communicator by design, so they never get a
            # hopelessness probe
            scope = None if patient else _scope_of(key)
            abort = (None if scope is None
                     else functools.partial(self.doomed, scope))
            slot = factory(key, parties, CoopWaitq(self.scheduler),
                           on_finish=self._reap_slot, patient=patient,
                           abort=abort)
            self._slots[key] = slot
        if slot.parties != parties:
            raise SimulationError(
                f"collective {key!r} called with {parties} parties, "
                f"but an in-flight call has {slot.parties}")
        return slot

    def _reap_slot(self, slot: CollectiveSlot) -> None:
        if self._slots.get(slot.key) is slot:
            del self._slots[slot.key]

    # -- elastic (ULFM) state ------------------------------------------------

    def note_rank_dead(self, rank: int) -> None:
        """Record one rank as dead (a ``FaultPlan.kill`` rule fired)."""
        self.dead_ranks.add(rank)

    def comm_record(self, scope: Any, group, member: int) -> CommRecord:
        """The shared record of the communicator ``scope`` (an MPI
        ctx_id, or ``("xccl", uid)`` for a CCL communicator) over the
        world ranks ``group``, built by the first member to ask; counts
        the handle world rank ``member`` builds.  SPMD: a member naming
        another group (a diverged ``Split``), or not in it, raises
        :class:`~repro.errors.MPICommError` instead of replacing it."""
        rec = self.records.get(scope)
        if rec is None:
            rec = self.records[scope] = CommRecord(self, scope, tuple(group))
        elif group is not rec.group and tuple(group) != rec.group:
            raise MPICommError(f"communicator {scope!r}: this member's group "
                               f"({len(group)} ranks) differs from the agreed one")
        if member not in rec.rank_of:
            raise MPICommError(f"rank {member} not in the "
                               f"{len(rec.group)}-rank group of {scope!r}")
        rec.handles += 1
        return rec

    def doomed(self, scope: Any, peer: int = ANY_SOURCE) -> Optional[str]:
        """Why a wait on world rank ``peer`` (or on any source) within
        the communicator ``scope`` can never end, or None while it still
        can — the one probe every wait asks before it parks again: a
        collective slot, a p2p wait or poll, a CCL bulk receive, a
        deferred exchange match.

        The scope was revoked; the peer died; or a member of the scope's
        record died — that dooms every schedule in flight on it, even a
        wait on a live peer (it is blocked on the dead rank,
        transitively), so the wait fails now instead of parking until
        every live rank has.
        """
        if not self.dead_ranks and not self._revoked:
            return None  # fault-free fast path
        if scope in self._revoked:
            return f"communicator {scope!r} was revoked"
        if peer in self.dead_ranks:
            return f"peer rank {peer} died"
        rec = self.records.get(scope)
        dead = self.dead_ranks.intersection(rec.group) if rec else None
        if dead:
            return f"communicator member rank(s) {sorted(dead)} died"
        return None

    def revoke_comm(self, ctx_id: str) -> None:
        """Revoke one communicator context (idempotent).

        First revocation bumps the ``comm_revokes`` counter, purges the
        context's pending rendezvous slots (they can never complete —
        a party is dead) but the patient ones (the ULFM agree / shrink
        rendezvous, which run on a revoked communicator by design) and
        wakes every blocked receiver so it asks :meth:`doomed` now.
        """
        if ctx_id in self._revoked:
            return
        self._revoked.add(ctx_id)
        from repro import fastpath
        fastpath.STATS.comm_revokes += 1
        # comm-scoped keys lead with the ctx_id
        doomed = [self._slots.pop(key) for key, slot in list(self._slots.items())
                  if type(key) is tuple and key[:1] == (ctx_id,)
                  and not slot._patient]
        for slot in doomed:
            slot.poison(DeadlockError(
                f"collective {slot.key!r} aborted: communicator "
                f"{ctx_id!r} was revoked"))
        # members gathered for a central replay run their own rows,
        # which meet the revocation round by round
        rec = self.records.get(ctx_id)
        if rec is not None:
            for slot in list(rec.central_slots.values()):
                slot.drain()
            # members of a compiled call meet the revocation at their
            # next round; whoever comes later never enlists
            rec.call_records.clear()
        # parked fibers never poll: wake them to re-check
        for mb in self._mailboxes:
            mb.poke()

    def is_revoked(self, ctx_id: str) -> bool:
        """Whether the communicator context has been revoked."""
        return ctx_id in self._revoked

    def shrink_generation(self, ctx_id: str) -> int:
        """A deterministic generation number for a shrink of ``ctx_id``
        (how many shrinks of it completed before this one).  Called from
        inside the shrink rendezvous' compute — once per agreement — so
        every survivor names the new context identically."""
        gen = self._shrink_gens.get(ctx_id, 0)
        self._shrink_gens[ctx_id] = gen + 1
        return gen

    # -- execution -----------------------------------------------------------

    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> List[Any]:
        """Run ``fn(ctx, *args, **kwargs)`` on every rank; return the
        per-rank return values in rank order.

        Raises :class:`RankFailedError` if any rank raised — unless
        every failure is an injected death (``FaultPlan.kill``): that
        job completed elastically, with ``None`` in the dead slots.
        """
        self.contexts = [RankContext(self, r) for r in range(self.nranks)]
        if self.faults is not None:
            self.faults.arm_kills(self.contexts)
        # fresh run, fresh failure knowledge
        self.dead_ranks.clear()
        self._revoked.clear()
        self.records.clear()
        self.wires.reset()
        results: List[Any] = [None] * self.nranks
        failures: Dict[int, BaseException] = {}

        def runner(ctx: RankContext) -> None:
            try:
                results[ctx.rank] = fn(ctx, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                # peers blocked on this rank find out when the last of
                # them parks: exact deadlock detection wakes them all
                failures[ctx.rank] = exc

        from repro import fastpath
        sched = self.scheduler
        try:
            sched.run_ranks([(ctx.rank, (lambda c=ctx: runner(c)))
                             for ctx in self.contexts])
        finally:
            self._drain_pools()
        stats = fastpath.STATS
        stats.coop_runs += 1
        stats.coop_parks += sched.parks
        stats.coop_switches += sched.switches
        # a failure's traceback keeps the frames up to ``runner`` alive,
        # and ``runner`` sees ``failures``: empty the dict it sees, so
        # the failures close no reference cycle and the buffers their
        # frames hold die with them, collector or not
        failed = dict(failures)
        failures.clear()
        if failed:
            if all(isinstance(e, RankKilledError) for e in failed.values()):
                # every failure is an injected death and every survivor
                # finished (recovered through revoke -> agree -> shrink,
                # or never touched the dead): the job completed
                # elastically.  Dead ranks' results stay None.
                return results
            # deadlocks secondary to a real failure are noise; prefer
            # the primary errors when both kinds are present
            primary = {r: e for r, e in failed.items()
                       if not isinstance(e, DeadlockError)}
            raise RankFailedError(primary or failed)
        return results

    def _drain_pools(self) -> None:
        """Drop what was pooled for the run (accumulators, staging, slots
        a failed run abandoned): the engine is cyclic, so kept for its
        traces or left to the collector it must pin no payload memory."""
        self.scratch_pool.clear()
        for ctx in self.contexts:
            if ctx.staging_pool is not None:
                ctx.staging_pool.clear()
            # a send the run never completed (its receiver died, its RTS
            # was dropped): the lent view and its lease end with the run
            for entries in ctx.lent.values():
                for msg in entries.values():
                    msg.data = msg.lease = None
            ctx.lent.clear()
            ctx.unlent_sends = 0
        self._slots.clear()
        for rec in self.records.values():
            rec.central_slots.clear()
            rec.call_records.clear()

    def next_sequence(self) -> int:
        """A run-unique id (collective keys, message fingerprints)."""
        return next(self._seq)


def run_spmd(cluster: Cluster, fn: Callable[..., Any], nranks: Optional[int] = None,
             ranks_per_node: Optional[int] = None, trace: Optional[bool] = None,
             *args: Any, online_tune: Optional[bool] = None,
             **kwargs: Any) -> List[Any]:
    """One-shot convenience wrapper: build an :class:`Engine` (which
    documents the two options) and run.

    >>> cluster = make_system("thetagpu", 1)          # doctest: +SKIP
    >>> run_spmd(cluster, lambda ctx: ctx.rank, nranks=4)   # doctest: +SKIP
    [0, 1, 2, 3]
    """
    engine = Engine(cluster, nranks=nranks, ranks_per_node=ranks_per_node,
                    trace=trace, online_tune=online_tune)
    return engine.run(fn, *args, **kwargs)
