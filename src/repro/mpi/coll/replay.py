"""Round programs: an MPI-route collective recorded once, then replayed.

What a flat MPI algorithm does — its rounds, its local copies and folds,
its staging — is a pure function of the communicator and the call's
:attr:`~repro.mpi.communicator.CollectiveCall.key` (collective, count,
datatype, op, root, in-place spelling, buffer residency): no branch
reads a payload, so virtual time has no data dependence either.  So
the first call of a key on a communicator runs the algorithm body live
with the communicator's ``_tape`` set to a :class:`Recorder`.  Every
round entry (``Communicator._send`` / ``_recv`` / ``_isend`` /
``_irecv`` / ``_sendrecv`` / ``_waitall``), every local-work helper of
:mod:`repro.mpi.compute` (``copy_window``, ``reduce_window``,
``move_blocks``, ``acquire_staging`` / ``release_staging``) and
``next_coll_tag`` writes one row.  A row names a buffer by its role —
0 the send buffer, 1 the receive buffer, then each staging buffer in
acquire order; an empty window's buffer, which holds nothing, as
itself — a peer by world rank, a tag as the live call used it (a
replay shifts it by how far its own first tag is from the recorded
one), and local work by the virtual time it charges.

Every later call of the key replays the rows: centrally where no
evaluation order can move a clock (below), compiled where the key is
contended and synchronises (further below), otherwise per rank, in
:meth:`RoundProgram.replay`'s one loop over the member's own rows.  That
loop calls the same ``P2PEndpoint`` methods (looked up on the endpoint,
so whatever wraps the class sees every round) and the same compute
primitives, in the same order, after the same revocation check per
round — so mailbox matching, wire booking, leases, fault filters,
traces and counters see exactly what the live body would have made
them see, in the same run-token order on every topology.

**Central replay.**  Per message the per-rank loop still posts to a
mailbox, matches, books a wire and often parks for the run token.
Where the communicator is *uncontended*
(:attr:`~repro.sim.engine.CommRecord.uncontended`: one switched node,
so every device pair has a private directed wire, no device hosting
two ranks, no tracing, online tuner or fault plan), every booking on a
wire is made by its sender in its own program order, so the order in
which members are evaluated cannot change a clock.  There each member
of a hot key's call takes its tags and meets the others in the
:class:`CentralSlot` named by the call's first tag, parking once; the
last to arrive runs every member's rows in one pass
(:func:`_run_central`), then releases the members.  The pass is a
:class:`CentralProgram`, assembled once per (communicator, key) from
the members' rows, and it comes in two parts:

* its *timing list* — each departure's charges and wire booking, each
  landing's merge and charges, each local step's recorded charge, in
  the order the rows would have made them — which sets every clock as
  the per-rank replays would, priced by the endpoints' own pricing;
* its *data tape*, which :mod:`repro.mpi.coll.dataplan` solves, on
  the key's first call with storage, into a data plan: the folds, on
  the operands the rows would have folded, and one gather per run of
  each buffer the call changes.  A pack, send, land and unpack moves
  a payload once.  A storage-free call moves none.

Staging is acquired and released per member, in its own order, from
its own pool.  A key replays per rank
instead when a row is a rendezvous send (its receiver books the
sender's wire), a receive nothing feeds, or a step converts a dtype;
a call does when a member has a nonblocking rendezvous send pending
(its receiver's booking of the member's wire is still to come: a lent
window, ``RankContext.lent``, or a storage-free one,
``unlent_sends``), or the communicator is revoked.  A member
waiting in a slot may wait for company that first needs its messages
(a collective that does not synchronise) or for members of another
key: the scheduler releases every such waiter before it declares a
deadlock (:meth:`~repro.sim.sched.CoopWaitq.wait_for` ``gives_way``),
the last arrival sends members of another key back, and each then
replays its own rows — which, with no order able to move a clock,
gives the same answer — as do the key's later calls, whose meetings
would end alike.

What the pass cannot give is the per-rank replay's host-side counts:
each member parks once per collective (``coop_parks`` moves), and
whether a ``Sendrecv``'s lent view was landed before its sender's call
returned — elided or forced — follows the one order the pass runs
members in, where the per-rank replay's follows the whole program's
run-token interleaving (the total of copies does not move).  That
split is judged by the endpoint's own rule, :func:`~repro.mpi.p2p.lends`.

**Compiled replay.**  On a contended communicator (several nodes, two
ranks on one device, a PCIe bus) a wire is booked in the order the
fibers reach it, so one pass over every member would book shared NIC
and bus wires in another order than the run token does (a one-pass run
waits for wires booked in virtual-time order, ROADMAP item 2).  There
each member keeps the run token's order but not the per-message
plumbing.  On a key's second call every member enlists its ``(program,
call)`` in the :class:`~repro.mpi.coll.compiled.CallRecord` named by
the call's first tag (``comm.record.call_records``) and replays its
rows; the first to leave assembles the key's :class:`CentralProgram`
and keeps it when every member enlisted with one key and the key
*synchronises* — every member's last landing depends on every member's
first departure (recursive doubling, dissemination, ring, Bruck,
pairwise).  That choice is made before any other member can leave, so
it is every member's.  Each member then holds its own
:class:`~repro.mpi.coll.compiled.CompiledSlice` — its departures,
landings and local charges, priced, in row order — beside its rows;
every later call runs it (:func:`repro.mpi.coll.compiled.run`): a
departure charges the clock, books the wire
(``WireTracker.book_wire``), sets the message's arrival in the call's
record and wakes the receiver's mailbox wait queue where
``Mailbox.post`` would; a landing whose message has not departed parks
on the member's own mailbox wait queue, with ``Mailbox.match``'s stall
text and abort probe.  Parks, wakes and bookings happen at the same
points of the same run-token order as the per-rank replay's, so every
clock, digest and counter is the same — ``coop_parks`` and
``copies_*`` included — and no ``Message``, lease, view or ``Status``
is built.  The last member to arrive moves every member's payloads by
the key's data plan, before anyone can leave (a window a pending send
lends is copied out first; an error is every member's).  Traced runs
and fault plans (their records and mailbox filters need messages),
rendezvous and nonblocking rows and keys that do not synchronise stay
on the per-rank replay.

Members may disagree on a call: one passes host arrays where the others
pass the device buffers their key compiled with, so its call is
another key, run live or per rank.  Once a key has compiled on a
communicator every call there takes its record
(:func:`~repro.mpi.coll.compiled.pass_by`): a call run per rank counts
itself in, or leaves the record for members who come later, and a
compiled member who finds another key's record runs the call per rank
from its start.  A member who finds members of a compiled call already
waiting takes that call back to per-rank replay before it does
anything else: each waiting member's buffers are rebuilt as its rows
would have left them, its departed messages are posted to their
receivers' mailboxes as booked, and it goes on with its rows from
where it waited (:func:`~repro.mpi.coll.compiled._fall_back`).  So the
call gives the per-rank replay's bytes and clocks, and the key stays
compiled for the calls whose members agree.  A key that records
nothing takes its call records all the same, through a recording it
drops.

What stays live, recorded never:

* ``levels.py``'s hierarchical algorithms (``force="hierarchical"``) —
  they split sub-communicators and run collectives on them, whose own
  rounds are planned there;
* a call whose send buffer *is* its receive buffer without
  ``IN_PLACE`` (its key holds :data:`~repro.mpi.communicator.ALIASED`):
  the rows could not tell its two roles apart;
* a call without a key — one whose buffers do not hold its datatype's
  elements, so its local work is priced by another itemsize;
* a body that does something the rows cannot say (a buffer of no
  role, requests completed out of posting order): the recorder gives
  up and the key stays live.

A call that fails part-way records nothing; the next call of its key
records again.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional

import numpy as np

from repro import fastpath
from repro.hw.memory import DeviceBuffer, as_array
from repro.mpi.coll import dataplan
from repro.mpi.compute import copy_into, fold_into, permute_blocks, staging, unstage
from repro.mpi.p2p import lends
from repro.mpi.request import waitall
from repro.sim.sched import CoopWaitq

# row kinds, most frequent first (the interpreter tests them in order)
(SENDRECV, FOLD, BLOCKS, SEND, RECV, COPY, STAGE, UNSTAGE, ISEND, IRECV,
 WAIT) = range(11)
#: the columns of a local-work row that name buffers it reads as arrays
_ARRAY_ROLES = {COPY: (1, 3), FOLD: (2, 4), BLOCKS: (1, 3)}


class RoundPrograms(dict):
    """Per-communicator store of round programs by call key (a ledger
    entry), filled by ``owner``, the dispatcher whose algorithms they
    record."""

    def __init__(self, owner: Any) -> None:
        super().__init__()
        self.owner = owner


def abandon(comm) -> None:
    """Stop the recording ``comm`` is making: its key stays live."""
    comm._tape = None


class Recorder:
    """The rows of one live call, as its round entries and helpers
    report them (the communicator's ``_tape`` while it runs).  A row
    keeps its tags as the live call used them; a replay shifts them by
    how far its first tag is from the recorded one."""

    def __init__(self, call) -> None:
        self.comm = call.comm
        #: every role's buffer, alive until the recording ends (so no
        #: ``id`` in :attr:`ids` is reused while it runs)
        self.roles: List[Any] = [call.sendbuf, call.recvbuf]
        self.ids = {id(call.sendbuf): 0, id(call.recvbuf): 1}
        #: roles that are empty arrays kept as they are
        self.consts: List[int] = []
        #: ``(role, pool key)`` of each staging buffer, in acquire order
        self.stages: List[tuple] = []
        self.rows: List[tuple] = []
        self.tag0 = 0
        self.ntags = 0
        self.pending: List[Any] = []

    def role(self, buf) -> int:
        r = self.ids.get(id(buf))
        if r is not None:
            return r
        if type(buf) is np.ndarray and not buf.size:
            return self._add(buf, self.consts)
        abandon(self.comm)
        return 0

    def _add(self, buf, kind: List) -> int:
        self.roles.append(buf)
        r = self.ids[id(buf)] = len(self.roles) - 1
        kind.append(r)
        return r

    # -- what the communicator reports -------------------------------------

    def tag(self, tag: int) -> None:
        if not self.ntags:
            self.tag0 = tag
            compiled.pass_by(self.comm, tag)
        self.ntags += 1

    def send(self, buf, off, count, peer, tag, dt) -> None:
        self.rows.append((SEND, self.role(buf), off, count, peer, tag, dt))

    def recv(self, buf, off, count, peer, tag, dt) -> None:
        self.rows.append((RECV, self.role(buf), off, count, peer, tag, dt))

    def isend(self, buf, off, count, peer, tag, dt, req) -> None:
        self.rows.append((ISEND, self.role(buf), off, count, peer, tag, dt))
        self.pending.append(req)

    def irecv(self, buf, off, count, peer, tag, dt, req) -> None:
        self.rows.append((IRECV, self.role(buf), off, count, peer, tag, dt))
        self.pending.append(req)

    def wait(self, reqs) -> None:
        pending, self.pending = self.pending, []
        if len(reqs) != len(pending) or any(
                a is not b for a, b in zip(reqs, pending)):
            abandon(self.comm)
        self.rows.append((WAIT,))

    def exchange(self, sbuf, soff, scount, dst, rbuf, roff, rcount, src,
                 sendtag, recvtag, dt) -> None:
        self.rows.append((SENDRECV, self.role(sbuf), soff, scount, dst,
                          self.role(rbuf), roff, rcount, src, sendtag,
                          recvtag, dt))

    # -- what the compute helpers report ----------------------------------

    def copy(self, dst, doff, src, soff, count, us) -> None:
        self.rows.append((COPY, self.role(dst), doff, self.role(src), soff,
                          count, us))

    def fold(self, op, acc, aoff, operand, ooff, count, us) -> None:
        self.rows.append((FOLD, op, self.role(acc), aoff, self.role(operand),
                          ooff, count, us))

    def blocks(self, dst, drows, src, srows, count, us) -> None:
        self.rows.append((BLOCKS, self.role(dst), drows, self.role(src),
                          srows, count, us))

    def stage(self, buf, ref, key) -> None:
        ref_role = self.role(ref)
        k = self._add(buf, [])
        self.stages.append((k, key))
        self.rows.append((STAGE, k, ref_role, key))

    def unstage(self, buf, key) -> None:
        self.rows.append((UNSTAGE, self.role(buf), key))


def unwind(ctx, stages, bufs) -> None:
    """Release the staging buffers a failed replay still holds (what the
    body's ``finally`` blocks would have released)."""
    for k, key in reversed(stages):
        if bufs[k] is not None:
            unstage(ctx, key, bufs[k])


class RoundProgram:
    """One key's rounds on one communicator: recorded by the key's
    first call through ``live`` (the dispatcher's entry that runs the
    algorithm body), replayed by every later call.  ``replayable``
    False keeps every call live.  ``central`` is the key's
    :class:`CentralProgram` once its members have met (shared by every
    member's program), False when the key stays on per-rank replay.
    ``compiled`` is this member's
    :class:`~repro.mpi.coll.compiled.CompiledSlice` once the key
    compiled, None while that is undecided, False when it never will."""

    __slots__ = ("live", "replayable", "rows", "tag0", "ntags", "proto",
                 "stages", "local", "central", "compiled")

    def __init__(self, live: Callable, replayable: bool = True) -> None:
        self.live = live
        self.replayable = replayable
        self.rows: Optional[tuple] = None

    def run(self, call) -> None:
        """Run ``call``: compiled, centrally with the other members, by
        replaying the rows, or live (recording the rows on the first
        call of a replayable key)."""
        comm = call.comm
        if self.rows is None or comm._tape is not None:
            # unrecorded, or inside another call's recording on this
            # communicator, which a replay's rows would bypass
            self._live(comm, call)
            return
        shift = 0   # from the recorded tags to this call's
        if self.ntags:
            shift = comm.next_coll_tag() - self.tag0
            for _ in range(self.ntags - 1):
                comm.next_coll_tag()
        own = self.compiled
        if own and compiled.run(self, call, shift):
            return
        tag = self.tag0 + shift
        if self.central is not False and _meet(self, call, tag):
            return
        if own is None:
            # the key's members enlist, and the first to leave decides
            # whether it compiles
            rec = compiled.enlist(self, call, tag)
            self.replay(call, shift)
            if rec is not None and rec.program is None:
                compiled.decide(rec)
            return
        compiled.pass_by(comm, tag)
        self.replay(call, shift)

    def replay(self, call, shift: int, start: int = 0,
               bufs: Optional[list] = None) -> None:
        """This member's rows, by itself, their tags shifted by
        ``shift`` — from row ``start`` on, with every role's buffer in
        ``bufs``, when a compiled call goes back to per-rank replay
        part-way (its staging was taken and released as the compiled
        call began, so the rows' STAGE and UNSTAGE are not run again)."""
        comm = call.comm
        ctx = comm.ctx
        ep = comm.endpoint
        engine = ctx.engine
        cid = comm.ctx_id
        resumed = bufs is not None
        if resumed:
            arrs = [None if buf is None else as_array(buf) for buf in bufs]
        else:
            bufs = self.proto[:]
            arrs = self.proto[:]
            bufs[0] = call.sendbuf
            bufs[1] = call.recvbuf
            for k in self.local:    # roles 0 / 1 that local work reads
                arrs[k] = as_array(bufs[k])
        reqs = []
        try:
            for row in self.rows[start:] if start else self.rows:
                kind = row[0]
                if kind == SENDRECV:
                    _, sb, so, sc, dst, rb, ro, rc, src, st, rt, dt = row
                    if engine._revoked and engine.is_revoked(cid):
                        comm._raise_revoked()
                    ep.sendrecv(bufs[sb], so, sc, dst, bufs[rb], ro, rc, src,
                                st + shift, rt + shift, dt)
                elif kind == FOLD:
                    _, op, a, ao, b, bo, n, us = row
                    fold_into(ctx, op, arrs[a][ao:ao + n], arrs[b][bo:bo + n],
                              us)
                elif kind == BLOCKS:
                    _, d, drows, s, srows, n, us = row
                    permute_blocks(ctx, arrs[d], drows, arrs[s], srows, n, us)
                elif kind <= RECV:
                    _, b, o, n, peer, t, dt = row
                    if engine._revoked and engine.is_revoked(cid):
                        comm._raise_revoked()
                    if kind == SEND:
                        ep.send(bufs[b], o, n, peer, t + shift, dt)
                    else:
                        ep.recv(bufs[b], o, n, peer, t + shift, dt)
                elif kind == COPY:
                    _, d, do, s, so, n, us = row
                    copy_into(ctx, arrs[d][do:do + n], arrs[s][so:so + n], us)
                elif kind == STAGE:
                    _, k, ref, key = row
                    if not resumed:
                        bufs[k] = buf = staging(ctx, key, bufs[ref])
                        arrs[k] = as_array(buf)
                elif kind == UNSTAGE:
                    if not resumed:
                        _, k, key = row
                        unstage(ctx, key, bufs[k])
                        bufs[k] = None
                elif kind == WAIT:
                    waitall(reqs)
                    reqs = []
                else:   # ISEND / IRECV
                    _, b, o, n, peer, t, dt = row
                    if engine._revoked and engine.is_revoked(cid):
                        comm._raise_revoked()
                    reqs.append((ep.isend if kind == ISEND else ep.irecv)(
                        bufs[b], o, n, peer, t + shift, dt))
        except BaseException:
            if not resumed:
                unwind(ctx, self.stages, bufs)
            raise

    def _live(self, comm, call) -> None:
        outer = comm._tape is not None
        if outer or not self.replayable:
            if outer:
                abandon(comm)   # the outer recording would miss our rows
            elif comm.record.compiles:
                # a key that records nothing still takes its call record
                # at its first tag (compiled.pass_by), through a
                # recording it drops
                comm._tape = Recorder(call)
            try:
                self.live(call)
            finally:
                comm._tape = None
            return
        tape = comm._tape = Recorder(call)
        try:
            self.live(call)
        finally:
            kept = comm._tape is tape and not tape.pending
            comm._tape = None
        if not kept:
            self.replayable = False
            return
        proto: List[Any] = [None] * len(tape.roles)
        for k in tape.consts:
            proto[k] = tape.roles[k]
        self.proto = proto
        self.stages = tuple(tape.stages)
        # roles 0 / 1 that local work reads as arrays
        self.local = tuple(sorted({
            row[i] for row in tape.rows for i in _ARRAY_ROLES.get(row[0], ())
            if row[i] < 2}))
        self.tag0, self.ntags = tape.tag0, tape.ntags
        # every member of a key takes its tags: whether to meet, or to
        # compile, is one answer on every member (the shape and the
        # run's options decide here, the key's first replay the rest)
        engine = comm.ctx.engine
        uncontended = comm.record.uncontended
        self.central = None if tape.ntags and uncontended else False
        self.compiled = None if (
            tape.ntags and not uncontended and not engine.options["trace"]
            and engine.faults is None
            and all(row[0] < ISEND for row in tape.rows)) else False
        self.rows = tuple(tape.rows)


# -- central replay ------------------------------------------------------------

#: the instruction kinds of a central program's timing list: a message's
#: departure, its landing, and a local step's charge
DEPART, LAND, CHARGE = 11, 12, 13


def evaluation_order(size: int):
    """The order a central program starts its members in (communicator
    rank order).  On an eligible shape no clock depends on it."""
    return range(size)


class CentralSlot:
    """One call's rendezvous of the members of a communicator: they
    deposit their program and call, and the last to arrive runs them
    all.  ``drained``: the members run their own rows instead;
    ``for_good``: so do their keys' later calls."""

    __slots__ = ("parties", "arrived", "members", "waitq", "done",
                 "drained", "for_good", "error")

    def __init__(self, parties: int, waitq) -> None:
        self.parties = parties
        self.arrived = 0
        self.members: dict = {}
        self.waitq = waitq
        self.done = self.drained = self.for_good = False
        self.error: Optional[BaseException] = None

    def settled(self) -> bool:
        return self.done or self.drained

    def stall(self) -> str:
        return (f"central replay: {len(self.members)}/{self.parties} "
                f"members arrived")

    def drain(self, for_good: bool = False) -> None:
        """Send every member to its own rows, the waiting ones too —
        ``for_good``: in every later call of their keys as well."""
        if for_good:
            self.for_good = True
            for prog, _ in self.members.values():
                prog.central = False
        self.drained = True
        self.members.clear()
        self.waitq.notify_all()


def _meet(prog: RoundProgram, call, tag: int) -> bool:
    """Gather ``call`` with the other members' calls of one recorded key
    (the slot named by the call's first collective tag, which every
    member of one collective shares).  True: the last member to arrive
    ran every member's rows (:func:`_run_central`); False: the caller
    replays its own rows — the slot was drained, or this call cannot
    run centrally.  A key whose members disagree, or whose collective
    does not synchronise (a member gave way), replays per rank from
    then on: its next meeting would end the same way."""
    comm = call.comm
    ctx = comm.ctx
    engine = ctx.engine
    slots = comm.record.central_slots
    slot = slots.get(tag)
    if slot is None:
        slot = slots[tag] = CentralSlot(comm.size,
                                        CoopWaitq(engine.scheduler))
    slot.arrived += 1
    if slot.arrived == slot.parties:
        del slots[tag]
    if slot.drained:
        if slot.for_good:
            prog.central = False
        return False
    if ctx.lent or ctx.unlent_sends or (
            engine._revoked and engine.is_revoked(comm.ctx_id)):
        # a lent window the rows may overwrite, a wire this member's
        # rows share with a rendezvous its receiver has yet to book, or
        # a revocation the rows meet round by round
        slot.drain()
        return False
    slot.members[comm.rank] = (prog, call)
    if slot.arrived < slot.parties:
        if not slot.waitq.wait_for(slot.settled, slot.stall,
                                   gives_way=True):
            # every rank is parked: whoever it waits for needs this
            # member's messages first
            prog.central = False
            slot.drain(for_good=True)
        if slot.error is not None:
            raise slot.error
        return slot.done
    got = slot.members
    members = [got[r] for r in range(slot.parties)]
    central = _central_of(members)
    if not central:
        # members of another key, or a key that cannot run centrally
        slot.drain(for_good=True)
        return False
    try:
        _run_central(central, members)
    except BaseException as exc:  # noqa: BLE001 - re-raised on all
        slot.error = exc
        raise
    finally:
        slot.done = True
        slot.members.clear()
        slot.waitq.notify_all()
    engine.central_replays += 1
    return True


def _central_of(members):
    """The central program the members' programs share, assembled when
    they share none yet; None when the members disagree on the key, and
    False when the key cannot run centrally (then never again)."""
    central = members[0][0].central
    for prog, _ in members:
        if prog.central is not central or central is None:
            break
    else:
        return central
    key = members[0][1].key
    for _, call in members:
        if call.key != key:
            return None
    central = CentralProgram.assemble(members) or False
    for prog, _ in members:
        prog.central = central
    return central


class CentralProgram:
    """One key's rows of every member of a communicator, as a timing
    list and a data tape in an order the members' per-rank replays
    could have run them in.

    Assembled once, by the last member of the key's first central call
    (:meth:`assemble`): each message's receive is matched to its send
    by source and tag relative to the member's first tag (the
    mailbox's FIFO per pair, which no wildcard reaches), and priced by
    the endpoints' own pricing — the sender's send descriptor and
    staging charge, the receiver's eager-landing charge — just as each
    local step carries the charge its recording measured.

    ``clock`` is the timing list: every departure (its charges and its
    wire booking), landing (the merge of its arrival and its charges)
    and local step's charge, in that order; a landing also carries its
    exchange's lend rule (:func:`lend_rule`).  ``data`` is the same
    pass's payload steps — each message's send window read at its
    departure, its landing, every copy, block permutation and fold —
    which :func:`~repro.mpi.coll.dataplan.solve` turns into a data plan
    on the key's first call with storage.  ``stages`` is each member's
    staging, in its own order.  ``split`` says how each ``Sendrecv``'s
    lent view is counted: elided when its receiver landed it before the
    sender's call returned, forced otherwise."""

    __slots__ = ("clocks", "clock", "stages", "data", "nmsgs", "roles",
                 "split", "kinds", "plans")

    def __init__(self, clocks, clock, stages, data, nmsgs, roles, split,
                 kinds) -> None:
        #: per member, its rank's clock
        self.clocks = clocks
        self.clock = clock
        #: ``(member, rows)``: the STAGE / UNSTAGE rows of each member
        #: that stages
        self.stages = stages
        self.data = data
        self.nmsgs = nmsgs
        #: per member, the roles 0 / 1 the pass reads as arrays
        self.roles = roles
        #: ``(elided, forced, same, checks)``, summed from the lend rules:
        #: the counts no buffer can change; per buffer whose exchanges
        #: send and receive within it, ``(position in the call's stored
        #: buffers or None, staged index or None, elided and forced if
        #: it holds storage, elided and forced if not)``; and
        #: ``(consumed, member, rule)`` of each exchange between the
        #: call's two buffers, judged per call
        self.split = split
        #: ``(member, role) -> (dtype, staged index or None)`` of every
        #: role the data tape names
        self.kinds = kinds
        #: data plans by which of the call's buffers hold storage
        self.plans: dict = {}

    @classmethod
    def assemble(cls, members) -> Optional["CentralProgram"]:
        """The program of ``members`` (``(program, call)`` in
        communicator rank order), or None when a row is a rendezvous
        send, a count left open, a receive nothing feeds, or a step
        that converts a dtype."""
        size = len(members)
        group = members[0][1].comm.group
        dev = []        # per member: role -> device residency
        kinds: dict = {}
        for m, (prog, call) in enumerate(members):
            on = [False] * len(prog.proto)
            on[0] = isinstance(call.sendbuf, DeviceBuffer)
            on[1] = isinstance(call.recvbuf, DeviceBuffer)
            for row in prog.rows:
                if row[0] == STAGE:
                    on[row[1]] = row[3][0]
            for k, arr in enumerate(prog.proto):
                if arr is not None:
                    kinds[m, k] = (arr.dtype, None)
            dev.append(on)
        # staging: per member, in its own order (its own pool), each
        # buffer numbered in member-then-acquire order
        stages = []
        nstaged = 0
        for m, (prog, _) in enumerate(members):
            rows = tuple(row for row in prog.rows
                         if row[0] == STAGE or row[0] == UNSTAGE)
            for _, k, _, key in (row for row in rows if row[0] == STAGE):
                kinds[m, k] = (key[1], nstaged)
                nstaged += 1
            if rows:
                stages.append((m, rows))
        clock: list = []
        data = dataplan.Tape()
        checks: list = []
        same: dict = {}         # (member, role) -> split by its storage
        elided = forced = 0
        sent: list = []         # per message: (sender, count, nbytes, role, offset)
        landed = set()
        chans: dict = {}        # (src, dst, relative tag) -> its queued
                                # messages (no entry while none)
        blocked: dict = {}      # channel -> the member waiting on it
        pc = [0] * size
        half = [None] * size    # a sendrecv's message, between its legs
        pending: List[list] = [[] for _ in range(size)]   # IRECV rows
        runq = deque(evaluation_order(size))
        roles = [set() for _ in range(size)]

        def dtype_of(m, b):
            kind = kinds.get((m, b))
            if kind is None:
                call = members[m][1]
                kind = kinds[m, b] = (as_array(
                    call.sendbuf if b == 0 else call.recvbuf).dtype, None)
            return kind[0]

        def touch(m, b):
            if b < 2:
                roles[m].add(b)
            return dtype_of(m, b)

        def depart(m, b, o, n, dst, t, dt, window=None):
            """The send's message, posted."""
            prog, call = members[m]
            if n is None:
                raise _Ineligible
            ep = call.comm.endpoint
            cfg = ep.config
            device = dev[m][b]
            nbytes = n * dt.wire_itemsize
            res, alpha, beta, eager, _ = ep._path_for(
                dst, device and cfg.gpu_direct,
                window is not None and window[3] == dst)
            if nbytes > eager:
                raise _Ineligible
            k = len(sent)
            sent.append((m, n, nbytes, b, o))
            touch(m, b)
            clock.append((DEPART, m, k,
                          ep.stage_us(nbytes) if device and not cfg.gpu_direct
                          else None, cfg.send_overhead_us, res, alpha, beta,
                          nbytes))
            if n:   # an empty message moves nothing
                data.append((dataplan.READ, k, m, b, o, n))
            chan = (group[m], dst, t - prog.tag0)
            queue = chans.get(chan)
            if queue is None:
                chans[chan] = [k]
            else:
                queue.append(k)
            waiter = blocked.pop(chan, None)
            if waiter is not None:
                runq.append(waiter)
            return k

        def land(m, b, o, n, src, t, lent=-1):
            """The receive's message, landed, then the message ``lent``
            (a sendrecv's own, else -1) judged; None: not sent yet."""
            nonlocal elided, forced
            prog, call = members[m]
            chan = (src, group[m], t - prog.tag0)
            queue = chans.get(chan)
            if queue is None:
                blocked[chan] = m
                return None
            k = queue.pop(0)
            if not queue:
                del chans[chan]
            sender, count, nbytes, sb, _ = sent[k]
            if n is None or count > n or touch(m, b) != dtype_of(sender, sb):
                raise _Ineligible
            ep = call.comm.endpoint
            device = dev[m][b]
            landed.add(k)
            rule = None
            if lent >= 0:
                # where the sendrecv returns: its view was lent unless
                # it shares memory with this receive's window
                _, ln, _, lb, lo = sent[lent]
                consumed = lent in landed
                rule = lend_rule(lb, lo, ln, b, o, n)
                if rule is None:
                    elided += consumed
                    forced += not consumed
                elif len(rule) == 2:
                    split = same.setdefault((m, lb), [0, 0, 0, 0])
                    apart = consumed and not rule[1]
                    split[0] += apart
                    split[1] += not apart
                    split[3] += 1
                else:
                    checks.append((consumed, m, rule))
            clock.append((LAND, m, k, ep.eager_recv_us(nbytes),
                          ep.stage_us(nbytes) if device
                          and not ep.config.gpu_direct else None, rule))
            if count:
                data.append((dataplan.LAND, k, m, b, o, count))
            return k

        try:
            while runq:
                m = runq.popleft()
                rows = members[m][0].rows
                while pc[m] < len(rows):
                    row = rows[pc[m]]
                    kind = row[0]
                    if kind == SENDRECV:
                        _, sb, so, sc, dst, rb, ro, rc, src, st, rt, dt = row
                        if half[m] is None:
                            half[m] = depart(m, sb, so, sc, dst, st, dt,
                                             (rb, ro, rc, src))
                        if land(m, rb, ro, rc, src, rt, half[m]) is None:
                            break
                        half[m] = None
                    elif kind in (SEND, ISEND):
                        _, b, o, n, peer, t, dt = row
                        depart(m, b, o, n, peer, t, dt)
                    elif kind == RECV:
                        _, b, o, n, peer, t, dt = row
                        if land(m, b, o, n, peer, t) is None:
                            break
                    elif kind == IRECV:
                        pending[m].append(row)
                    elif kind == WAIT:
                        while pending[m]:
                            _, b, o, n, peer, t, dt = pending[m][0]
                            if land(m, b, o, n, peer, t) is None:
                                break
                            pending[m].pop(0)
                        if pending[m]:
                            break
                    elif kind == STAGE or kind == UNSTAGE:
                        pass    # staged apart (above)
                    else:   # a local step: its charge, and its payload
                        if kind == FOLD:
                            _, op, a, ao, b, bo, n, us = row
                            touch(m, a)
                            touch(m, b)
                            data.append((dataplan.FOLD, m, op, a, ao, b, bo,
                                         n))
                        else:
                            _, d, do, s, so, n, us = row
                            if touch(m, d) != touch(m, s) or kind == BLOCKS \
                                    and any(ix is not None and len(ix)
                                            and np.min(ix) < 0
                                            for ix in (do, so)):
                                raise _Ineligible
                            data.append((dataplan.COPY if kind == COPY
                                         else dataplan.BLOCKS, m, d, do, s, so,
                                         n))
                        if us is not None:
                            clock.append((CHARGE, m, us))
                    pc[m] += 1
        except _Ineligible:
            return None
        if not sent or any(pc[m] < len(members[m][0].rows)
                           for m in range(size)) or chans:
            # nothing to meet for, a receive nothing feeds, or a send
            # nobody takes
            return None
        roles = tuple(tuple(sorted(r)) for r in roles)
        at = {mr: i for i, mr in enumerate(
            (m, r) for m, touched in enumerate(roles) for r in touched)}
        return cls(tuple(call.comm.ctx.clock for _, call in members),
                   tuple(clock), tuple(stages), data, len(sent), roles,
                   (elided, forced, tuple(
                       (at.get(mr), kinds[mr][1], *split)
                       for mr, split in same.items()), tuple(checks)), kinds)


class _Ineligible(Exception):
    """A message a central program cannot carry."""


def lend_rule(sb: int, so: int, sc: int, rb: int, ro: int, rc: int):
    """How a ``Sendrecv`` from window ``(sb, so, sc)`` into window
    ``(rb, ro, rc)`` (roles, offsets, counts) judges whether its send
    view may be lent (:func:`~repro.mpi.p2p.lends`, which it equals):

    * None — always: an empty window shares no memory, nor do two
      distinct buffers when either is scratch;
    * ``(role, overlap)`` — two windows of one buffer share memory
      where they overlap, and everywhere when it holds no storage;
    * the six arguments — the call's two buffers, judged per call
      (:func:`lends_by`)."""
    if not (sc and rc) or sb != rb and (sb >= 2 or rb >= 2):
        return None
    if sb == rb:
        return sb, so < ro + rc and ro < so + sc
    return sb, so, sc, rb, ro, rc


def lends_by(rule, arrs) -> bool:
    """:func:`~repro.mpi.p2p.lends` of an exchange between the call's
    two buffers by its :func:`lend_rule`, ``arrs`` their arrays by
    role."""
    sb, so, sc, rb, ro, rc = rule
    sarr, rarr = arrs[sb], arrs[rb]
    return lends(sarr, sarr[so:so + sc], rarr, rarr[ro:ro + rc])


def _run_central(central: CentralProgram, members) -> None:
    """Run every member's rows of one call: clocks, wires, payloads,
    staging and counters exactly as the members' own replays would
    leave them (their tags were taken as they arrived).  The timing
    list's arithmetic is the clocks' ``advance`` / ``merge`` spelled
    inline, in the same order; the payloads are the data plan's, solved
    on the key's first call with storage (a storage-free call moves
    none)."""
    arrs = _arrays(central, [call for _, call in members])
    staged: List[Any] = []  # in member-then-acquire order
    for m, rows in central.stages:
        prog, call = members[m]
        _stage(call.comm.ctx, prog, call, rows, staged)
    book = members[0][1].comm.ctx.engine.wires.book
    clocks = central.clocks
    arrival = [0.0] * central.nmsgs
    for ins in central.clock:
        kind = ins[0]
        if kind == CHARGE:
            clocks[ins[1]]._now += ins[2]
        elif kind == DEPART:
            _, m, k, stage, ovh, res, alpha, beta, nbytes = ins
            clock = clocks[m]
            if stage is not None:
                clock._now += stage
            clock._now += ovh
            arrival[k] = book(res, clock._now, nbytes, beta, alpha)
        else:   # LAND
            _, m, k, charge, stage, _ = ins
            clock = clocks[m]
            if arrival[k] > clock._now:
                clock._now = arrival[k]
            clock._now += charge
            if stage is not None:
                clock._now += stage
    stored = [a[r].strides[0] != 0
              for a, touched in zip(arrs, central.roles) for r in touched]
    elided, forced, same, checks = central.split
    for at, si, e_stored, f_stored, e_free, f_free in same:
        if stored[at] if si is None else as_array(staged[si]).strides[0]:
            elided += e_stored
            forced += f_stored
        else:
            elided += e_free
            forced += f_free
    for consumed, m, rule in checks:
        if consumed and lends_by(rule, arrs[m]):
            elided += 1
        else:
            forced += 1
    stats = fastpath.STATS
    stats.copies_elided += elided
    stats.copies_forced += forced
    plan = _plan_of(central, stored, staged)
    if plan is not None:
        plan.apply(arrs, staged)


def _arrays(central: CentralProgram, calls) -> list:
    """Per member of ``calls``, the arrays of its call buffers the data
    tape names (by role: 0 the send buffer, 1 the receive buffer)."""
    arrs = []
    for call, touched in zip(calls, central.roles):
        a = [None, None]
        for r in touched:
            a[r] = as_array(call.recvbuf if r else call.sendbuf)
        arrs.append(a)
    return arrs


def _plan_of(central: CentralProgram, stored: list, staged):
    """The data plan of a call whose touched call buffers hold storage
    as ``stored`` says (``staged``: its staging buffers), solved on the
    first call with that storage; None when no call buffer holds any (a
    storage-free call moves nothing)."""
    if True not in stored:
        return None
    stored = stored + [(buf.array if type(buf) is DeviceBuffer
                        else as_array(buf)).strides[0] != 0 for buf in staged]
    key = tuple(stored)
    plan = central.plans.get(key)
    if plan is None:
        plan = central.plans[key] = dataplan.solve(
            central.data, central.kinds, central.roles, key)
    return plan


def _stage(ctx, prog, call, rows, staged: List[Any]) -> None:
    """Acquire and release one member's staging buffers by its STAGE /
    UNSTAGE ``rows``, appending each to ``staged`` as it is taken."""
    bufs = prog.proto[:]
    bufs[0] = call.sendbuf
    bufs[1] = call.recvbuf
    try:
        for row in rows:
            if row[0] == STAGE:
                _, k, ref, key = row
                bufs[k] = buf = staging(ctx, key, bufs[ref])
                staged.append(buf)
            else:
                _, k, key = row
                unstage(ctx, key, bufs[k])
                bufs[k] = None
    except BaseException:
        unwind(ctx, prog.stages, bufs)
        raise


# compiled replay builds on this module's programs (imported last: it
# imports them from here)
from repro.mpi.coll import compiled  # noqa: E402
