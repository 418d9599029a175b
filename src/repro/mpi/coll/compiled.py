"""Compiled replay: a contended hot key's members run their own priced
steps, and its payloads move once.

On a contended communicator (several nodes, two ranks on one device, a
PCIe bus) a wire is booked in the order the fibers reach it, so a
central pass (:mod:`repro.mpi.coll.replay`) would book shared NIC and
bus wires in another order than the run token does.  Here each member
keeps the run token's order but not the per-message plumbing: on a
key's second call the members enlist in its :class:`CallRecord` and the
first to leave decides whether the key compiles (:func:`decide`); from
the third call each member runs its :class:`CompiledSlice`
(:func:`run`) and the last to arrive moves every member's payloads
by the key's data plan.  A member's place in its steps is a cursor in
the call's record (:func:`_advance`), so while it waits the thread
holding the run token may run its next steps for it, and its own
thread is handed the token once per call, at the end of its slice —
or where it must raise or fall back.  A call whose members disagree
— one of them runs another key there — replays per rank: on a
communicator where a key compiled, every call leaves its record
(:func:`pass_by`), and members of a compiled call that one of them
meets go back to the per-rank replay part-way (:func:`_fall_back`).  The module docstring
of :mod:`repro.mpi.coll.replay` says when, and what stays per rank.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Any, List, Optional

from repro import fastpath
from repro.errors import DeadlockError, InvalidBufferError, SimulationError
from repro.hw.memory import NO_CONTENTS, as_array, snapshot
from repro.mpi.coll.replay import (BLOCKS, COPY, DEPART, FOLD, LAND, RECV,
                                   SEND, SENDRECV, STAGE, UNSTAGE,
                                   CentralProgram, RoundProgram, _arrays,
                                   _plan_of, _stage, agree, lends_by)
from repro.mpi.compute import copy_into, fold_into, permute_blocks
from repro.sim.sched import CoopWaitq


class CallRecord:
    """One collective call of a communicator's members, shared by them:
    the record of the call (its first collective tag) on
    ``comm.record.call_records`` until its last member arrives.

    On a key's first replay the members enlist their ``(program,
    call)`` in :attr:`members` and the first to leave decides
    (:func:`decide`): :attr:`program` is then the key's
    :class:`CentralProgram`, or False.  A call run per rank leaves a
    record whose :attr:`program` is False.  On a compiled call
    :attr:`program` is that program from the start, and the members
    leave their calls (:attr:`members`), round programs
    (:attr:`progs`), staging buffers and messages here:
    :attr:`arrival` is each message's arrival time once it departed
    (None before), :attr:`landed` whether its receiver has landed it,
    :attr:`pos` and :attr:`at` each member's cursor — the step it is at
    and the message that step's landing waits for (None while the step
    has not begun) — and :attr:`resume` where each member goes on per
    rank once the call fell back (None until then)."""

    __slots__ = ("parties", "tag", "arrived", "program", "members",
                 "progs", "staged", "arrival", "landed", "error", "pos",
                 "at", "resume")

    def __init__(self, parties: int, tag: int, program=None) -> None:
        self.parties = parties
        self.tag = tag
        self.arrived = 0
        self.program = program
        self.error: Optional[BaseException] = None
        if program is None:     # the key's first replay
            self.members: Any = {}
            self.arrival = None
        elif program is False:  # a call run per rank
            self.arrival = None
        else:
            self.members = [None] * parties
            self.progs: List[Any] = [None] * parties
            self.staged: List[Any] = [()] * parties
            self.arrival: Any = [None] * program.nmsgs
            self.landed = [False] * program.nmsgs
            self.pos = [0] * parties
            self.at: List[Optional[int]] = [None] * parties
            self.resume: Optional[dict] = None


def enlist(prog: RoundProgram, call, tag: int) -> Optional[CallRecord]:
    """Enlist ``call`` in the record of the key's first replay (None: it
    is not taken — the communicator is revoked, so the call fails at its
    first round, a member left before this one came, or members of
    another key run this call, so the members disagree and this key
    will not compile)."""
    comm = call.comm
    engine = comm.ctx.engine
    if engine._revoked and engine.is_revoked(comm.ctx_id):
        return None
    calls = comm.record.call_records
    rec = calls.get(tag)
    if rec is None:
        rec = calls[tag] = CallRecord(comm.size, tag)
    elif rec.arrival is not None and rec.resume is None:
        _fall_back(rec)     # members of a compiled key run this call
    rec.arrived += 1
    if rec.arrived == rec.parties:
        del calls[tag]
    if rec.program is not None:
        prog.compiled = False
        return None
    rec.members[comm.rank] = (prog, call)
    return rec


def pass_by(comm, tag: int) -> None:
    """Count a call this member runs per rank, or live, in the record of
    the call (its first collective tag ``tag``): members of a compiled
    call there fall back first (:func:`_fall_back`).  Where there is
    none yet and a key compiled on the communicator, leave one, so that
    members of a compiled key who come later replay per rank too."""
    record = comm.record
    calls = record.call_records
    rec = calls.get(tag)
    if rec is None:
        engine = comm.ctx.engine
        if not record.compiles or engine._revoked \
                and engine.is_revoked(comm.ctx_id):
            return
        rec = calls[tag] = CallRecord(comm.size, tag, False)
    elif rec.arrival is not None and rec.resume is None:
        _fall_back(rec)
    rec.arrived += 1
    if rec.arrived == rec.parties:
        del calls[tag]


def decide(rec: CallRecord) -> None:
    """Whether the enlisted key compiles, decided by the first member to
    leave its first replay — before any other member can, so the answer
    is one on every member.  It does when every member enlisted with
    one key (:func:`~repro.mpi.coll.replay.agree`), the rows make a :class:`CentralProgram` and that program
    synchronises: every member's last landing depends on every member's
    first departure.  Then each member keeps its own slice beside its
    rows; else every member replays its rows from then on."""
    members = rec.members
    program = False
    if len(members) == rec.parties:
        ordered = [members[r] for r in range(rec.parties)]
        if agree([call for _, call in ordered]):
            central = CentralProgram.assemble(ordered)
            if central is not None \
                    and _synchronizes(central.clock, rec.parties):
                program = central
    rec.program = program
    if program is False:
        for prog, _ in members.values():
            prog.compiled = False
    else:
        ordered[0][1].comm.record.compiles = True
        for (prog, call), own in zip(ordered, _slices(program, ordered)):
            prog.compiled = own
        # what only a central pass reads, and a data tape no call buffer
        # is named in (nothing to move)
        program.clocks = program.split = program.stages = ()
        if not any(program.roles):
            program.data = ()
    members.clear()


#: the row kinds a compiled member holds once when members recorded
#: them alike (no peer, no array)
_ALIKE = frozenset((SENDRECV, FOLD, COPY, STAGE, UNSTAGE))


def _whole(prog: RoundProgram) -> tuple:
    """A compiled member's rows with its exchanges' peers back in place
    (:func:`_slices` holds them without), for a call of its key that
    runs per rank."""
    own = prog.compiled
    if own.bare:
        exchanges = (step for step in own.steps
                     if type(step) is tuple and step[0] == SENDRECV)
        rows = []
        for row in prog.rows:
            if row[0] == SENDRECV:
                step = next(exchanges)
                row = row[:4] + (step[8].rank,) + row[5:8] + (step[12],) \
                    + row[9:]
            rows.append(row)
        prog.rows = tuple(rows)
        own.bare = False
    return prog.rows


def _synchronizes(clock, size: int) -> bool:
    """Whether, in the timing list ``clock``, every member's last landing
    follows every member's first departure (through program order and
    messages)."""
    full = (1 << size) - 1
    know = [0] * size       # per member: whose first departure it follows
    carried: dict = {}      # message -> what its sender knew
    last = [0] * size
    for ins in clock:
        kind, m = ins[0], ins[1]
        if kind == DEPART:
            know[m] |= 1 << m
            carried[ins[2]] = know[m]
        elif kind == LAND:
            last[m] = know[m] = know[m] | carried.pop(ins[2])
    return all(mask == full for mask in last)


class CompiledSlice:
    """One member's part of a compiled key: its steps — each exchange,
    send, receive and local charge of its rows, priced — and its
    staging rows.  A step names messages by their index in the key's
    :class:`CentralProgram`.

    * ``(SENDRECV, out, stage, overhead, resources, alpha, bytes, beta,
      receiver's mailbox, in, landing charge, landing stage, source,
      receive tag, lend rule)``;
    * ``(SEND, out, stage, overhead, resources, alpha, bytes, beta,
      receiver's mailbox)``;
    * ``(RECV, in, landing charge, landing stage, source, tag)``;
    * a local step's charge: the float itself.

    A lend rule is the exchange's :func:`~repro.mpi.coll.replay.lend_rule`
    as the program's landing carries it.  ``stored`` lists the roles
    the rules read storage of, ``judged`` whether a rule judges the
    call's two buffers, ``slots`` each staging role's place in the
    member's staging; ``bare`` says the member's rows lack their
    exchanges' peers (:func:`_slices`)."""

    __slots__ = ("program", "steps", "stages", "stored", "judged", "slots",
                 "bare")

    def __init__(self, program, steps, stages, stored, judged,
                 slots) -> None:
        self.program = program
        self.steps = steps
        self.stages = stages
        self.stored = stored
        self.judged = judged
        self.slots = slots
        self.bare = True


def _slices(central: CentralProgram, members) -> List[CompiledSlice]:
    """Each member's :class:`CompiledSlice`: its rows, walked beside its
    own instructions of the timing list (which come in row order).  The
    program gives its timing list up: each member's instructions are
    freed once its slice is built.  The member keeps its rows for a call
    of its key that runs per rank (its members disagree), lean: an
    exchange's row without its peers, which its step carries
    (:func:`_whole` puts them back), and what members hold alike — a
    row, or all of them — as one tuple."""
    timing: List[Any] = [[] for _ in members]
    for ins in central.clock:
        timing[ins[1]].append(ins)
    central.clock = ()
    floats: dict = {}   # one object per distinct charge
    alike: dict = {}    # one object per distinct row held
    out = []
    for m, (prog, call) in enumerate(members):
        ctx = call.comm.ctx
        ins = iter(timing[m])
        timing[m] = None
        steps = []
        stored = set()
        judged = False
        stages = []
        slots = {}
        held = []
        for row in prog.rows:
            kind = row[0]
            kept = row
            if kind in _ALIKE:
                if kind == SENDRECV:
                    _, sb, so, sc, _, rb, ro, rc, _, st, rt, dt = row
                    kept = kind, sb, so, sc, None, rb, ro, rc, None, st, rt, dt
                kept = alike.setdefault(kept, kept)
            held.append(kept)
            if kind == SENDRECV or kind == SEND:
                _, _, k, stage, ovh, res, alpha, beta, nbytes = next(ins)
                send = (k, stage, ovh, res, alpha, nbytes, beta,
                        ctx.mailbox_of(row[4]))
                if kind == SEND:
                    steps.append((SEND,) + send)
                    continue
                _, _, j, charge, rstage, rule = next(ins)
                charge = floats.setdefault(charge, charge)
                if rule is not None:
                    if len(rule) == 2:
                        stored.add(rule[0])
                    else:
                        judged = True
                steps.append((SENDRECV,) + send
                             + (j, charge, rstage, row[8], row[10], rule))
            elif kind == RECV:
                _, _, j, charge, rstage, _ = next(ins)
                steps.append((RECV, j, floats.setdefault(charge, charge),
                              rstage, row[4], row[5]))
            elif kind == STAGE or kind == UNSTAGE:
                if kind == STAGE:
                    slots[row[1]] = len(slots)
                stages.append(kept)
            elif row[-1] is not None:   # a local step's charge
                us = next(ins)[2]
                steps.append(floats.setdefault(us, us))
        held = tuple(held)
        # a block permutation's rows hold arrays, which do not hash
        prog.rows = held if any(row[0] == BLOCKS for row in held) \
            else alike.setdefault(held, held)
        out.append(CompiledSlice(central, tuple(steps), tuple(stages),
                                 tuple(sorted(stored)), judged, slots))
    return out


def run(prog: RoundProgram, call, shift: int) -> bool:
    """Run ``call`` of a compiled key: this member's clock, step by step
    in its own order under the run token, its messages arrival times in
    the call's :class:`CallRecord` — no message, lease or status is
    built.  Where the member is in its steps is a cursor in that record
    (:func:`_advance`): while the member is parked, the thread holding
    the run token may run its next steps, and this thread goes on from
    wherever they left the cursor.  The last member to arrive moves
    every member's payloads by the key's data plan; with a
    synchronising key nobody has left by then.  False: members of
    another key run this call (the members disagree), so the caller
    runs it per rank."""
    own = prog.compiled
    program = own.program
    comm = call.comm
    ctx = comm.ctx
    engine = ctx.engine
    if engine._revoked and engine.is_revoked(comm.ctx_id):
        # the local steps before its first round, then that round's check
        clock = ctx.clock
        for step in own.steps:
            if type(step) is not float:
                break
            clock._now += step
        comm._raise_revoked()
    tag = prog.tag0 + shift
    calls = comm.record.call_records
    rec = calls.get(tag)
    if rec is None:
        rec = calls[tag] = CallRecord(comm.size, tag, program)
    elif rec.program is not program or rec.resume is not None:
        if rec.arrival is not None and rec.resume is None:
            _fall_back(rec)     # another compiled key's members are here
        _whole(prog)
        return False
    rec.arrived += 1
    m = comm.rank
    staged: Any = ()
    if own.stages:
        staged = []
        _stage(ctx, prog, call, own.stages, staged)
        rec.staged[m] = staged
    rec.members[m] = call
    rec.progs[m] = prog
    if rec.arrived == rec.parties:
        del calls[tag]
        _compiled_payloads(program, rec)
        engine.compiled_replays += 1
    arrs: Any = None
    if own.judged:
        arrs = (as_array(call.sendbuf), as_array(call.recvbuf))
    stored = None
    if own.stored:
        stored = {}
        for r in own.stored:
            arr = (as_array(call.recvbuf if r else call.sendbuf) if r < 2
                   else as_array(staged[own.slots[r]]))
            stored[r] = arr.strides[0] != 0
    steps = own.steps
    steal = partial(_advance, rec, m, steps, comm, stored, arrs)
    pos = rec.pos
    while True:
        if steal() is None:
            if pos[m] == len(steps):
                return True
            if rec.at[m] is None:   # a revocation stopped it before a step
                comm._raise_revoked()
        # parked at a landing; a doomed peer's raises there
        if not _await(rec, m, steps, comm, shift, steal):
            _resume(prog, call, shift, rec.resume[m])
            return True
        if pos[m] == len(steps):    # the token's holders ran the rest
            return True


def _advance(rec: CallRecord, m: int, steps: tuple, comm, stored,
             arrs) -> Optional[CoopWaitq]:
    """Run member ``m``'s steps of a compiled call from its cursor in the
    call's record — ``rec.pos[m]``, the step it is at, and ``rec.at[m]``,
    the message that step's landing waits for (None: the step has not
    begun).  Its own thread runs them (:func:`run`); while it is parked
    and woken, so may the thread holding the run token, at the very
    point of the run token's order where its own thread would (this
    function is its :meth:`~repro.sim.sched.CoopWaitq.wait_for` steal
    hook).

    Returns the member's mailbox wait queue where it stops at a landing
    whose message has not departed.  None where its own thread must go
    on: at the end of its slice, before a step its communicator's
    revocation stops (``rec.at[m]`` None), at a landing whose peer is
    doomed, or once the call failed or fell back — all of which raise or
    change course on the member's own thread, with the texts its own
    wait gives."""
    if rec.error is not None or rec.resume is not None:
        return None
    ctx = comm.ctx
    engine = ctx.engine
    clock = ctx.clock
    arrival = rec.arrival
    landed = rec.landed
    book = engine.wires.book
    n = len(steps)
    pos = rec.pos[m]
    j = rec.at[m]
    elided = forced = 0
    try:
        while pos < n:
            step = steps[pos]
            if type(step) is float:
                clock._now += step
                pos += 1
                continue
            kind = step[0]
            if j is None:
                if engine._revoked and engine.is_revoked(comm.ctx_id):
                    return None
                if kind == RECV:
                    j = step[1]
                else:
                    k, stage, ovh, res, alpha, nbytes, beta, box = step[1:9]
                    if stage is not None:
                        clock._now += stage
                    clock._now += ovh
                    arrival[k] = book(res, clock._now, nbytes, beta, alpha)
                    waitq = box._waitq
                    if waitq._parked:   # where ``Mailbox.post`` wakes it
                        waitq.notify_all()
                    if kind == SEND:
                        pos += 1
                        continue
                    j = step[9]
            t = arrival[j]
            if t is None:
                if (engine.dead_ranks or engine._revoked) \
                        and comm.endpoint._doomed(_source(step)) is not None:
                    return None
                return ctx.mailbox._waitq
            if kind == RECV:
                charge, rstage = step[2], step[3]
            else:
                charge, rstage = step[10], step[11]
            if t > clock._now:
                clock._now = t
            clock._now += charge
            if rstage is not None:
                clock._now += rstage
            landed[j] = True
            j = None
            pos += 1
            if kind == RECV:
                continue
            rule = step[14]
            if not landed[step[1]]:
                forced += 1
            elif rule is None or (stored[rule[0]] and not rule[1]
                                  if len(rule) == 2 else lends_by(rule, arrs)):
                elided += 1
            else:
                forced += 1
        return None
    finally:
        rec.pos[m] = pos
        rec.at[m] = j
        if elided or forced:
            stats = fastpath.STATS
            stats.copies_elided += elided
            stats.copies_forced += forced


def _source(step: tuple) -> int:
    """The source of a receive or exchange step's landing."""
    return step[4] if step[0] == RECV else step[12]


def _await(rec: CallRecord, m: int, steps: tuple, comm, shift: int,
           steal) -> bool:
    """Park member ``m`` until the message its cursor's landing waits for
    departs — on its own mailbox wait queue, with ``Mailbox.match``'s
    stall text and abort probe, so a revocation or a dead peer raises as
    a receive would; or until the call's payloads failed, which raises
    here.  While it is parked the thread holding the run token may run
    its next steps (``steal``, :func:`_advance`), so the probe and the
    text read the cursor wherever those left it.  False: a member of
    another key came, and the call went back to per-rank replay
    (:func:`_fall_back`), the caller with it."""
    arrival = rec.arrival
    at = rec.at
    pos = rec.pos
    engine = comm.ctx.engine
    rank = comm.ctx.rank
    doomed = comm.endpoint._doomed

    def stall() -> str:
        step = steps[pos[m]]
        tag = (step[5] if step[0] == RECV else step[13]) + shift
        return f"rank {rank} blocked in recv(src={_source(step)}, tag={tag})"

    def ready() -> bool:
        j = at[m]
        if j is None or arrival[j] is not None or rec.error is not None \
                or rec.resume is not None:
            return True
        if engine.dead_ranks or engine._revoked:
            reason = doomed(_source(steps[pos[m]]))
            if reason is not None:
                raise DeadlockError(f"{stall()}: {reason}")
        return False

    comm.ctx.mailbox._waitq.wait_for(ready, stall, steal=steal)
    if rec.error is not None:
        raise rec.error
    return rec.resume is None


def _compiled_payloads(program: CentralProgram, rec: CallRecord) -> None:
    """Move every member's payloads of one compiled call by the key's
    data plan (the last member to arrive does, before anyone can
    leave).  A window a member's pending send lends is copied out before
    the plan writes it, as a receive landing there would; an error is
    every member's."""
    calls = rec.members
    staged = [buf for own in rec.staged for buf in own]
    try:
        arrs = _arrays(program, calls)
        plan = _plan_of(program, [a[r].strides[0] != 0 for a, touched
                                  in zip(arrs, program.roles)
                                  for r in touched], staged)
        if plan is not None:
            if plan.error:
                raise InvalidBufferError(NO_CONTENTS)
            for m, r, groups in plan.writes:
                ep = calls[m].comm.endpoint
                if ep._lent:
                    d = arrs[m][r]
                    for lo, hi, _ in groups:
                        ep._copy_lent(d[lo:hi])
            plan.apply(arrs, staged)
    except BaseException as exc:  # noqa: BLE001 - raised on every member
        rec.error = exc
        for call in calls:
            call.comm.ctx.mailbox._waitq.notify_all()
        raise
    finally:
        rec.members = rec.progs = rec.staged = None


def _fall_back(rec: CallRecord) -> None:
    """Take a compiled call whose members disagree back to per-rank
    replay, part-way, before the member that found out does anything.

    Every member that came waits in :func:`_await` (a synchronising
    call cannot end while a member runs another key), so the per-rank
    replay's state at each wait is rebuilt: each member's buffers as its
    rows would have left them — its local work and landings, in its own
    order, each landing the snapshot its sender's rows would have sent —
    then every message that departed and has not landed is posted to its
    receiver's mailbox, booked as it was, and :attr:`CallRecord.resume`
    says where each member goes on.  The record stays until every member
    has come, each later one running the call per rank."""
    calls, progs = rec.members, rec.progs
    came = [m for m, call in enumerate(calls) if call is not None]
    sent: dict = {}     # message -> (sender, payload, receiver, tag, nbytes)
    waiting: dict = {}  # message -> the member waiting for it
    state = {}          # member -> [row, step, send half done, bufs, arrs]
    for m in came:
        prog, call = progs[m], calls[m]
        bufs = prog.proto[:]
        bufs[0] = call.sendbuf
        bufs[1] = call.recvbuf
        staged = iter(rec.staged[m])
        for row in _whole(prog):  # the staging the call took as it began
            if row[0] == STAGE:
                bufs[row[1]] = next(staged)
        state[m] = [0, 0, False, bufs,
                    [None if buf is None else as_array(buf) for buf in bufs]]
    resume: dict = {}
    runq = deque(came)
    while runq:
        m = runq.popleft()
        st = state[m]
        pc, si, half, bufs, arrs = st
        prog, call = progs[m], calls[m]
        ctx = call.comm.ctx
        ep = call.comm.endpoint
        steps = prog.compiled.steps
        shift = rec.tag - prog.tag0
        stop = rec.at[m]
        while m not in resume:
            row = prog.rows[pc]
            kind = row[0]
            if kind == SENDRECV or kind == SEND or kind == RECV:
                step = steps[si]
                if kind == RECV:
                    j = step[1]
                    _, b, o, n, _, _, _ = row
                else:
                    if kind == SEND:
                        _, sb, so, sc, dst, st_, dt = row
                    else:
                        _, sb, so, sc, dst, b, o, n, _, st_, _, dt = row
                    if not half:
                        view = arrs[sb][so:so + sc]
                        sent[step[1]] = (m, snapshot(view), dst, st_ + shift,
                                         view.size * dt.wire_itemsize)
                        if step[1] in waiting:
                            runq.append(waiting.pop(step[1]))
                        if kind == SEND:
                            pc += 1
                            si += 1
                            continue
                        half = True
                    j = step[9]
                if j == stop:
                    resume[m] = (pc, half, bufs)
                elif j not in sent:
                    waiting[j] = m
                    st[:3] = pc, si, half
                    break
                else:
                    data = sent[j][1]
                    target = arrs[b][o:o + n][:data.size]
                    if ep._lent and target.strides[0]:
                        ep._copy_lent(target)
                    if target.strides[0]:
                        if not data.strides[0] and data.size:
                            raise InvalidBufferError(NO_CONTENTS)
                        target[...] = data
                    half = False
                    pc += 1
                    si += 1
                continue
            if kind == COPY:
                _, d, do, s, so, n, us = row
                copy_into(ctx, arrs[d][do:do + n], arrs[s][so:so + n], None)
            elif kind == FOLD:
                _, op, a, ao, b, bo, n, us = row
                fold_into(ctx, op, arrs[a][ao:ao + n], arrs[b][bo:bo + n],
                          None)
            elif kind == BLOCKS:
                _, d, drows, s, srows, n, us = row
                permute_blocks(ctx, arrs[d], drows, arrs[s], srows, n, None)
            if kind != STAGE and kind != UNSTAGE and row[-1] is not None:
                si += 1     # a local step's charge
            pc += 1
    if len(resume) != len(came):
        raise SimulationError("compiled replay: a member's wait has no "
                              "place in its rows")
    for k in sorted(sent):
        if not rec.landed[k]:
            m, payload, dst, tag, nbytes = sent[k]
            calls[m].comm.endpoint.post_booked(
                payload, dst, tag, nbytes, rec.arrival[k])
    rec.resume = resume


def _resume(prog: RoundProgram, call, shift: int, resume) -> None:
    """Go on with ``call`` per rank from where it waited in a compiled
    call that fell back (:func:`_fall_back`): the rest of its exchange
    (its send left already), then the rest of its rows."""
    pc, half, bufs = resume
    if half:
        _, _, _, _, _, rb, ro, rc, src, _, rt, dt = prog.rows[pc]
        call.comm.endpoint.recv(bufs[rb], ro, rc, src, rt + shift, dt)
        pc += 1
    prog.replay(call, shift, pc, bufs)
