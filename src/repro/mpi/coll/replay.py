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

Every later call of the key runs :meth:`RoundProgram.run`'s one loop
over the rows.  It calls the same ``P2PEndpoint`` methods (looked up
on the endpoint, so whatever wraps the class sees every round) and the
same compute primitives, in the same order, after the same revocation
check per round — so mailbox matching, wire booking, leases, fault
filters, traces and counters see exactly what the live body would have
made them see, in the same run-token order on every topology.

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

from typing import Any, Callable, List, Optional

import numpy as np

from repro.hw.memory import as_array
from repro.mpi.compute import copy_into, fold_into, permute_blocks, staging, unstage
from repro.mpi.request import waitall

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


class RoundProgram:
    """One key's rounds on one communicator: recorded by the key's
    first call through ``live`` (the dispatcher's entry that runs the
    algorithm body), replayed by every later call.  ``replayable``
    False keeps every call live."""

    __slots__ = ("live", "replayable", "rows", "tag0", "ntags", "proto",
                 "stages", "local")

    def __init__(self, live: Callable, replayable: bool = True) -> None:
        self.live = live
        self.replayable = replayable
        self.rows: Optional[tuple] = None

    def run(self, call) -> None:
        """Run ``call``: replay the rows, or run it live (recording the
        rows on the first call of a replayable key)."""
        comm = call.comm
        if self.rows is None or comm._tape is not None:
            # unrecorded, or inside another call's recording on this
            # communicator, which a replay's rows would bypass
            self._live(comm, call)
            return
        ctx = comm.ctx
        ep = comm.endpoint
        engine = ctx.engine
        cid = comm.ctx_id
        shift = 0   # from the recorded tags to this call's
        if self.ntags:
            shift = comm.next_coll_tag() - self.tag0
            for _ in range(self.ntags - 1):
                comm.next_coll_tag()
        bufs = self.proto[:]
        arrs = self.proto[:]
        bufs[0] = call.sendbuf
        bufs[1] = call.recvbuf
        for k in self.local:    # roles 0 / 1 that local work reads
            arrs[k] = as_array(bufs[k])
        reqs = []
        try:
            for row in self.rows:
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
                    bufs[k] = buf = staging(ctx, key, bufs[ref])
                    arrs[k] = as_array(buf)
                elif kind == UNSTAGE:
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
            # what the body's ``finally`` blocks would have released
            for k, key in reversed(self.stages):
                if bufs[k] is not None:
                    unstage(ctx, key, bufs[k])
            raise

    def _live(self, comm, call) -> None:
        if not self.replayable or comm._tape is not None:
            if comm._tape is not None:
                abandon(comm)   # the outer recording would miss our rows
            self.live(call)
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
        self.rows = tuple(tape.rows)
