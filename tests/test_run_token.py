"""The run token is the only lock rank code needs (:mod:`repro.sim.sched`).

Three checks: the locks ``src/`` builds are exactly the allowlist the
scheduler's docstring names; no two threads are ever inside the entry
points whose locks the token made redundant, over a run that exercises
all of them; and the carrier threads' ``SCHED_BATCH`` hint stays on the
carriers and never reaches virtual time.
"""

import ast
import os
import re
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro import fastpath
from repro.core.online_tune import OnlineTuner
from repro.core.plan import BufferPool
from repro.core.runtime import world_communicator
from repro.errors import CommRevokedError
from repro.hw.systems import make_system
from repro.mpi import SUM
from repro.mpi.datatypes import FLOAT
from repro.sim import sched
from repro.sim.engine import CollectiveSlot, Engine
from repro.sim.faults import FaultPlan, with_faults
from repro.sim.mailbox import Mailbox, PayloadLease
from repro.sim.wire import WireTracker
from repro.xccl.api import xcclGroupEnd, xcclGroupStart, xcclRecv, xcclSend

SRC = Path(__file__).resolve().parents[1] / "src"

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}


def _lock_constructions():
    """``Class.attribute`` of every ``threading.Lock`` / ``RLock`` /
    ``Condition`` built under ``src/``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign) \
                        and isinstance(node.value, ast.Call) \
                        and isinstance(node.value.func, ast.Attribute) \
                        and node.value.func.attr in _LOCK_FACTORIES \
                        and isinstance(node.value.func.value, ast.Name) \
                        and node.value.func.value.id == "threading":
                    target, = node.targets
                    found.append(f"{cls.name}.{target.attr}")
    return found


def test_locks_are_the_documented_allowlist():
    """``grep 'threading.(Lock|RLock|Condition)('`` over ``src/`` and
    the list in the scheduler's docstring name the same locks."""
    allowlist = re.findall(r"^\* ``(\w+\.\w+)``", sched.__doc__, re.M)
    assert allowlist and len(allowlist) == len(set(allowlist))
    assert sorted(_lock_constructions()) == sorted(allowlist)
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in SRC.rglob("*.py"))
    # every construction is a ``self.x = threading.X(...)`` the walk saw
    assert len(re.findall(r"threading\.(?:Lock|RLock|Condition)\(", text)) \
        == len(allowlist)
    assert not re.search(r"allocate_lock|from threading import|import _thread",
                         text)


# -- no second thread inside a formerly locked entry point ------------------

#: the entry points whose ``threading.Lock`` the run token made redundant
FORMERLY_LOCKED = (
    (Mailbox, "post"), (Mailbox, "post_many"), (Mailbox, "match"),
    (Mailbox, "match_many"), (Mailbox, "try_match"),
    (CollectiveSlot, "exchange"), (CollectiveSlot, "consume_barrier"),
    (WireTracker, "book"), (WireTracker, "book_many"),
    (PayloadLease, "consume"), (PayloadLease, "materialize"),
    (BufferPool, "acquire"), (BufferPool, "release"),
    (Engine, "collective_slot"),
    (OnlineTuner, "advise"), (OnlineTuner, "observe"),
)


class _OneAtATime:
    """Class-level wrappers that note every entry, hand the GIL to any
    other thread that could run (``time.sleep(0)``), and record an
    overlap when a thread enters while another is inside.  A fiber that
    parks or yields inside an entry point is not inside it while it is
    descheduled: it is inside again once it holds the token."""

    def __init__(self, monkeypatch):
        self.inside = Counter()           # thread ident -> depth
        self.calls = Counter()
        self.overlaps = []
        for cls, name in FORMERLY_LOCKED:
            monkeypatch.setattr(cls, name,
                                self._wrap(f"{cls.__name__}.{name}",
                                           getattr(cls, name)))
        for name in ("park", "yield_now"):
            monkeypatch.setattr(sched.CoopScheduler, name, self._descheduled(
                getattr(sched.CoopScheduler, name)))

    def _descheduled(self, fn):
        guard = self

        def away(*args, **kwargs):
            me = threading.get_ident()
            depth, guard.inside[me] = guard.inside[me], 0
            try:
                return fn(*args, **kwargs)
            finally:
                guard.inside[me] = depth
        return away

    def _wrap(self, label, fn):
        guard = self

        def entered(*args, **kwargs):
            me = threading.get_ident()
            if any(depth for ident, depth in guard.inside.items()
                   if ident != me):
                guard.overlaps.append(label)
            guard.inside[me] += 1
            guard.calls[label] += 1
            try:
                time.sleep(0)
                return fn(*args, **kwargs)
            finally:
                guard.inside[me] -= 1
        return entered


NRANKS, DEAD, KILL_AT_US = 16, 11, 3000.0


def _everything(ctx):
    """p2p (eager and rendezvous, blocking and polled), built-ins on
    both routes, a fused group exchange and an unhinted CCL group,
    then an allreduce loop the kill interrupts and a shrunk
    communicator that finishes a fixed schedule."""
    comm = world_communicator(ctx)
    rank, size = comm.Get_rank(), comm.Get_size()
    for n in (64, 1 << 18):
        send = ctx.device.empty(n)
        send.fill(float(rank))
        recv = ctx.device.zeros(n)
        comm.Sendrecv(send, (rank + 1) % size, recv, (rank - 1) % size)
        peer = rank ^ 1
        for sending in ((True, False) if rank % 2 else (False, True)):
            if sending:
                comm.Send(send, peer, tag=1)
            else:
                comm.Recv(recv, source=peer, tag=1)
    for n in (64, 1 << 20):
        buf = ctx.device.empty(n)
        buf.fill(float(rank))
        comm.Allreduce(buf, ctx.device.zeros(n), op=SUM)
        req = comm.Irecv(recv, source=peer, tag=2)
        sent = comm.Isend(send, peer, tag=2)
        while not req.test()[0]:
            pass
        sent.wait()
    n = 1 << 14
    comm.Alltoall(ctx.device.zeros(n * size), ctx.device.zeros(n * size))
    # no exchange hint: the bulk transport's post_many / match_many
    xc = comm.coll.layer.ccl_comm(comm)
    xcclGroupStart()
    xcclSend(send, 64, FLOAT, (rank + 1) % size, xc)
    xcclRecv(recv, 64, FLOAT, (rank - 1) % size, xc)
    xcclGroupEnd()
    buf = ctx.device.zeros(4096)
    out = ctx.device.zeros(4096)
    try:
        for i in range(60):
            buf.fill(float(rank + i))
            comm.Allreduce(buf, out, op=SUM)
    except CommRevokedError:
        _flag, failed = comm.Comm_agree()
        newcomm = comm.Comm_shrink()
        for i in range(12):
            buf.fill(float(newcomm.Get_rank() + i))
            newcomm.Allreduce(buf, out, op=SUM)
        return float(out.array[0]), tuple(failed)
    return None


def _elastic_engine():
    engine = Engine(make_system("thetagpu", 2), nranks=NRANKS,
                    online_tune=True)
    # the kill rides on the rank's clock: the zero-copy path (payload
    # leases) stays engaged
    with_faults(engine, FaultPlan().kill(DEAD, after_us=KILL_AT_US))
    return engine


def test_no_two_threads_inside_a_formerly_locked_entry_point(monkeypatch):
    guard = _OneAtATime(monkeypatch)
    try:
        results = _elastic_engine().run(_everything)
    finally:    # an overlap is the primary failure: report it first
        assert guard.overlaps == []
    assert results[DEAD] is None
    survivors = [r for i, r in enumerate(results) if i != DEAD]
    assert len(set(survivors)) == 1 and survivors[0][1] == (DEAD,)
    assert sorted(guard.calls) == sorted(f"{cls.__name__}.{name}"
                                         for cls, name in FORMERLY_LOCKED)
    counters = fastpath.STATS.snapshot()
    assert counters["comm_shrinks"] == 1 and counters["online_updates"] > 0


# -- SCHED_BATCH: carriers only, wall clock only ---------------------------

def _policy_and_clock(ctx):
    comm = world_communicator(ctx)
    buf = ctx.device.zeros(1024)
    for _ in range(3):
        comm.Allreduce(ctx.device.zeros(1024), buf, op=SUM)
        comm.Barrier()
    policy = (os.sched_getscheduler(0)
              if hasattr(os, "sched_getscheduler") else None)
    return policy, ctx.now


def _run_policy_probe():
    return Engine(make_system("thetagpu", 1), nranks=8).run(_policy_and_clock)


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"),
                    reason="no SCHED_BATCH on this platform")
def test_carriers_run_sched_batch_and_the_caller_keeps_its_policy():
    before = os.sched_getscheduler(0)
    policies = {policy for policy, _now in _run_policy_probe()}
    assert policies == {os.SCHED_BATCH}
    assert os.sched_getscheduler(0) == before


def test_a_refused_policy_changes_no_clock(monkeypatch):
    clocks = [now for _policy, now in _run_policy_probe()]

    def refuse(*_args):
        raise PermissionError("sched_setscheduler refused")

    monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
    refused = _run_policy_probe()
    assert [now for _policy, now in refused] == clocks
    # the refusal took: the carriers kept the policy they inherited
    inherited = (os.sched_getscheduler(0)
                 if hasattr(os, "sched_getscheduler") else None)
    assert {policy for policy, _now in refused} == {inherited}
