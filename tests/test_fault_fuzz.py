"""Fault plans drawn, not hand-picked: a faulted run is the fault-free
program plus the faults its plan names.

One fixed program on a 4-rank ThetaGPU engine — eager and rendezvous
``Sendrecv``, an ``Allreduce`` on each route, a hinted ``Alltoall`` and
a rooted ``Gather`` — runs under 0-3 drawn drop / delay rules and at
most one kill.  Whatever the plan, the run returns or fails with the
errors a fault may cause; a plan that touched nothing changes nothing;
and no device memory outlives the engine.
"""

import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.core.runtime import world_communicator
from repro.errors import (CommRevokedError, DeadlockError, RankFailedError,
                          RankKilledError)
from repro.hw.systems import make_system
from repro.mpi import SUM
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults

NRANKS = 4
#: the primary errors a fault may cause
FAULT_ERRORS = (DeadlockError, CommRevokedError, RankKilledError)


def _program(ctx):
    """The fixed program; logs a payload digest and the clock per step."""
    comm = world_communicator(ctx)
    rank, size = comm.Get_rank(), comm.Get_size()
    log = []

    def note(buf):
        log.append((hashlib.sha1(buf.array.tobytes()).hexdigest(), ctx.now))

    for n in (64, 1 << 14):                 # eager, then rendezvous
        send = ctx.device.empty(n)
        send.fill(float(rank + 1))
        recv = ctx.device.zeros(n)
        comm.Sendrecv(send, (rank + 1) % size, recv, (rank - 1) % size)
        note(recv)
    for n in (64, 1 << 18):                 # MPI route, then the CCL
        send = ctx.device.empty(n)
        send.fill(float(rank))
        recv = ctx.device.zeros(n)
        comm.Allreduce(send, recv, op=SUM)
        note(recv)
    per_peer = 1 << 16                      # routed to the CCL
    send = ctx.device.empty(per_peer * size)
    send.array[:] = np.arange(per_peer * size) + 1000.0 * rank
    recv = ctx.device.zeros(per_peer * size)
    comm.Alltoall(send, recv, count=per_peer)
    note(recv)
    mine = ctx.device.empty(256)
    mine.fill(float(rank))
    gathered = ctx.device.zeros(256 * size)
    comm.Gather(mine, gathered, root=0)
    note(gathered)
    return log


def _run(plan):
    """``(logs, error types, counters, touched)`` of one run under
    ``plan`` (None: no plan): the per-rank logs (None when the run
    failed), the types of the ranks' errors, the fast-path counters, and
    whether the plan dropped, delayed or killed anything.  With the
    collector off, every device must be back to 0 bytes once the engine
    and the errors are dropped."""
    cluster = make_system("thetagpu", 1)
    gc.collect()
    gc.disable()
    try:
        engine = Engine(cluster, nranks=NRANKS, progress_timeout_s=5.0)
        injector = None if plan is None else with_faults(engine, plan)
        logs, errors = None, []
        try:
            logs = engine.run(_program)
        except RankFailedError as exc:
            errors = [type(e) for e in exc.failures.values()]
        touched = injector is not None and bool(
            injector.dropped or injector.delayed or engine.dead_ranks)
        del engine, injector
        assert [d.allocated_bytes for d in cluster.devices] \
            == [0] * len(cluster.devices)
    finally:
        gc.enable()
    return logs, errors, fastpath.STATS.snapshot(), touched


@pytest.fixture(scope="module")
def fault_free():
    logs, errors, counters, _ = _run(None)
    assert logs is not None and not errors
    return logs, counters


_RULE = st.tuples(st.sampled_from(["drop", "delay"]),
                  st.integers(0, NRANKS - 1), st.integers(0, NRANKS - 1),
                  st.integers(0, 12), st.sampled_from([0.5, 40.0, 2500.0]))
_KILL = st.tuples(st.integers(0, NRANKS - 1),
                  st.sampled_from([0.0, 25.0, 400.0, 1e12]))


@st.composite
def plans(draw):
    """0-3 drop / delay rules and at most one kill."""
    plan = FaultPlan()
    for kind, src, dst, nth, delay_us in draw(st.lists(_RULE, max_size=3)):
        if kind == "drop":
            plan.drop(src, dst, nth=nth)
        else:
            plan.delay(src, dst, delay_us, nth=nth)
    for rank, after_us in draw(st.lists(_KILL, max_size=1)):
        plan.kill(rank, after_us=after_us)
    return plan


@settings(derandomize=True, max_examples=30, deadline=None)
@given(plan=plans())
def test_a_plan_changes_only_what_it_names(fault_free, plan):
    logs, errors, counters, touched = _run(plan)
    assert all(issubclass(e, FAULT_ERRORS) for e in errors), errors
    if not touched:
        base_logs, base_counters = fault_free
        assert logs == base_logs
        if not plan.drops and not plan.delays:
            assert counters == base_counters
