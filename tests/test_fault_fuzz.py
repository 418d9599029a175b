"""Fault plans drawn, not hand-picked: a faulted run is the fault-free
program plus the faults its plan names.

Two fixed programs run under 0-3 drawn drop / delay rules and at most
one kill.  One is on a 4-rank ThetaGPU node — eager and rendezvous
``Sendrecv``, an ``Allreduce`` on each route, a hinted ``Alltoall`` and
a rooted ``Gather``.  The other spans 2 x 4 ranks with every device
buffer routed to the CCL — a hinted ``Alltoallv`` with empty blocks, an
``IN_PLACE`` ``Allgatherv``, and ``Gatherv`` / ``Scatterv`` with
off-node roots — so the rules reach the group's columns on both
transports, and a host-buffer ``Allreduce`` falls back to the MPI
route.  Each program calls its MPI-route collectives twice on one key:
the second call replays the round program the first recorded, so every
plan meets a replayed call too.  Whatever the plan, the run returns or fails with the
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
from repro.core.dispatch import DispatchMode
from repro.core.runtime import world_communicator
from repro.errors import (CommRevokedError, DeadlockError, RankFailedError,
                          RankKilledError)
from repro.hw.systems import make_system
from repro.mpi import SUM
from repro.mpi.communicator import IN_PLACE
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
    for n in (64, 64, 1 << 18):             # MPI route twice, then the CCL
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
    gathered = ctx.device.zeros(256 * size)
    for k in range(2):                      # MPI route: recorded, replayed
        mine.fill(float(rank + k))
        comm.Gather(mine, gathered, root=0)
        note(gathered)
    return log


def _multinode_program(ctx):
    """The Listing-1 collectives across two nodes, all on the CCL; logs
    like :func:`_program`."""
    comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
    rank, size = comm.Get_rank(), comm.Get_size()
    log = []

    def note(buf):
        log.append((hashlib.sha1(buf.array.tobytes()).hexdigest(), ctx.now))

    # hinted exchange; a third of the blocks are empty
    sc = [(rank + 2 * j) % 3 * 32 for j in range(size)]
    rc = [(i + 2 * rank) % 3 * 32 for i in range(size)]
    send = ctx.device.empty(max(1, sum(sc)))
    send.array[:] = np.arange(send.array.size) + 1000.0 * rank
    recv = ctx.device.zeros(max(1, sum(rc)))
    comm.Alltoallv(send, sc, recv, rc)
    note(recv)
    # hinted, every send window inside the receive window
    counts = [i % 3 * 64 + 32 for i in range(size)]
    displs = [sum(counts[:i]) for i in range(size)]
    whole = ctx.device.zeros(sum(counts))
    whole.array[displs[rank]:displs[rank] + counts[rank]] = rank + 0.5
    comm.Allgatherv(IN_PLACE, whole, counts, displs)
    note(whole)
    # rooted, bulk transport; the roots sit on the second node
    mine = ctx.device.empty(counts[rank])
    mine.fill(float(rank + 2))
    gathered = ctx.device.zeros(sum(counts))
    comm.Gatherv(mine, gathered, counts, displs, root=size - 1)
    note(gathered)
    comm.Scatterv(whole, counts, mine, displs, root=size // 2)
    note(mine)
    # host buffers fall back to the MPI route: recorded, then replayed
    host = np.zeros(48, dtype=np.float32)
    for k in range(2):
        reduced = np.zeros(48, dtype=np.float32)
        host[:] = rank + k
        comm.Allreduce(host, reduced, op=SUM)
        log.append((hashlib.sha1(reduced.tobytes()).hexdigest(), ctx.now))
    return log


#: name -> (program, nodes, ranks per node)
PROGRAMS = {"single-node": (_program, 1, NRANKS),
            "multi-node": (_multinode_program, 2, 4)}


def _run(plan, program="single-node"):
    """``(logs, error types, counters, touched)`` of one run of
    ``program`` under ``plan`` (None: no plan): the per-rank logs (None
    when the run failed), the types of the ranks' errors, the fast-path
    counters, and whether the plan dropped, delayed or killed anything.
    With the collector off, every device must be back to 0 bytes once
    the engine and the errors are dropped."""
    body, nodes, rpn = PROGRAMS[program]
    cluster = make_system("thetagpu", nodes)
    gc.collect()
    gc.disable()
    try:
        engine = Engine(cluster, nranks=nodes * rpn, ranks_per_node=rpn)
        injector = None if plan is None else with_faults(engine, plan)
        logs, errors = None, []
        try:
            logs = engine.run(body)
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


def _unfired():
    """A plan whose one rule can never fire (messages count from 0)."""
    return FaultPlan().delay(0, 1, 0.5, nth=-1)


@pytest.fixture(scope="module")
def fault_free():
    """Per program, the logs and counters of its run that no fault
    touched, on the path the plan at hand takes: with ``ruled`` False
    without a plan, with ``ruled`` True under :func:`_unfired`.  A plan
    that names a rule turns central replay off, and central and per-rank
    replay park differently per call, so a plan's counters are compared
    with the run on its own path."""
    runs = {}

    def of(program, ruled):
        if (program, ruled) not in runs:
            logs, errors, counters, touched = _run(
                _unfired() if ruled else None, program)
            assert logs is not None and not errors and not touched
            runs[program, ruled] = logs, counters
        return runs[program, ruled]
    return of


def _rules(nranks):
    return st.tuples(st.sampled_from(["drop", "delay"]),
                     st.integers(0, nranks - 1), st.integers(0, nranks - 1),
                     st.integers(0, 12), st.sampled_from([0.5, 40.0, 2500.0]))


def _kills(nranks):
    return st.tuples(st.integers(0, nranks - 1),
                     st.sampled_from([0.0, 25.0, 400.0, 1e12]))


@st.composite
def plans(draw, nranks=NRANKS):
    """0-3 drop / delay rules and at most one kill."""
    plan = FaultPlan()
    for kind, src, dst, nth, delay_us in draw(st.lists(_rules(nranks),
                                                       max_size=3)):
        if kind == "drop":
            plan.drop(src, dst, nth=nth)
        else:
            plan.delay(src, dst, delay_us, nth=nth)
    for rank, after_us in draw(st.lists(_kills(nranks), max_size=1)):
        plan.kill(rank, after_us=after_us)
    return plan


def _check(fault_free, plan, program):
    """The three invariants, for one plan: a plan that touched nothing
    leaves every payload, clock and counter ``==`` the fault-free run."""
    logs, errors, counters, touched = _run(plan, program)
    assert all(issubclass(e, FAULT_ERRORS) for e in errors), errors
    if not touched:
        base_logs, base_counters = fault_free(program, not plan.empty)
        assert logs == base_logs
        assert counters == base_counters


@settings(derandomize=True, max_examples=30, deadline=None)
@given(plan=plans())
def test_a_plan_changes_only_what_it_names(fault_free, plan):
    _check(fault_free, plan, "single-node")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(plan=plans(2 * 4))
def test_a_plan_changes_only_what_it_names_across_nodes(fault_free, plan):
    """The same, on 2 x 4 ranks with every device-buffer collective on
    the CCL and a host-buffer one on the MPI route."""
    _check(fault_free, plan, "multi-node")


def test_unfired_rule_keeps_clocks(fault_free):
    """A message rule that never fires leaves the multi-node program's
    hinted groups on the whole-group exchange: no clock moves."""
    logs, errors, counters, touched = _run(
        FaultPlan().delay(0, 1, 0.5, nth=99), "multi-node")
    assert not errors and not touched
    assert (logs, counters) == fault_free("multi-node", False)


def test_an_unfired_rule_keeps_every_payload_and_clock(fault_free):
    """On one node the unfired rule's run replays per rank where the
    run without a plan replays centrally: the two reach the same
    payloads and clocks."""
    assert fault_free("single-node", True)[0] \
        == fault_free("single-node", False)[0]
