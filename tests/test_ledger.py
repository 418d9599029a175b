"""A communicator owns what is cached about it.

Everything one rank caches about a communicator — placement facts, the
negotiated descriptor, multi-level sub-communicators, compiled plans,
online-tuning call counters, the CCL communicator — is an entry of its
ledger, ``Communicator.routing_cache``; ``Comm_free`` and
``Comm_shrink`` drain it in one loop, calling each entry's own
``Free``.  The lifecycle test drives every way a communicator acquires
state through both drains and checks, with the cycle collector off,
that nothing survives: no entry, no live sub-communicator or CCL
communicator, no tuner bucket, no key naming the freed context on the
rank's dispatcher, layer or context, no record in the engine.  The
other tests pin the defects the ledger fixed — per-rank slot
bookkeeping that grew with the call count, records of freed
communicators piling up in the engine, ``mpx.attach`` dropping the
run's pinned tuning table — and that plans in the ledger stay their
dispatcher's.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.dispatch import DispatchMode
from repro.core.plan import PlanCache
from repro.core.runtime import MPIxContext, world_communicator
from repro.core.tuning_table import TUNABLE_COLLECTIVES, TuningTable
from repro.errors import CommRevokedError
from repro.hw.systems import make_mixed_system, make_system
from repro.mpi.coll import MPICollDispatcher, levels
from repro.mpi.coll.replay import RoundPrograms
from repro.mpi.config import mvapich_gpu
from repro.mpi.ops import SUM
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults
from repro.xccl.comm import XCCLComm
from tools.site_tables import bridge_table, hier_table

#: a kill deadline no rank reaches by itself: the victim crosses it on
#: purpose once the communicator has acquired its state
_DEADLINE = 1e9

#: a table routing every collective to the MPI algorithms, where the
#: default table takes the xCCL route for a 1 MiB Allreduce on 8 ranks
_ALL_MPI = TuningTable(backend="nccl", shape_key=("test", "all-mpi"),
                       entries={coll: [(-1, "mpi")]
                                for coll in TUNABLE_COLLECTIVES})


def _run(engine, body, table=None):
    """``body(mpx)`` on every rank of ``engine``, hybrid routing."""
    return engine.run(lambda ctx: body(MPIxContext(
        ctx, mvapich_gpu(), None, DispatchMode.HYBRID, table)))


def _dup(mpx):
    return mpx.attach(mpx.COMM_WORLD.Dup())


def _leader_split(mpx):
    world = mpx.COMM_WORLD
    sub = world.Split(color=0, key=world.rank)
    sub.coll = MPICollDispatcher(force="hierarchical")
    return sub


#: how a communicator acquires state: ``(derive it from mpx, cluster,
#: ranks, ranks per node, Allreduce elements, what it needs — the
#: option's name, or the builder of the table to pin — the ledger
#: entries it must have before the drain)``
CASES = {
    # the xCCL route: a plan cache and a CCL communicator
    "dup-attach": (_dup, lambda: make_system("thetagpu", 1), 8, None,
                   1 << 18, None, {"plans", "nccl"}),
    # the MPI route: plans holding the round programs they replay
    "mpi-rounds": (_dup, lambda: make_system("thetagpu", 1), 8, None,
                   256, None, {"plans", "rounds"}),
    # the LEADER levels of the MPI suite's "hierarchical" algorithms
    "leader-split": (_leader_split, lambda: make_system("thetagpu", 2), 8, 4,
                     1024, None, {"node", "hierarchical"}),
    # the HIER route: levels whose sub-communicators route xCCL
    "hier": (_dup, lambda: make_system("thetagpu", 2), 16, 8, 1 << 19,
             hier_table, {"plans", "node", "hier"}),
    # the BRIDGE route: negotiated descriptor, vendor levels
    "bridge": (_dup, lambda: make_mixed_system("nvidia:2,amd:2"), 8, 2,
               1 << 14, bridge_table,
               {"plans", "vendor", "negotiated", "bridge"}),
    # online-tuning call counters and the engine's overlay for the comm
    "online-tune": (_dup, lambda: make_system("thetagpu", 1), 8, None,
                    1 << 16, "online_tune", {"tune"}),
}


@pytest.fixture
def no_collector():
    """Reference counting alone must free what a drain drops."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _footprint(comm):
    """``(weakrefs, sub-communicators, CCL communicators)`` of what
    ``comm``'s ledger holds, the sub-communicators' ledgers included."""
    refs, subs, ccls = [], [], []
    for entry in comm.routing_cache.values():
        if isinstance(entry, (PlanCache, RoundPrograms, XCCLComm,
                              levels.Levels)):
            refs.append(weakref.ref(entry))
        if isinstance(entry, XCCLComm):
            ccls.append(entry)
        if isinstance(entry, levels.Levels):
            for sub in filter(None, (entry.inner, entry.outer.comm)):
                more = _footprint(sub)
                refs += more[0]
                subs += [sub] + more[1]
                ccls += more[2]
    return refs, subs, ccls


def _keys_naming(obj, ids):
    """Names of ``obj``'s dict attributes holding a key in ``ids`` or a
    tuple key led by one."""
    return [name for name, value in vars(obj).items()
            if isinstance(value, dict) and any(
                key in ids or (isinstance(key, tuple) and key
                               and key[0] in ids) for key in value)]


@pytest.mark.parametrize("drain", ["Free", "Comm_shrink"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_drain_leaves_nothing(case, drain, no_collector):
    derive, cluster, nranks, rpn, count, needs, expect = CASES[case]
    victim = nranks - 1
    cluster = cluster()
    table = needs(cluster, nranks, rpn) if callable(needs) else None
    engine = Engine(cluster, nranks=nranks, ranks_per_node=rpn,
                    online_tune=needs == "online_tune")
    if drain == "Comm_shrink":
        with_faults(engine, FaultPlan().kill(victim, after_us=_DEADLINE))

    def body(mpx):
        comm = derive(mpx)
        send = mpx.device_array(count, fill=1.0)
        recv = mpx.device_array(count, fill=0.0)
        for _ in range(2):
            comm.Allreduce(send, recv, SUM)
        assert expect <= set(comm.routing_cache)
        if "rounds" in expect:   # the second call replayed what the first wrote
            plans = comm.routing_cache["plans"].calls.values()
            assert [plan.program.rows is not None for plan in plans] == [True]
        refs, subs, ccls = _footprint(comm)
        ids = {comm.ctx_id} | {sub.ctx_id for sub in subs}
        groups = {c.ctx_id: c.group for c in [comm] + subs}
        groups.update({("xccl", ccl.uid): ccl.group for ccl in ccls})
        tuner = mpx.ctx.engine.online_tuner
        assert (tuner is not None and bool(tuner.overlay(comm.ctx_id))) \
            == (needs == "online_tune")
        # one more rendezvous on the communicator orders every rank's
        # reads of the engine-shared tuner before the first drain
        if drain == "Free":
            comm.Allreduce(send, recv, SUM)
        else:
            if mpx.rank == victim:
                mpx.ctx.clock.advance(2 * _DEADLINE)  # dies here
            try:
                for _ in range(8):
                    comm.Allreduce(send, recv, SUM)
            except CommRevokedError:
                pass
            comm.Comm_agree()
        getattr(comm, drain)()
        if drain == "Free":
            comm.Free()  # idempotent
        assert comm.routing_cache == {}
        assert all(sub._freed and sub.routing_cache == {} for sub in subs)
        assert all(ccl.aborted for ccl in ccls)
        del ccls
        assert [ref() for ref in refs if ref() is not None] == []
        assert tuner is None or not any(tuner.overlay(i) for i in ids)
        owners = [comm.coll, mpx.ctx]
        if hasattr(comm.coll, "layer"):
            owners.append(comm.coll.layer)
        for owner in owners:
            assert _keys_naming(owner, ids) == [], type(owner).__name__
        if drain == "Free":
            return set(groups), comm.ctx_id
        # the victim never frees its handles; the parent is kept for
        # its identity
        return {scope for scope, group in groups.items()
                if victim not in group}, comm.ctx_id

    results = _run(engine, body, table)
    if drain == "Comm_shrink":
        assert results[victim] is None
        del results[victim]
        assert all(ctx_id in engine.records for _, ctx_id in results)
    # a record leaves with its last member's handle
    assert not set().union(*(scopes for scopes, _ in results)) \
        & set(engine.records)


def _container_sizes(*objs):
    return {(type(o).__name__, name): len(value)
            for o in objs for name, value in vars(o).items()
            if isinstance(value, (dict, list, set))}


def test_per_rank_bookkeeping_does_not_grow_with_calls(thetagpu1):
    """A CCL collective's rendezvous key already carries its
    communicator's sequence; nothing per rank counts it again."""
    def sizes(calls):
        def body(ctx):
            comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
            buf = ctx.device.zeros(4)
            for _ in range(calls):
                comm.Allreduce(buf, buf, SUM)
            return _container_sizes(ctx, comm.coll, comm.coll.layer)

        return Engine(thetagpu1, nranks=8).run(body)

    assert sizes(10) == sizes(1000)


def test_freed_communicators_leave_no_record(thetagpu1):
    """Dup -> attach -> Allreduce (xCCL route) -> Free, repeated: the
    engine keeps no record of what every member freed."""
    def records(cycles):
        def body(mpx):
            buf = mpx.device_array(1 << 18, fill=1.0)
            for _ in range(cycles):
                dup = mpx.attach(mpx.COMM_WORLD.Dup())
                dup.Allreduce(buf, buf, SUM)
                assert dup.coll.stats.xccl_calls == 1
                dup.Free()

        engine = Engine(thetagpu1, nranks=8)
        _run(engine, body)
        return set(engine.records)

    assert records(3) == records(30) == {"w"}


def test_a_replaced_dispatcher_replays_none_of_its_plans(thetagpu1):
    """The plans in a communicator's ledger are its dispatcher's: the
    one installed in its place routes under its own table (tuner off:
    an online-tuning overlay belongs to the communicator)."""
    def body(ctx):
        comm = world_communicator(ctx, table=_ALL_MPI)
        buf = ctx.device.zeros(1 << 18)
        comm.Allreduce(buf, buf, SUM)
        comm.coll = world_communicator(ctx).coll
        comm.Allreduce(buf, buf, SUM)
        return comm.coll.stats.xccl_calls

    engine = Engine(thetagpu1, nranks=8, online_tune=False)
    assert engine.run(body) == [1] * 8


def test_attach_keeps_the_pinned_table(thetagpu1):
    """A Dup of COMM_WORLD has the world's group and shape, so under the
    run's pinned table it routes exactly as COMM_WORLD does."""
    def body(mpx):
        buf = mpx.device_array(1 << 18, fill=1.0)
        routes = []
        for comm in (mpx.COMM_WORLD, mpx.attach(mpx.COMM_WORLD.Dup())):
            comm.Allreduce(buf, buf, SUM)
            routes.append((comm.coll.stats.xccl_calls,
                           comm.coll.stats.mpi_calls))
        return routes

    engine = Engine(thetagpu1, nranks=8, online_tune=False)
    for world, dup in _run(engine, body, _ALL_MPI):
        assert world == dup == (0, 1)
