"""Plan cache and memoization: bit-identity, hits, pooling.

Compiled plans, memoized models and pooled staging (``repro.core.plan``)
may only change how fast the simulator runs — never what it computes.
These tests pin that contract: payloads and virtual clocks are
bit-identical to what per-call derivation gave (the frozen cache-off
arm, ``tests/frozen_reference.py``, a case of
``tests/test_conformance.py``) for every collective on every backend,
every memoized function replays its uncached original, and the caches
actually get hit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.core.plan import BufferPool, CollectivePlan, PlanCache
from repro.core.fallback import FallbackReason, Route
from repro.core.tuning_table import cached_table
from repro.errors import CCLBackendUnavailable
from repro.hw.systems import make_mixed_system, make_system
from repro.mpi.ops import SUM
from repro.xccl.registry import get_backend
from tests.test_conformance import STACKS, conforms
from tools.site_tables import HIER_FROM, bridge_table, hier_table


@pytest.fixture(autouse=True)
def _online_tuner_off(monkeypatch):
    """A tuned collective always walks the route stage and compiles no
    plan, so the hit/compile/release pins here need the tuner off (the
    check-gates ``MPIX_ONLINE_TUNE=1`` leg runs this file too; the
    default is read as each engine is built)."""
    monkeypatch.delenv("MPIX_ONLINE_TUNE", raising=False)


@pytest.mark.parametrize("stack", list(STACKS))
def test_bit_identical_on_vs_off(stack):
    """Cached plans reproduce the frozen per-call derivation."""
    conforms(f"plan_cache:{stack}")


def test_plan_cache_hits_in_omb_style_loop():
    """Repeated identical calls replay their key's plan (one miss, then
    hits) and reuse pooled staging buffers."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        s = ctx.device.zeros(256, dtype=np.float32)
        r = ctx.device.zeros(256, dtype=np.float32)
        for _ in range(10):
            comm.Allreduce(s, r, SUM)
        return True

    fastpath.STATS.reset()
    runtime.run(body, system="thetagpu", nodes=1, ranks_per_node=4)
    stats = fastpath.STATS.snapshot()
    assert (stats["misses"], stats["hits"]) == (4, 36)   # one key a rank
    assert stats["pool_reuses"] > 0


def test_persistent_collective_matches_blocking():
    """Allreduce_init + Start/wait == plain Allreduce, restartable."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        s = ctx.device.zeros(64, dtype=np.float32)
        s.array[:] = comm.rank + 1
        r_plain = ctx.device.zeros(64, dtype=np.float32)
        r_pers = ctx.device.zeros(64, dtype=np.float32)
        comm.Allreduce(s, r_plain, SUM)
        req = comm.Allreduce_init(s, r_pers, SUM)
        assert not req.active
        for _ in range(3):
            req.Start().wait()
        assert req.coll == "allreduce"
        return bool(np.array_equal(r_plain.array, r_pers.array))

    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4))


def test_persistent_all_variants_run():
    """Every *_init variant starts, completes, and restarts."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        ctx = comm.ctx
        p = comm.size
        s = ctx.device.zeros(8 * p, dtype=np.float32)
        r = ctx.device.zeros(8 * p, dtype=np.float32)
        reqs = [
            comm.Allreduce_init(s.view(0, 8), r.view(0, 8), SUM),
            comm.Bcast_init(r.view(0, 8), root=0),
            comm.Reduce_init(s.view(0, 8), r.view(0, 8), SUM, 0),
            comm.Allgather_init(s.view(0, 8), r),
            comm.Alltoall_init(s, r),
            comm.Reduce_scatter_block_init(s, r.view(0, 8), SUM),
            comm.Barrier_init(),
        ]
        for req in reqs:
            req.Start().wait()
            req.Start().wait()  # restart after completion
            assert not req.active
        return True

    assert all(runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4))


def test_support_table_identity():
    """A backend's datatype table is its descriptor's, reached through
    the memoized instance — the same object, case-insensitively."""
    def table(name):
        return get_backend(name).capabilities.datatypes

    assert table("nccl") is table("NCCL")
    assert table("rccl") is table("nccl")  # same family set
    assert table("hccl") is not None
    with pytest.raises(CCLBackendUnavailable):
        table("nosuch")


def test_cached_table_identity():
    """Equal (shape, ccl, config) inputs return the identical table."""
    from repro.hw.systems import make_system
    from repro.mpi.config import mvapich_gpu
    from repro.perfmodel.params import ccl_params
    from repro.perfmodel.shape import shape_of

    cluster = make_system("thetagpu", 2)
    shape = shape_of(cluster, tuple(range(16)), 8)
    ccl = ccl_params("nccl")
    cfg = mvapich_gpu()
    assert cached_table(shape, ccl, cfg) is cached_table(shape, ccl, cfg)


def test_buffer_pool_reuse_and_cap():
    pool = BufferPool()
    key = (True, "<f4", 64)
    assert pool.acquire(key) is None
    buf = np.zeros(64, dtype=np.float32)
    pool.release(key, buf)
    assert pool.acquire(key) is buf
    assert pool.acquire(key) is None  # drained
    for _ in range(64):
        pool.release(key, np.zeros(64, dtype=np.float32))
    from repro.core.plan import POOL_CAP_PER_KEY
    assert len(pool) <= POOL_CAP_PER_KEY


def test_plan_cache_counts():
    cache = PlanCache()
    key = ("hybrid", "allreduce", 1024, "MPI_FLOAT", "MPI_SUM", True)
    assert cache.lookup(key) is None
    plan = cache.store(key, CollectivePlan(key=key, decision=None))
    assert cache.lookup(key) is plan
    assert cache.hits == 1 and cache.misses == 1
    assert len(cache) == 1


def _labels(mpx, prefix):
    """This rank's trace labels starting with ``prefix``, in order."""
    return [ev.label for ev in mpx.ctx.trace.events
            if ev.label.startswith(prefix)]


def test_bcast_from_every_root_walks_once_per_call_key():
    """Each root is its own call key: its first ``Bcast`` misses and
    walks the route stage once, its second hits.  No key borrows
    another's decision, so ``misses`` equals the ``route:`` markers."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        buf = mpx.device_array(64, fill=1.0)
        for _ in range(2):
            for root in range(comm.size):
                comm.Bcast(buf, root=root)
        cache = comm.routing_cache["plans"]
        return cache.misses, cache.hits, len(_labels(mpx, "route:"))

    fastpath.STATS.reset()
    out = runtime.run(body, system="thetagpu", nodes=1, ranks_per_node=4,
                      trace=True, online_tune=False)
    assert out == [(4, 4, 4)] * 4
    stats = fastpath.STATS.snapshot()
    assert (stats["misses"], stats["hits"]) == (16, 16)


def _hier_everywhere(cluster, nranks, rpn):
    """``hier`` rows from 0 bytes for every collective that has them."""
    return hier_table(cluster, nranks, rpn,
                      from_bytes=dict.fromkeys(HIER_FROM, 0))


def test_allgatherv_is_routed_flat_under_a_hier_row():
    """``Allgatherv`` prices against ``allgather``'s rows, but has no
    multi-level executor: on a multi-node communicator a ``hier`` row
    routes it ``xccl`` at the route stage, while ``Allgather`` takes
    the hierarchy."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        send = mpx.device_array(64, fill=comm.rank + 1.0)
        recv = mpx.device_array(64 * comm.size)
        comm.Allgatherv(send, recv, [64] * comm.size)
        flat = _labels(mpx, "route:")
        comm.Allgather(send, recv)
        # the hierarchy's sub-communicators route their own calls after
        return flat, _labels(mpx, "route:")[len(flat)], \
            mpx.route_stats.hier_calls

    cluster = make_system("thetagpu", 2)
    out = runtime.run(body, system=cluster, ranks_per_node=4, nranks=8,
                      table=_hier_everywhere(cluster, 8, 4), trace=True,
                      online_tune=False)
    assert out == [(["route:xccl"], "route:hier", 1)] * 8


def test_allgatherv_under_a_bridge_row_plans_the_mpi_algorithms():
    """On a mixed-vendor communicator an all-``bridge`` table sends
    ``Allgatherv`` (no bridge executor) to the MPI algorithms: its plan
    says so and holds the key's round program."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        send = mpx.device_array(16, fill=comm.rank + 1.0)
        recv = mpx.device_array(16 * comm.size)
        comm.Allgatherv(send, recv, [16] * comm.size)
        (plan,) = comm.routing_cache["plans"].calls.values()
        return (plan.decision.route, plan.decision.reason,
                plan.program is not None,
                np.array_equal(recv.array, np.repeat(
                    np.arange(1.0, comm.size + 1), 16)))

    cluster = make_mixed_system("nvidia:2,amd:2")
    out = runtime.run(body, system=cluster, table=bridge_table(cluster),
                      online_tune=False)
    assert out == [(Route.MPI, FallbackReason.MIXED_VENDOR, True, True)] * 8


def test_tuner_advice_passes_the_call_collectives_eligibility():
    """The online tuner's buckets are per tuning key, so an
    ``Allgather`` whose static row is ``hier`` seeds the bucket an
    ``Allgatherv`` of the same size reads.  The advice (``hier``) is
    checked for ``Allgatherv`` like a table row, and it runs flat."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        send = mpx.device_array(64, fill=comm.rank + 1.0)
        recv = mpx.device_array(64 * comm.size)
        comm.Allgather(send, recv)
        seeded = len(mpx.ctx.trace.events)
        comm.Allgatherv(send, recv, [64] * comm.size)
        return [ev.label for ev in mpx.ctx.trace.events[seeded:]
                if ev.label.startswith(("tune:", "route:", "execute:"))]

    cluster = make_system("thetagpu", 2)
    out = runtime.run(body, system=cluster, ranks_per_node=4, nranks=8,
                      table=_hier_everywhere(cluster, 8, 4), trace=True,
                      online_tune=True)
    assert out == [["tune:observe:hier", "route:xccl",
                    "execute:allgatherv:xccl:nccl"]] * 8


def test_memoized_functions_replay_their_originals(thetagpu2):
    """Every memo — the sixteen analytic models, ``chunk_bounds`` and
    ``P2PEndpoint._path_for`` — returns the same value on a miss, on a
    hit, and from its uncached original, over a grid of arguments."""
    from repro.mpi.coll import _util
    from repro.mpi.config import mvapich_gpu
    from repro.perfmodel import ccl_models, mpi_models
    from repro.perfmodel.params import ccl_params
    from repro.perfmodel.shape import shape_of

    shapes = [shape_of(thetagpu2, tuple(range(n)), 8) for n in (4, 8, 16)]
    # sizes nothing else in the suite prices, so the first call misses
    sizes = (1, 1021, (1 << 16) + 3, (3 << 20) + 5)
    ccls = [(ccl_params(name),) for name in ("nccl", "rccl", "hccl", "msccl")]
    for mod, heads, tail in ((ccl_models, ccls, ()),
                             (mpi_models, [(mvapich_gpu(),)], ("",))):
        memos = [fn for name, fn in vars(mod).items()
                 if name.endswith("_time") and hasattr(fn, "__wrapped__")]
        assert len(memos) == 8, mod.__name__
        for fn, head, shape, nbytes in itertools.product(
                memos, heads, shapes, sizes):
            args = head + (shape, nbytes) + tail
            original = fn.__wrapped__(*args)
            assert fn(*args) == original, (fn.__name__, "miss", args)
            assert fn(*args) == original, (fn.__name__, "hit", args)

    _util.chunk_bounds.cache_clear()
    for n, (count, parts) in enumerate(itertools.product(
            (0, 1, 13, 1024, 100003), (1, 3, 8)), start=1):
        original = _util.chunk_bounds.__wrapped__(count, parts)
        assert _util.chunk_bounds(count, parts) == original
        assert _util.chunk_bounds(count, parts) == original
        info = _util.chunk_bounds.cache_info()
        assert (info.misses, info.hits) == (n, n)

    def body(mpx):
        endpoint = mpx.COMM_WORLD.endpoint
        for key in itertools.product((1, 9), (False, True), (False, True)):
            endpoint._path_cache.pop(key, None)
            miss = endpoint._path_for(*key)
            assert endpoint._path_cache[key] is miss
            assert endpoint._path_for(*key) is miss     # hit
            del endpoint._path_cache[key]
            assert endpoint._path_for(*key) == miss     # derived afresh
        return True

    assert all(runtime.run(body, system=thetagpu2, nranks=16,
                           ranks_per_node=8))
