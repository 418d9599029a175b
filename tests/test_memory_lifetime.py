"""A device buffer dies with its last reference.

No wall clock, no RSS: device accounting, the cycle collector's own
report, ``tracemalloc`` and a count of zeroed bytes.
"""

import gc
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import runtime
from repro.errors import InvalidBufferError, RankFailedError
from repro.hw.memory import DeviceBuffer, as_array
from repro.hw.systems import make_system, thetagpu
from repro.mpi.ops import SUM
from repro.sim.engine import Engine

_spec = importlib.util.spec_from_file_location(
    "mem_smoke", Path(__file__).resolve().parents[1] / "tools" / "mem_smoke.py")
mem_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mem_smoke)

MIB = 1 << 20


@pytest.fixture
def no_gc():
    """The cycle collector off, so only refcounting can free anything."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _body(mpx, count=MIB // 4):
    """Every allocation route a rank program has — plain buffers, views,
    pooled accumulators (xccl allreduce), pooled staging (small MPI
    reduce), a host copy where the device holds payloads — none freed
    by hand."""
    comm = mpx.COMM_WORLD
    send = mpx.device_array(count, fill=1.0)
    recv = mpx.device_array(count)
    comm.Allreduce(send, recv, SUM)
    comm.Alltoall(send, recv, count=count // comm.size)
    comm.Reduce(send.view(0, 64), recv.view(0, 64), SUM, root=0)
    comm.Bcast(mpx.device.from_numpy(np.ones(16, dtype=np.float32))
               if mpx.device.payloads else mpx.device_array(16), root=0)
    return recv.array.size


def _assert_run_leaves_nothing(cluster):
    out = runtime.run(_body, system=cluster)
    assert len(out) == 8
    assert [d.allocated_bytes for d in cluster.devices] == [0] * 8
    # what is left for the collector (the engine and its closures are
    # cyclic) holds no device buffer
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    assert not [o for o in gc.garbage if isinstance(o, DeviceBuffer)]
    # and the cluster is reusable at full capacity
    runtime.run(_body, system=cluster)
    assert [d.allocated_bytes for d in cluster.devices] == [0] * 8


def test_run_leaves_no_device_memory_behind(no_gc):
    _assert_run_leaves_nothing(make_system("thetagpu", 1))


def test_storage_free_run_leaves_no_device_memory_behind(no_gc):
    """Storage-free buffers are accounted like real ones, so they are
    released like real ones."""
    _assert_run_leaves_nothing(make_system("thetagpu", 1, payloads=False))


def test_kept_engine_pins_no_payloads(no_gc):
    """An engine kept for its traces holds no pooled buffer and no slot,
    not even the slots a failed run abandoned with its peers' borrowed
    windows deposited."""
    def body(ctx, fail):
        comm = runtime.world_communicator(ctx)
        send = ctx.device.zeros(MIB // 4)
        if fail and ctx.rank == 3:
            raise ValueError("boom")
        comm.Allreduce(send, ctx.device.empty(MIB // 4), SUM)
        comm.Reduce(send.view(0, 64), ctx.device.empty(64), SUM, root=0)

    cluster = make_system("thetagpu", 1)
    engine = Engine(cluster, trace=True)
    engine.run(body, False)
    assert all(len(t) for t in engine.traces())
    assert [d.allocated_bytes for d in cluster.devices] == [0] * 8
    with pytest.raises(RankFailedError, match="boom"):
        engine.run(body, True)
    assert not engine._slots
    assert len(engine.scratch_pool) == 0
    assert all(not ctx.staging_pool for ctx in engine.contexts)


def _traced_peak(engines: int) -> int:
    tracemalloc.start()
    try:
        for _ in range(engines):
            runtime.run(_body, system="thetagpu")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_live_buffers_not_engines_built(no_gc):
    """Six back-to-back 8-rank engines (2 x 1 MiB a rank) peak where one
    does: dead engines wait for the collector, their payloads do not."""
    _traced_peak(1)     # imports, tuning tables
    one = _traced_peak(1)
    assert one >= 16 * MIB
    assert _traced_peak(6) <= 1.5 * one


class TestFreedFlagThroughViews:
    def test_views_of_freed_root(self):
        device = thetagpu(1).devices[0]
        root = device.empty(16)
        views = [root.view(0, 8), root.view(4, 0), root.view(0, 8).view(2, 2)]
        root.free()
        for v in views + [root]:
            with pytest.raises(InvalidBufferError):
                as_array(v)
            with pytest.raises(InvalidBufferError):
                v.view(0, 0)
            with pytest.raises(InvalidBufferError):
                v.fill(0)

    def test_free_is_for_live_roots_only(self):
        device = thetagpu(1).devices[0]
        root = device.empty(16)
        for v in (root.view(0, 8), root.view(4, 0)):
            with pytest.raises(InvalidBufferError):
                v.free()
        assert device.allocated_bytes == 64
        root.free()
        assert device.allocated_bytes == 0
        with pytest.raises(InvalidBufferError):
            root.free()
        del root    # a freed root's __del__ must not release twice
        assert device.allocated_bytes == 0


def test_fig5_sweep_zeroes_what_it_sends():
    """The zero/empty rule of ``omb.collective._alloc`` on real buffers
    (``make mem-smoke``'s payload leg: the fig5 NCCL column, which runs
    storage-free in the figure itself): per rank and benchmark one
    zeroed send window — receive-only windows are not zeroed — plus the
    one-element operand ``PureCCLHarness.Barrier`` reuses instead of
    allocating per call."""
    with mem_smoke.counting_zeros() as zeroed:
        mem_smoke.payload_leg()
    ranks, stacks = 8, len(mem_smoke.PAYLOAD_STACKS)
    ccl_engines = len(mem_smoke.PAYLOAD_COLLECTIVES)  # one "ccl" stack each
    assert len(zeroed) == ranks * (4 * stacks + ccl_engines)
    # 1 MiB windows (allreduce, reduce, bcast), 8 MiB for alltoall (a
    # block per peer), 4 B sync operands
    assert sum(zeroed) == ranks * (stacks * (3 + 8) * MIB + ccl_engines * 4)
