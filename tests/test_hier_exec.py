"""Pipelined hierarchical executor (the ``hier_pipe`` option) correctness.

Complements the parity pins in ``test_dispatch_parity.py`` with the
awkward shapes: uneven nodes (where the general per-chunk schedule
runs), non-leader broadcast roots, the vector-collective degrade, the
routing threshold, and the ``Comm_free`` release of the cached
hierarchy sub-communicators and plan-cache entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.hw.systems import make_system
from repro.mpi.coll import hier_exec
from repro.mpi.ops import SUM

N = (2 << 20) // 4  # at the reductions' routing threshold (MIN_BYTES_DEFAULT)


def _run(body, nodes, nranks, rpn, nics, hier, **options):
    cluster = make_system("thetagpu", nodes, nics=nics)
    out = runtime.run(body, system=cluster, nranks=nranks,
                      ranks_per_node=rpn, hier_pipe=hier, **options)
    return out, fastpath.STATS.snapshot()


def _collectives_body(mpx):
    comm = mpx.COMM_WORLD
    p, rank = comm.size, comm.rank
    rng = np.random.default_rng(5 + rank)
    out = {}
    send = mpx.device_array(N)
    send.array[:] = rng.integers(0, 5, N)
    recv = mpx.device_array(N, fill=0.0)
    comm.Allreduce(send, recv, SUM)
    out["allreduce"] = recv.array.tobytes()
    ag = mpx.device_array(N * p, fill=0.0)
    comm.Allgather(send, ag)
    out["allgather"] = ag.array.tobytes()
    rs_in = mpx.device_array(N * p)
    rs_in.array[:] = rng.integers(0, 5, N * p)
    rs_out = mpx.device_array(N, fill=0.0)
    comm.Reduce_scatter_block(rs_in, rs_out, SUM)
    out["reduce_scatter"] = rs_out.array.tobytes()
    for root in (0, p // 2, p - 1):
        buf = mpx.device_array(N, fill=0.0)
        if rank == root:
            buf.array[:] = rng.integers(0, 5, N)
        comm.Bcast(buf, root=root)
        out[f"bcast@{root}"] = buf.array.tobytes()
    return out


@pytest.mark.parametrize("nodes,nranks,rpn,nics", [
    (2, 8, 4, 4),    # uniform, every rank a stripe owner (aligned)
    (2, 12, 6, 3),   # uniform ppn, owners carry two shards each
    (3, 7, 3, 8),    # uneven nodes 3/3/1: general per-chunk schedule
    (2, 10, 5, 8),   # ppn 5, nics capped at 5: ppn % L != 0, general
], ids=["aligned", "oversubscribed", "uneven", "indivisible"])
def test_payload_parity_awkward_shapes(nodes, nranks, rpn, nics):
    """Every shape — aligned, shard-forwarding, uneven, indivisible —
    must produce flat-route payloads to the bit, for all four
    collectives and broadcast roots on every node."""
    flat, snap_off = _run(_collectives_body, nodes, nranks, rpn, nics,
                          hier=False)
    hier, snap_on = _run(_collectives_body, nodes, nranks, rpn, nics,
                         hier=True)
    assert snap_off["route_hier"] == 0
    assert snap_on["route_hier"] > 0
    assert snap_on["hier_stripe_ops"] > 0
    for rank, (a, b) in enumerate(zip(flat, hier)):
        for key in a:
            assert a[key] == b[key], f"rank {rank} {key} differs"


def test_allgatherv_degrades_to_flat():
    """Allgatherv shares the allgather tuning key but has no hierarchy
    executor: the execute stage must degrade it to the flat CCL route —
    deterministically, on every rank — and still compute correctly."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        p, rank = comm.size, comm.rank
        counts = [N + r for r in range(p)]
        send = mpx.device_array(counts[rank], fill=float(rank))
        recv = mpx.device_array(sum(counts), fill=0.0)
        comm.Allgatherv(send, recv, counts)
        return recv.array.tobytes()

    flat, _ = _run(body, 2, 8, 4, 4, hier=False)
    hier, snap = _run(body, 2, 8, 4, 4, hier=True)
    assert flat == hier
    assert snap["route_hier"] == 0  # degraded before the executor ran


def test_min_bytes_threshold(monkeypatch):
    """Routing respects the measured crossover constant: below it the
    flat route runs even with the option on; lowering the constant
    engages the hierarchy for the same payload."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        send = mpx.device_array(4096, fill=1.0)
        recv = mpx.device_array(4096, fill=0.0)
        comm.Allreduce(send, recv)
        return float(recv.array[0])

    _, snap = _run(body, 2, 8, 4, 4, hier=True)
    assert snap["route_hier"] == 0  # 16 KiB sits below the default
    monkeypatch.setattr(hier_exec, "MIN_BYTES_DEFAULT", 1024)
    out, snap = _run(body, 2, 8, 4, 4, hier=True)
    assert snap["route_hier"] == 8
    assert all(v == 8.0 for v in out)


def test_depth_env_parity(monkeypatch):
    """The pipeline depth constant reshapes the chunk pipeline without
    changing payloads."""
    assert hier_exec.DEPTH == 2
    base, _ = _run(_collectives_body, 2, 8, 4, 4, hier=False)
    for depth in (1, 4):
        monkeypatch.setattr(hier_exec, "DEPTH", depth)
        hier, snap = _run(_collectives_body, 2, 8, 4, 4, hier=True)
        assert snap["route_hier"] > 0
        for rank, (a, b) in enumerate(zip(base, hier)):
            for key in a:
                assert a[key] == b[key], \
                    f"depth={depth}: rank {rank} {key} differs"


def test_comm_free_releases_hier_state():
    """``Comm_free`` must tear down the whole hierarchy footprint: the
    cached sub-communicators, the placement cache, and the dup'd
    communicator's plan-cache entry."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        sub = mpx.attach(comm.Dup())
        send = mpx.device_array(N, fill=1.0)
        recv = mpx.device_array(N, fill=0.0)
        sub.Allreduce(send, recv)
        topo = sub.routing_cache.get("hier_topo")
        had_topo = topo is not None
        had_info = "hier_info" in sub.routing_cache
        pipeline = sub.coll.pipeline
        had_plans = sub.ctx_id in pipeline._plans
        sub.Free()
        return {
            "had_topo": had_topo,
            "had_info": had_info,
            "had_plans": had_plans,
            "cache_drained": sub.routing_cache == {},
            "local_freed": topo.local._freed if had_topo else False,
            "stripe_freed": (topo.stripe is None or topo.stripe._freed)
            if had_topo else False,
            "plans_dropped": sub.ctx_id not in pipeline._plans,
        }

    # a tuned collective always walks the route stage and compiles no
    # plan, so the plan-cache half of this pin needs the tuner off (the
    # check-gates MPIX_ONLINE_TUNE=1 leg runs this test too)
    out, snap = _run(body, 2, 8, 4, 4, hier=True, online_tune=False)
    assert snap["route_hier"] == 8
    for rank, flags in enumerate(out):
        for key, ok in flags.items():
            assert ok, f"rank {rank}: {key} is False"
