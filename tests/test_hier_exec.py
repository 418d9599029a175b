"""Pipelined hierarchical executor (the ``hier_pipe`` option) correctness.

Complements the parity pins in ``test_dispatch_parity.py`` with the
awkward shapes: uneven nodes (where the general per-chunk schedule
runs), non-leader broadcast roots, the vector-collective degrade, the
routing threshold, and the ``Comm_free`` release of the cached
hierarchy sub-communicators and plan-cache entries.  The shapes'
payloads, exact clocks, counters and trace labels are also pinned
against ``tests/frozen_reference.py`` (``hier:<shape>``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.hw.systems import make_system
from repro.mpi.coll import levels
from repro.mpi.ops import SUM
from tests import frozen_reference

N = (2 << 20) // 4  # at the reductions' routing threshold (MIN_BYTES_DEFAULT)

#: shape id -> (nodes, ranks, ranks per node, NICs per node)
SHAPES = {
    "aligned": (2, 8, 4, 4),          # uniform, every rank a stripe owner
    "forwarding": (2, 8, 4, 2),       # aligned, owners carry two shards each
    "oversubscribed": (2, 12, 6, 3),  # ppn 6 over 3 rails, 2 MiB % 12: general
    "uneven": (3, 7, 3, 8),           # nodes 3/3/1: general per-chunk schedule
    "indivisible": (2, 10, 5, 8),     # ppn 5, nics capped at 5: general
}


def _run(body, nodes, nranks, rpn, nics, hier, **options):
    cluster = make_system("thetagpu", nodes, nics=nics)
    out = runtime.run(body, system=cluster, nranks=nranks,
                      ranks_per_node=rpn, hier_pipe=hier, **options)
    return out, fastpath.STATS.snapshot()


def _collectives_body(mpx):
    """The four collectives with a hierarchy executor, broadcast rooted
    on every node.  Per rank: one ``(name, payload bytes, clock after,
    this rank's hier-routed calls)`` entry per call, and the rank's
    route-surface trace labels (empty untraced)."""
    comm = mpx.COMM_WORLD
    p, rank = comm.size, comm.rank
    rng = np.random.default_rng(5 + rank)
    log = []

    def call(name, run, result):
        before = mpx.route_stats.hier_calls
        run()
        log.append((name, result.array.tobytes(), mpx.now,
                    mpx.route_stats.hier_calls - before))

    send = mpx.device_array(N)
    send.array[:] = rng.integers(0, 5, N)
    recv = mpx.device_array(N, fill=0.0)
    call("allreduce", lambda: comm.Allreduce(send, recv, SUM), recv)
    ag = mpx.device_array(N * p, fill=0.0)
    call("allgather", lambda: comm.Allgather(send, ag), ag)
    rs_in = mpx.device_array(N * p)
    rs_in.array[:] = rng.integers(0, 5, N * p)
    rs_out = mpx.device_array(N, fill=0.0)
    call("reduce_scatter",
         lambda: comm.Reduce_scatter_block(rs_in, rs_out, SUM), rs_out)
    for root in (0, p // 2, p - 1):
        buf = mpx.device_array(N, fill=0.0)
        if rank == root:
            buf.array[:] = rng.integers(0, 5, N)
        call(f"bcast@{root}", lambda: comm.Bcast(buf, root=root), buf)
    return log, frozen_reference.surface_labels(mpx.ctx)


def _payloads(out):
    """Per rank ``{call name: payload bytes}`` of a body's return."""
    return [{name: data for name, data, _clock, _hier in log}
            for log, _labels in out]


@pytest.fixture
def bcast_routes_hier(monkeypatch):
    """Bring broadcast's crossover (16 MiB) down to the 2 MiB the
    bodies send, so their broadcast legs take the hierarchy too."""
    monkeypatch.setitem(levels.MIN_BYTES, "bcast", 2 << 20)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_payload_parity_awkward_shapes(shape, bcast_routes_hier):
    """Every shape — aligned, shard-forwarding, uneven, indivisible —
    must produce flat-route payloads to the bit, for all four
    collectives and broadcast roots on every node, and every one of
    those calls must really have taken the hierarchy."""
    flat, snap_off = _run(_collectives_body, *SHAPES[shape], hier=False)
    hier, snap_on = _run(_collectives_body, *SHAPES[shape], hier=True)
    assert snap_off["route_hier"] == 0
    assert snap_on["hier_stripe_ops"] > 0
    for rank, ((log_flat, _), (log_hier, _)) in enumerate(zip(flat, hier)):
        for (name, a, _, routed_flat), (_, b, _, routed_hier) in zip(
                log_flat, log_hier):
            assert (routed_flat, routed_hier) == (0, 1), \
                f"rank {rank} {name}: hier-routed calls " \
                f"{routed_flat} (off) / {routed_hier} (on)"
            assert a == b, f"rank {rank} {name} differs"


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_matches_frozen_reference(shape, trace, bcast_routes_hier):
    """Payloads, exact clocks, route counters and (traced) the route
    surface's trace labels equal what the three-module executors gave
    at the parent commit."""
    out, snap = _run(_collectives_body, *SHAPES[shape], hier=True,
                     trace=trace, hetero=False, online_tune=False)
    frozen_reference.assert_matches(
        f"hier:{shape}",
        [[(data, clock) for _, data, clock, _ in log] for log, _ in out])
    frozen_reference.assert_surface(
        f"hier:{shape}", snap, [labels for _, labels in out], traced=trace)


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
    monkeypatch.setattr(levels, "MIN_BYTES_DEFAULT", 1024)
    out, snap = _run(body, 2, 8, 4, 4, hier=True)
    assert snap["route_hier"] == 8
    assert all(v == 8.0 for v in out)


def test_depth_env_parity(monkeypatch, bcast_routes_hier):
    """The pipeline depth constant reshapes the chunk pipeline without
    changing payloads."""
    assert levels.DEPTH == 2
    base, _ = _run(_collectives_body, 2, 8, 4, 4, hier=False)
    for depth in (1, 4):
        monkeypatch.setattr(levels, "DEPTH", depth)
        hier, snap = _run(_collectives_body, 2, 8, 4, 4, hier=True)
        assert snap["route_hier"] > 0
        for rank, (a, b) in enumerate(zip(_payloads(base), _payloads(hier))):
            for key in a:
                assert a[key] == b[key], \
                    f"depth={depth}: rank {rank} {key} differs"


def test_comm_free_releases_hier_state():
    """``Comm_free`` must tear down the whole hierarchy footprint: the
    cached sub-communicators and the placement cache (the rest of the
    ledger is ``tests/test_ledger.py``'s)."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        sub = mpx.attach(comm.Dup())
        send = mpx.device_array(N, fill=1.0)
        recv = mpx.device_array(N, fill=0.0)
        sub.Allreduce(send, recv)
        topo = sub.routing_cache.get("hier")
        had_topo = topo is not None
        had_info = "node" in sub.routing_cache
        sub.Free()
        return {
            "had_topo": had_topo,
            "had_info": had_info,
            "cache_drained": sub.routing_cache == {},
            "local_freed": topo.inner._freed if had_topo else False,
            "stripe_freed": (topo.outer.comm is None or topo.outer.comm._freed)
            if had_topo else False,
        }

    out, snap = _run(body, 2, 8, 4, 4, hier=True)
    assert snap["route_hier"] == 8
    for rank, flags in enumerate(out):
        for key, ok in flags.items():
            assert ok, f"rank {rank}: {key} is False"
