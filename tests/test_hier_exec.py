"""Pipelined hierarchical executor (a table's ``hier`` rows) correctness.

The awkward shapes — uneven nodes (where the general per-chunk
schedule runs), shard forwarding, oversubscribed rails, non-leader
broadcast roots — are the ``hier:<shape>`` programs of the conformance
suite (``tests/test_conformance.py``): payloads against the closed
form, exact clocks, counters and trace labels against
``tests/frozen_reference.py``.  Here: the vector-collective degrade,
the routing threshold (a row), and the ``Comm_free`` release of the
cached hierarchy sub-communicators and plan-cache entries.
"""

from __future__ import annotations

import pytest

from repro import fastpath
from repro.core import runtime
from repro.hw.systems import make_system
from tests.test_conformance import HIER_N as N
from tests.test_conformance import (HIER_SHAPES, REAL, TRACED, conforms,
                                    oracle_conforms)
from tools.site_tables import HIER_FROM, hier_table


def _run(body, nodes, nranks, rpn, nics, hier, from_bytes=HIER_FROM):
    """``body`` on its shape's offline table, or with that table's
    ``hier`` rows from ``from_bytes`` on when ``hier``."""
    cluster = make_system("thetagpu", nodes, nics=nics)
    table = hier_table(cluster, nranks, rpn, from_bytes=from_bytes) \
        if hier else None
    out = runtime.run(body, system=cluster, nranks=nranks,
                      ranks_per_node=rpn, table=table)
    return out, fastpath.STATS.snapshot()


@pytest.mark.parametrize("shape", list(HIER_SHAPES))
def test_payload_parity_awkward_shapes(shape):
    """Every shape gives the closed form's payloads, each call routed
    through the hierarchy."""
    oracle_conforms(f"hier:{shape}")
    assert conforms(f"hier:{shape}").counters["hier_stripe_ops"] > 0


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("shape", list(HIER_SHAPES))
def test_matches_frozen_reference(shape, trace):
    """Payloads, clocks, route counters and trace labels are frozen."""
    conforms(f"hier:{shape}", TRACED if trace else REAL)


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


def test_min_bytes_threshold():
    """Routing respects the row's bound: below it the flat route runs
    on a table with ``hier`` rows; a row starting lower engages the
    hierarchy for the same payload."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        send = mpx.device_array(4096, fill=1.0)
        recv = mpx.device_array(4096, fill=0.0)
        comm.Allreduce(send, recv)
        return float(recv.array[0])

    _, snap = _run(body, 2, 8, 4, 4, hier=True)
    assert snap["route_hier"] == 0  # 16 KiB sits below the 2 MiB rows
    out, snap = _run(body, 2, 8, 4, 4, hier=True,
                     from_bytes={"allreduce": 1024})
    assert snap["route_hier"] == 8
    assert all(v == 8.0 for v in out)


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
