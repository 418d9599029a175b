"""Mixed-vendor heterogeneous communicators (the ``hetero`` option).

Covers the capability-descriptor layer (negotiation, family fallback,
empty-intersection errors), the mixed-cluster builders, and the island
bridge executor: bit-identity of mixed 2+2-node runs against both the
bridge-off MPI fallback and a homogeneous same-shape run, counter pins
(one negotiation per communicator), and the negotiation-failure error
path (a clean MPIX error, never a deadlock).  ``tests/test_ledger.py``
drains the cached bridge state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.errors import (
    CCLBackendUnavailable,
    ConfigError,
    MPIXNegotiationError,
    RankFailedError,
    TopologyError,
)
from repro.hw.systems import make_mixed_system, make_system, mixed
from repro.hw.vendors import Vendor, parse_vendor_counts
from repro.mpi.ops import SUM
from repro.xccl import caps
from repro.xccl.hccl import HCCLBackend
from repro.xccl.nccl import NCCLBackend
from repro.xccl.rccl import RCCLBackend
from repro.xccl.registry import get_backend
from tests import frozen_reference

N = 1 << 14  # elements per rank; large enough to engage island xCCL


def _run(body, cluster, nranks, rpn, hetero, **options):
    out = runtime.run(body, system=cluster, nranks=nranks,
                      ranks_per_node=rpn, hetero=hetero, **options)
    return out, fastpath.STATS.snapshot()


def _collectives_body(mpx):
    """The four collectives with a bridge executor, broadcast rooted in
    every island.  Per rank: one ``(name, payload bytes, clock after,
    this rank's bridge-routed calls)`` entry per call, and the rank's
    route-surface trace labels (empty untraced)."""
    comm = mpx.COMM_WORLD
    p, rank = comm.size, comm.rank
    rng = np.random.default_rng(11 + rank)
    log = []

    def call(name, run, result):
        before = mpx.route_stats.bridge_calls
        run()
        log.append((name, result.array.tobytes(), mpx.now,
                    mpx.route_stats.bridge_calls - before))

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
    return [{name: data for name, data, _clock, _bridged in log}
            for log, _labels in out]


# -- descriptor layer ----------------------------------------------------


def test_parse_vendor_counts():
    assert parse_vendor_counts("nvidia:2,amd:2") == [
        (Vendor.NVIDIA, 2), (Vendor.AMD, 2)]
    # bare name means one node; order is preserved
    assert parse_vendor_counts("amd,nvidia:3") == [
        (Vendor.AMD, 1), (Vendor.NVIDIA, 3)]
    for bad in ("", "nvidia:0", "nvidia:x", "nvidia:-1", ","):
        with pytest.raises(ValueError):
            parse_vendor_counts(bad)


def test_descriptor_registry_covers_backends():
    for name in ("nccl", "rccl", "hccl", "oneccl", "msccl"):
        desc = get_backend(name).capabilities
        assert desc is not None and desc.backend == name
    # versioned registry aliases inherit the family descriptor
    assert (get_backend("nccl-2.11").capabilities
            is get_backend("nccl").capabilities)
    # ...but unknown names stay unknown
    with pytest.raises(CCLBackendUnavailable):
        get_backend("onecll")


def test_negotiate_intersection():
    nccl = NCCLBackend.capabilities
    rccl = RCCLBackend.capabilities
    hccl = HCCLBackend.capabilities
    both = caps.negotiate([nccl, rccl])
    assert both.datatypes == nccl.datatypes == rccl.datatypes
    assert both.max_ranks == min(nccl.max_ranks, rccl.max_ranks)
    assert both.wire_formats[0] == caps.WIRE_DEVICE
    # HCCL is float-only and host-wire-only: the intersection shrinks
    narrow = caps.negotiate([nccl, hccl])
    assert narrow.datatypes == frozenset({"xcclFloat32"})
    assert narrow.wire_formats == (caps.WIRE_HOST,)
    assert "hccl" in narrow.backend and "nccl" in narrow.backend


def test_negotiate_empty_intersection_raises():
    nccl = NCCLBackend.capabilities
    alien = dataclasses.replace(
        nccl, backend="alien", datatypes=frozenset({"xcclWeird"}))
    with pytest.raises(MPIXNegotiationError, match="empty intersection"):
        caps.negotiate([nccl, alien])
    with pytest.raises(MPIXNegotiationError):
        caps.negotiate([])


def test_backend_classes_bind_descriptors():
    assert get_backend("nccl").capabilities is NCCLBackend.capabilities
    # version variants inherit the family descriptor
    assert get_backend("nccl-2.11").capabilities is NCCLBackend.capabilities
    assert get_backend("hccl").capabilities is HCCLBackend.capabilities


# -- mixed cluster builders ----------------------------------------------


def test_make_mixed_system():
    cluster = make_mixed_system("nvidia:2,amd:2")
    assert cluster.node_count == 4 and cluster.device_count == 8
    assert [n.name for n in cluster.nodes] == [
        "mixed00-nvidia", "mixed01-nvidia", "mixed02-amd", "mixed03-amd"]
    # every node is a single-vendor island
    assert {n.vendor for n in cluster.nodes} == {Vendor.NVIDIA, Vendor.AMD}
    for bad in ("", "nvidia:0", "martian:2"):
        with pytest.raises(ConfigError):
            make_mixed_system(bad)
    with pytest.raises(ConfigError):
        mixed([(Vendor.NVIDIA, 1)], devices_per_node=0)


def test_node_vendor_properties():
    node = make_system("thetagpu").nodes[0]
    assert node.vendors == (Vendor.NVIDIA,)
    assert node.vendor is Vendor.NVIDIA
    from repro.hw.node import Node
    from repro.hw.systems import _a100, _mi100
    from repro.hw.links import NVSWITCH, IB_HDR
    from repro.hw.device import HostCPU
    franken = Node("franken", HostCPU("x", 1, 1, 1 << 30),
                   [_a100(), _mi100()], intra_link=NVSWITCH, nic=IB_HDR)
    assert franken.vendors == (Vendor.AMD, Vendor.NVIDIA)
    with pytest.raises(TopologyError, match="mixes device vendors"):
        franken.vendor


# -- the bridge route ----------------------------------------------------


def _mixed_cluster():
    return make_mixed_system("nvidia:2,amd:2")


def test_gate_off_mixed_degrades_to_mpi():
    """``hetero`` off: the mixed comm runs the plain MPI route — no
    negotiation, no bridge — and still computes correctly."""
    out, snap = _run(_collectives_body, _mixed_cluster(), 8, 2,
                     hetero=False)
    assert snap["negotiations"] == 0
    assert snap["route_bridge"] == 0
    assert len(out) == 8
    assert all(bridged == 0 for log, _ in out for *_, bridged in log)


def test_gate_on_homogeneous_is_inert():
    """On a single-vendor comm the hetero option changes nothing: no
    negotiation runs and no call takes the bridge."""
    _, snap = _run(_collectives_body, make_system("thetagpu", 4), 8, 2,
                   hetero=True)
    assert snap["negotiations"] == 0
    assert snap["route_bridge"] == 0


def test_mixed_bit_identity_and_counters():
    """The 2+2-node NVIDIA+AMD job must produce payloads bit-identical
    to (a) the same mixed job with the bridge off and (b) a
    homogeneous run of the same shape — and negotiate exactly once."""
    base, _ = _run(_collectives_body, _mixed_cluster(), 8, 2,
                   hetero=False)
    bridged, snap = _run(_collectives_body, _mixed_cluster(), 8, 2,
                         hetero=True)
    homog, _ = _run(_collectives_body, make_system("thetagpu", 4), 8, 2,
                    hetero=False)
    assert snap["negotiations"] == 1
    assert snap["route_bridge"] > 0
    assert snap["bridge_hops"] > 0
    assert all(took == 1 for log, _ in bridged for *_, took in log), \
        "a call of the body left the bridge route"
    for rank, (a, b, c) in enumerate(zip(*map(_payloads,
                                              (base, bridged, homog)))):
        for key in a:
            assert a[key] == b[key], f"rank {rank} {key}: bridge differs"
            assert a[key] == c[key], f"rank {rank} {key}: homog differs"


def test_unequal_islands_leader_fallback():
    """Islands of different sizes have no rail mates: allreduce falls
    back to the leader-hop path and still matches the MPI route
    bit-for-bit."""
    cluster = make_mixed_system("nvidia:1,amd:2")
    base, _ = _run(_collectives_body, cluster, 6, 2, hetero=False)
    bridged, snap = _run(_collectives_body,
                         make_mixed_system("nvidia:1,amd:2"), 6, 2,
                         hetero=True)
    assert snap["negotiations"] == 1
    assert snap["route_bridge"] > 0
    for rank, (a, b) in enumerate(zip(_payloads(base), _payloads(bridged))):
        for key in a:
            assert a[key] == b[key], f"rank {rank} {key}: bridge differs"


#: vendor spec -> ranks of the frozen legs (two per node): equal islands
#: ride the rail decomposition, unequal ones the leader fold
FROZEN_SHAPES = {"nvidia:2,amd:2": 8, "nvidia:1,amd:2": 6}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("vendors", list(FROZEN_SHAPES))
def test_matches_frozen_reference(vendors, trace):
    """Payloads, exact clocks, route counters and (traced) the route
    surface's trace labels equal what the three-module executors gave
    at the parent commit."""
    out, snap = _run(_collectives_body, make_mixed_system(vendors),
                     FROZEN_SHAPES[vendors], 2, hetero=True, trace=trace,
                     hier_pipe=False, online_tune=False)
    frozen_reference.assert_matches(
        f"hetero:{vendors}",
        [[(data, clock) for _, data, clock, _ in log] for log, _ in out])
    frozen_reference.assert_surface(
        f"hetero:{vendors}", snap, [labels for _, labels in out],
        traced=trace)


@pytest.mark.parametrize("vendors", list(FROZEN_SHAPES))
def test_moved_clocks_only_went_down(vendors):
    """Merging the bridge's bodies with the hierarchy's may have dropped
    a redundant operation, never added one: every clock the frozen legs
    expect today is at or below the one recorded at the parent commit,
    and nothing before the reduce-scatter (the third call) moved."""
    recorded = frozen_reference.FROZEN[f"hetero:{vendors}"]
    moved = frozen_reference.MOVED_DOWN[f"hetero:{vendors}"]
    assert len(moved) == len(recorded)
    for (_sha, before), now in zip(recorded, moved):
        assert now[:2] == before[:2]
        assert len(now) == len(before)
        assert all(b - 5.0 < n < b for n, b in zip(now[2:], before[2:]))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("online_tune", [False, True])
@pytest.mark.parametrize("hier_pipe", [False, True])
def test_gate_combos_payload_parity(trace, online_tune, hier_pipe):
    """The bridge composes with every other option that can reach a
    mixed multi-node job — tracing and the two other routing options:
    payloads match the all-defaults bridge run across the 2^3
    combinations."""
    expect, _ = _run(_collectives_body, _mixed_cluster(), 8, 2,
                     hetero=True)
    got, _ = _run(_collectives_body, _mixed_cluster(), 8, 2, hetero=True,
                  trace=trace, online_tune=online_tune,
                  hier_pipe=hier_pipe)
    assert _payloads(got) == _payloads(expect)


def test_negotiation_failure_is_clean_error(monkeypatch):
    """An empty datatype intersection must surface as an MPIX
    negotiation error on every rank — not a deadlock."""
    monkeypatch.setattr(RCCLBackend, "capabilities", dataclasses.replace(
        RCCLBackend.capabilities, datatypes=frozenset({"xcclWeird"})))
    with pytest.raises(RankFailedError) as info:
        _run(_collectives_body, _mixed_cluster(), 8, 2, hetero=True)
    failures = info.value.failures
    assert failures and all(
        isinstance(exc, MPIXNegotiationError) for exc in failures.values())
