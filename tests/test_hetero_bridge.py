"""Mixed-vendor heterogeneous communicators (a table's ``bridge`` rows).

Covers the capability-descriptor layer (negotiation, family fallback,
empty-intersection errors), the mixed-cluster builders, and the island
bridge executor: bit-identity of mixed 2+2-node runs against both the
MPI fallback of a run without the table and a homogeneous same-shape
run on it, counter pins
(one negotiation per communicator), and the negotiation-failure error
path (a clean MPIX error, never a deadlock).  The runs are the
``hetero:<vendors>`` programs of the conformance suite
(``tests/test_conformance.py``) and their variants.  ``tests/test_ledger.py``
drains the cached bridge state.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import (
    CCLBackendUnavailable,
    ConfigError,
    MPIXNegotiationError,
    RankFailedError,
    TopologyError,
)
from repro.hw.systems import make_mixed_system, make_system, mixed
from repro.hw.vendors import Vendor, parse_vendor_counts
from repro.xccl import caps
from repro.xccl.hccl import HCCLBackend
from repro.xccl.nccl import NCCLBackend
from repro.xccl.rccl import RCCLBackend
from repro.xccl.registry import get_backend
from tests import frozen_reference
from tests.test_conformance import (REAL, TRACED, conforms,
                                    conforms_as_variant, launch)

#: the ``hetero:<vendors>`` programs' clusters: rail exchange, leader fold
VENDORS = ("nvidia:2,amd:2", "nvidia:1,amd:2")
BRIDGED = "hetero:nvidia:2,amd:2"


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


def test_gate_off_mixed_degrades_to_mpi():
    """No table pinned: the plain MPI route, correct payloads."""
    got = conforms_as_variant(BRIDGED, "hetero_off")
    assert got.counters["negotiations"] == 0
    assert got.counters["route_bridge"] == 0
    assert len(got.routed) == 8
    assert all(bridged == 0 for log in got.routed for bridged in log)


def test_gate_on_homogeneous_is_inert():
    """On a single-vendor comm no negotiation runs and no call bridges:
    each ``bridge`` row degrades to the MPI algorithms."""
    got = conforms_as_variant(BRIDGED, "homogeneous")
    assert got.counters["negotiations"] == 0
    assert got.counters["route_bridge"] == 0
    assert got.counters["route_xccl"] == 0


def test_mixed_bit_identity_and_counters():
    """Bridged 2+2 payloads equal the table-less and the homogeneous
    runs'; one negotiation."""
    got = conforms(BRIDGED)     # and every call took the bridge
    assert got.counters["negotiations"] == 1
    assert got.counters["route_bridge"] > 0
    assert got.counters["bridge_hops"] > 0
    conforms_as_variant(BRIDGED, "hetero_off")
    conforms_as_variant(BRIDGED, "homogeneous")


def test_unequal_islands_leader_fallback():
    """Unequal islands fold through leaders and match the MPI route."""
    got = conforms("hetero:nvidia:1,amd:2")
    assert got.counters["negotiations"] == 1
    assert got.counters["route_bridge"] > 0
    conforms_as_variant("hetero:nvidia:1,amd:2", "hetero_off")


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("vendors", VENDORS)
def test_matches_frozen_reference(vendors, trace):
    """Payloads, clocks, route counters and trace labels are frozen."""
    conforms(f"hetero:{vendors}", TRACED if trace else REAL)


@pytest.mark.parametrize("vendors", VENDORS)
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
@pytest.mark.parametrize("hier_rows", [False, True])
def test_gate_combos_payload_parity(trace, online_tune, hier_rows):
    """The bridge's payloads hold under the 2^2 option combinations,
    with and without the hierarchy's site rows in the table too."""
    on = [name for name, flag in (("hier_pipe", hier_rows),
                                  ("online_tune", online_tune),
                                  ("trace", trace)) if flag]
    if on:
        conforms_as_variant(BRIDGED, "+".join(on))
    else:
        conforms(BRIDGED)


def test_negotiation_failure_is_clean_error(monkeypatch):
    """An empty datatype intersection must surface as an MPIX
    negotiation error on every rank — not a deadlock."""
    monkeypatch.setattr(RCCLBackend, "capabilities", dataclasses.replace(
        RCCLBackend.capabilities, datatypes=frozenset({"xcclWeird"})))
    with pytest.raises(RankFailedError) as info:
        launch(BRIDGED)
    failures = info.value.failures
    assert failures and all(
        isinstance(exc, MPIXNegotiationError) for exc in failures.values())
