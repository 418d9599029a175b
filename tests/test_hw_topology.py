"""Links, nodes, clusters, paths, and system presets."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError, TopologyError
from repro.hw.cluster import PathScope
from repro.hw.links import NVSWITCH, PCIE_MRI, LinkKind, LinkModel
from repro.hw.systems import (TABLE1, make_mixed_system, make_system, mri,
                              system_names, thetagpu, voyager)
from repro.sim.wire import WireTracker

SRC = Path(__file__).resolve().parents[1] / "src"


class TestLinkModel:
    """A link as the wire tracker books it: ``alpha + n / beta`` on an
    idle wire."""

    @staticmethod
    def _arrival(link, nbytes):
        return WireTracker().book([("wire", "out")], 0.0, nbytes,
                                  link.beta_bpus, link.alpha_us)

    def test_time_is_alpha_plus_wire(self):
        l = LinkModel(LinkKind.NVSWITCH, alpha_us=2.0, beta_bpus=1000.0)
        assert self._arrival(l, 0) == 2.0
        assert self._arrival(l, 1000) == 3.0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            self._arrival(NVSWITCH, -1)

    def test_bandwidth_approaches_beta(self):
        bw = (1 << 30) / self._arrival(NVSWITCH, 1 << 30)
        assert bw == pytest.approx(NVSWITCH.beta_bpus, rel=0.01)

    def test_effective_beta_with_store_forward(self):
        # PCIe has a host bounce: harmonic composition
        eff = PCIE_MRI.effective_beta(6000.0)
        assert eff < 6000.0
        assert eff == pytest.approx(1 / (1 / 6000 + 1 / 24000))

    def test_effective_beta_without_store_forward(self):
        assert NVSWITCH.effective_beta(1234.0) == 1234.0


class TestNode:
    def test_intra_path_switched(self):
        node = thetagpu(1).nodes[0]
        links = node.intra_path_links(0, 5)
        assert len(links) == 2  # dev -> switch -> dev
        assert all(l.kind == LinkKind.NVSWITCH for l in links)

    def test_intra_path_bus(self):
        node = mri(1).nodes[0]
        links = node.intra_path_links(0, 1)
        assert all(l.kind == LinkKind.PCIE for l in links)

    def test_same_device_empty_path(self):
        assert thetagpu(1).nodes[0].intra_path_links(3, 3) == []

    def test_device_to_nic(self):
        node = voyager(1).nodes[0]
        links = node.device_to_nic_links(2)
        assert len(links) >= 1

    def test_bad_device_index(self):
        with pytest.raises(TopologyError):
            thetagpu(1).nodes[0].device(8)

    @pytest.mark.parametrize("a,b", [(0, 8), (8, 0), (-1, 2)])
    def test_bad_path_index(self, a, b):
        with pytest.raises(TopologyError):
            thetagpu(1).nodes[0].intra_path_links(a, b)

    def test_bad_nic_path_index(self):
        with pytest.raises(TopologyError):
            thetagpu(1).nodes[0].device_to_nic_links(8)


#: ``Cluster.path`` of every device pair as the shortest-path walk over
#: each node's host / switch / NIC graph priced it: ``(alpha_us,
#: beta_bpus, bottleneck kind, bottleneck alpha_us, bottleneck beta_bpus,
#: bottleneck duplex_factor, fabric kind)``.  Same device and same node
#: are keyed by the node's interconnect, two nodes by both of theirs.
_LOCAL = {
    "xe_link": (0.5, 1600000.0, "xe_link", 0.5, 1600000.0, 2.0, None),
    "pcie": (0.5, 614000.0, "pcie", 0.5, 614000.0, 2.0, None),
    "nvswitch": (0.5, 777500.0, "nvswitch", 0.5, 777500.0, 2.0, None),
    "gaudi_roce": (0.5, 500000.0, "gaudi_roce", 0.5, 500000.0, 2.0, None),
}
_INTRA = {
    "xe_link": (2.0, 100000.0, "xe_link", 1.0, 100000.0, 1.5, None),
    "pcie": (3.2, 6600.0, "pcie", 1.6, 6600.0, 1.6, None),
    "nvswitch": (1.5, 146000.0, "nvswitch", 0.75, 146000.0, 1.32, None),
    "gaudi_roce": (5.0, 3150.0, "gaudi_roce", 2.5, 3150.0, 1.8, None),
}
_INTER = {
    ("xe_link", "xe_link"):
        (3.8, 23000.0, "slingshot", 1.8, 23000.0, 2.0, "slingshot"),
    ("pcie", "pcie"): (5.1, 6600.0, "pcie", 1.6, 6600.0, 1.6, "ib_hdr"),
    ("nvswitch", "nvswitch"):
        (3.4, 21000.0, "ib_hdr", 1.9, 21000.0, 2.0, "ib_hdr"),
    ("gaudi_roce", "gaudi_roce"):
        (7.6, 3150.0, "gaudi_roce", 2.5, 3150.0, 1.8, "eth_400g"),
    ("nvswitch", "pcie"): (4.25, 6600.0, "pcie", 1.6, 6600.0, 1.6, "ib_hdr"),
}


def _pinned_path(src, dst):
    ks, kd = src.node.intra_link.kind.value, dst.node.intra_link.kind.value
    if src is dst:
        return PathScope.LOCAL, _LOCAL[ks]
    if src.node is dst.node:
        return PathScope.INTRA, _INTRA[ks]
    return PathScope.INTER, _INTER[tuple(sorted((ks, kd)))]


@pytest.mark.parametrize("cluster", [
    *[(name, nodes) for name in system_names() for nodes in (1, 2)],
    ("nvidia:2,amd:2", None)], ids=str)
def test_every_device_pair_path_is_pinned(cluster):
    """Every pair of every preset, one and two nodes, and a mixed-vendor
    cluster: scope, alpha, beta and bottleneck as pinned above."""
    name, nodes = cluster
    c = make_system(name, nodes) if nodes else make_mixed_system(name)
    for src in c.devices:
        for dst in c.devices:
            p = c.path(src, dst)
            bn = p.bottleneck
            got = (p.alpha_us, p.beta_bpus, bn.kind.value, bn.alpha_us,
                   bn.beta_bpus, bn.duplex_factor,
                   None if p.fabric is None else p.fabric.kind.value)
            assert (p.scope, got) == _pinned_path(src, dst), (src, dst)


def test_importing_the_runtime_leaves_networkx_out():
    """The topology is a closed form: nothing the runtime or the
    experiments import pulls in a graph library."""
    code = ("import sys, repro.core.runtime, repro.experiments; "
            "sys.exit('networkx' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


class TestCluster:
    def test_path_scopes(self, thetagpu2):
        c = thetagpu2
        assert c.path(c.devices[0], c.devices[0]).scope == PathScope.LOCAL
        assert c.path(c.devices[0], c.devices[3]).scope == PathScope.INTRA
        assert c.path(c.devices[0], c.devices[9]).scope == PathScope.INTER

    def test_inter_path_carries_fabric(self, thetagpu2):
        c = thetagpu2
        p = c.path(c.devices[0], c.devices[8])
        assert p.fabric is not None
        assert p.fabric.kind == LinkKind.IB_HDR

    def test_intra_path_no_fabric(self, thetagpu2):
        c = thetagpu2
        assert c.path(c.devices[0], c.devices[1]).fabric is None

    def test_device_for_rank_block_placement(self, thetagpu2):
        c = thetagpu2
        assert c.device_for_rank(0) is c.nodes[0].devices[0]
        assert c.device_for_rank(8) is c.nodes[1].devices[0]

    def test_device_for_rank_custom_ppn(self, thetagpu2):
        c = thetagpu2
        assert c.device_for_rank(1, ranks_per_node=1) is c.nodes[1].devices[0]

    def test_rank_out_of_range(self, thetagpu2):
        with pytest.raises(TopologyError):
            thetagpu2.device_for_rank(16)

    def test_transfer_resources_switched_pair(self, thetagpu2):
        c = thetagpu2
        res = c.transfer_resources(c.devices[0], c.devices[1])
        assert res == [("intra", 0, 0, 1, "fwd")]
        rev = c.transfer_resources(c.devices[1], c.devices[0])
        assert rev == [("intra", 0, 0, 1, "rev")]

    def test_transfer_resources_bus(self, mri2):
        c = mri2
        res = c.transfer_resources(c.devices[0], c.devices[1])
        assert ("bus", 0, 0, "out") in res

    def test_transfer_resources_inter(self, thetagpu2):
        c = thetagpu2
        res = c.transfer_resources(c.devices[0], c.devices[8])
        assert ("nic", 0, 0, "out") in res
        assert ("nic", 1, 0, "in") in res

    def test_transfer_resources_multi_rail(self):
        from repro.hw.systems import make_system
        c = make_system("thetagpu", 2, nics=4)
        # devices map to rails round-robin by local index: flows from
        # different devices leave on different NICs and don't contend
        res = c.transfer_resources(c.devices[1], c.devices[8 + 5])
        assert ("nic", 0, 1, "out") in res
        assert ("nic", 1, 5 % 4, "in") in res

    def test_transfer_resources_local_empty(self, thetagpu2):
        c = thetagpu2
        assert c.transfer_resources(c.devices[0], c.devices[0]) == []

class TestSystems:
    def test_names(self):
        assert system_names() == ["aurora", "mri", "thetagpu", "voyager"]

    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            make_system("frontier")

    @pytest.mark.parametrize("name,devs", [("thetagpu", 8), ("mri", 2),
                                           ("voyager", 8)])
    def test_devices_per_node(self, name, devs):
        assert make_system(name, 1).device_count == devs

    def test_node_limits(self):
        with pytest.raises(ConfigError):
            thetagpu(25)
        with pytest.raises(ConfigError):
            voyager(0)

    def test_table1_covers_all_systems(self):
        assert set(TABLE1) == {"thetagpu", "mri", "voyager"}

    def test_multi_node_naming(self):
        c = make_system("mri", 3)
        assert [n.name for n in c.nodes] == ["mri00", "mri01", "mri02"]
