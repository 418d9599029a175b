"""Clusters and end-to-end transfer paths.

A :class:`Cluster` is a list of identical (or heterogeneous) nodes plus
an inter-node fabric.  Its central service is :meth:`Cluster.path`: a
composed alpha-beta :class:`TransferPath` between any two accelerators,
distinguishing local (same device), intra-node, and inter-node
transfers — the raw substrate every communication layer prices its
messages against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import TopologyError
from repro.hw.device import Accelerator
from repro.hw.links import LinkModel
from repro.hw.node import Node


class PathScope(enum.Enum):
    """Where a transfer travels."""

    LOCAL = "local"    # same device (D2D within one accelerator)
    INTRA = "intra"    # two devices on one node
    INTER = "inter"    # devices on different nodes


@dataclass(frozen=True)
class TransferPath:
    """A composed channel between two accelerators.

    ``alpha_us`` sums segment latencies; ``beta_bpus`` is the bottleneck
    segment bandwidth; ``bottleneck`` is that segment's model (used for
    duplex/saturation questions).  For inter-node paths ``fabric`` is
    the fabric link: RDMA engines stream device memory to the NIC
    without store-and-forward at each hop, so communication layers
    calibrated against the fabric price against ``fabric.beta_bpus``
    rather than the composed hop minimum.
    """

    scope: PathScope
    alpha_us: float
    beta_bpus: float
    bottleneck: LinkModel
    fabric: Optional[LinkModel] = None


def _compose(scope: PathScope, links: List[LinkModel]) -> TransferPath:
    if not links:
        raise TopologyError("cannot compose an empty path")
    alpha = sum(l.alpha_us for l in links)
    bottleneck = min(links, key=lambda l: l.beta_bpus)
    return TransferPath(scope, alpha, bottleneck.beta_bpus, bottleneck)


class Cluster:
    """A named collection of nodes joined by one fabric.

    Args:
        name: system name (``"thetagpu"``...).
        nodes: member nodes.
        fabric: inter-node link model (both NICs plus switch hops are
            folded into its alpha).
    """

    def __init__(self, name: str, nodes: List[Node], fabric: LinkModel) -> None:
        if not nodes:
            raise TopologyError("cluster needs at least one node")
        self.name = name
        self.nodes = list(nodes)
        self.fabric = fabric
        self._node_of = {}
        for ni, node in enumerate(self.nodes):
            for dev in node.devices:
                self._node_of[dev.global_id] = ni

    # -- inventory ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def devices(self) -> List[Accelerator]:
        """All accelerators, node-major order."""
        return [d for n in self.nodes for d in n.devices]

    @property
    def device_count(self) -> int:
        """Total accelerators in the cluster."""
        return sum(n.device_count for n in self.nodes)

    def node_index_of(self, device: Accelerator) -> int:
        """Index of the node hosting ``device``."""
        try:
            return self._node_of[device.global_id]
        except KeyError:
            raise TopologyError(f"{device!r} is not in cluster {self.name}") from None

    def device_for_rank(self, rank: int, ranks_per_node: Optional[int] = None) -> Accelerator:
        """Block placement of MPI ranks onto devices, node-major.

        With ``ranks_per_node`` unset, uses each node's device count
        (one rank per device — the paper's configuration everywhere).
        """
        if rank < 0:
            raise TopologyError(f"negative rank {rank}")
        remaining = rank
        for node in self.nodes:
            ppn = ranks_per_node if ranks_per_node is not None else node.device_count
            if remaining < ppn:
                return node.device(remaining % node.device_count)
            remaining -= ppn
        raise TopologyError(f"rank {rank} exceeds cluster capacity")

    # -- paths ---------------------------------------------------------------

    def path(self, src: Accelerator, dst: Accelerator) -> TransferPath:
        """Composed transfer path between two accelerators."""
        if src.global_id == dst.global_id:
            # D2D on the same device: HBM copy, no interconnect
            beta = src.hbm_bw / 1e6  # bytes/us; factor 2 for read+write
            return TransferPath(PathScope.LOCAL, 0.5, beta / 2.0,
                                LinkModel(kind=src.node.intra_link.kind,
                                          alpha_us=0.5, beta_bpus=beta / 2.0,
                                          duplex_factor=2.0))
        ni, nj = self.node_index_of(src), self.node_index_of(dst)
        if ni == nj:
            node = self.nodes[ni]
            links = node.intra_path_links(src.local_index, dst.local_index)
            return _compose(PathScope.INTRA, links)
        links = (self.nodes[ni].device_to_nic_links(src.local_index)
                 + [self.fabric]
                 + self.nodes[nj].device_to_nic_links(dst.local_index))
        composed = _compose(PathScope.INTER, links)
        return TransferPath(composed.scope, composed.alpha_us,
                            composed.beta_bpus, composed.bottleneck,
                            fabric=self.fabric)

    def transfer_resources(self, src: Accelerator, dst: Accelerator) -> List[Tuple]:
        """Directed wire resources a src→dst transfer occupies.

        Used by :class:`repro.sim.wire.WireTracker` to serialize
        concurrent transfers:

        * same device — no shared wire (HBM copy);
        * switched intra-node (NVSwitch, Gaudi RoCE) — a private
          per-device-pair wire, direction-tagged;
        * bus intra-node (PCIe) — the node-wide bus, shared by every
          pair, direction-tagged;
        * inter-node — the source NIC egress and destination NIC
          ingress.  Multi-rail nodes (``Node.nics > 1``) map each
          device to rail ``local_index % nics``, so flows from
          different devices occupy distinct NIC channels and leave
          the node in parallel.
        """
        if src.global_id == dst.global_id:
            return []
        ni, nj = self.node_index_of(src), self.node_index_of(dst)
        if ni == nj:
            node = self.nodes[ni]
            if node.switched:
                lo, hi = sorted((src.local_index, dst.local_index))
                direction = "fwd" if src.local_index < dst.local_index else "rev"
                return [("intra", ni, lo, hi, direction)]
            # shared bus: every pair contends; tag by src-side direction
            return [("bus", ni, src.local_index, "out"),
                    ("bus", ni, dst.local_index, "in")]
        rail_out = src.local_index % self.nodes[ni].nics
        rail_in = dst.local_index % self.nodes[nj].nics
        return [("nic", ni, rail_out, "out"), ("nic", nj, rail_in, "in")]
