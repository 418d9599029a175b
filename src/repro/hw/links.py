"""Alpha-beta link models.

Every interconnect in the paper's three systems is modeled as an
``alpha + n/beta`` channel: ``alpha_us`` is the per-message latency in
microseconds, ``beta_bpus`` the bandwidth in bytes per microsecond
(1 GB/s == 1000 B/us).  Concurrent flows on one resource serialize in
the wire tracker (:mod:`repro.sim.wire`) — the mechanism behind
alltoall's ``(p-1)`` slowdown on a single NIC.

The constants are *effective* numbers calibrated to the paper's own
measurements (DESIGN.md §2), not datasheet peaks: e.g. the paper
measures 137 GB/s NCCL point-to-point through NVSwitch and 6.35 GB/s
RCCL through MRI's PCIe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LinkKind(enum.Enum):
    """Interconnect technologies appearing in Table 1 systems."""

    NVSWITCH = "nvswitch"      # ThetaGPU intra-node (2nd-gen NVSwitch)
    PCIE = "pcie"              # MRI intra-node (MI100s on PCIe)
    GAUDI_ROCE = "gaudi_roce"  # Voyager intra-node (Gaudi on-chip RoCE)
    IB_HDR = "ib_hdr"          # ThetaGPU / MRI inter-node (ConnectX-6 HDR)
    ETH_400G = "eth_400g"      # Voyager inter-node (Arista 400 Gbps)
    XE_LINK = "xe_link"        # Intel PVC intra-node (extension, paper §6)
    SLINGSHOT = "slingshot"    # HPE Slingshot-11 fabric (extension)
    HOST = "host"              # host-memory staging path (memcpy)


@dataclass(frozen=True)
class LinkModel:
    """One alpha-beta channel.

    Attributes:
        kind: interconnect technology.
        alpha_us: per-message latency (microseconds).
        beta_bpus: bandwidth in bytes/microsecond.
        duplex_factor: aggregate bidirectional capacity relative to one
            direction (2.0 = full duplex, <2 = shared-bus contention).
        store_forward_bpus: throughput of a mandatory intermediate copy
            (0 = none).  MRI's PCIe path has no peer DMA, so *every*
            runtime's single transfer bounces through host memory.
    """

    kind: LinkKind
    alpha_us: float
    beta_bpus: float
    duplex_factor: float = 2.0
    store_forward_bpus: float = 0.0

    def effective_beta(self, beta_bpus: float) -> float:
        """Fold the store-forward hop into a channel bandwidth
        (harmonic mean; no-op when the link has no such hop)."""
        if self.store_forward_bpus <= 0:
            return beta_bpus
        return 1.0 / (1.0 / beta_bpus + 1.0 / self.store_forward_bpus)


# ---------------------------------------------------------------------------
# Raw (technology-level) link library.
#
# beta in bytes/us: 1 GB/s = 1000 B/us. Values are effective numbers
# anchored to the paper's measurements; see DESIGN.md §4 for anchors.
# ---------------------------------------------------------------------------

#: ThetaGPU NVSwitch: NCCL reaches 137 GB/s uni / 181 GB/s aggregate
#: bidirectional through one GPU port (paper §4.2).
NVSWITCH = LinkModel(LinkKind.NVSWITCH, alpha_us=0.75, beta_bpus=146000.0,
                     duplex_factor=1.32)

#: MRI MI100s hang off PCIe; the paper measures 6.35 GB/s end-to-end.
PCIE_MRI = LinkModel(LinkKind.PCIE, alpha_us=1.6, beta_bpus=6600.0,
                     duplex_factor=1.6, store_forward_bpus=24000.0)

#: Voyager Gaudi intra-node RoCE ports: 3.04 GB/s measured end-to-end.
GAUDI_ROCE = LinkModel(LinkKind.GAUDI_ROCE, alpha_us=2.5, beta_bpus=3150.0,
                       duplex_factor=1.8)

#: ConnectX-6 HDR (200 Gb/s), raw RDMA capability.  Per-backend
#: efficiency factors (perfmodel.params) map this to the paper's
#: effective numbers: NCCL ~17.8 GB/s (255 us at 4 MB), MSCCL ~20.8.
IB_HDR = LinkModel(LinkKind.IB_HDR, alpha_us=1.9, beta_bpus=21000.0,
                   duplex_factor=2.0)

#: Voyager's Arista 400 Gb/s fabric; HCCL reaches ~7.4 GB/s end-to-end
#: at 4 MB (835 us total with a 270 us launch floor).
ETH_400G = LinkModel(LinkKind.ETH_400G, alpha_us=2.6, beta_bpus=7700.0,
                     duplex_factor=2.0)

#: Intel Ponte Vecchio Xe-Link fabric (extension system): dense
#: all-to-all bridges, ~100 GB/s effective per pair.
XE_LINK = LinkModel(LinkKind.XE_LINK, alpha_us=1.0, beta_bpus=100000.0,
                    duplex_factor=1.5)

#: HPE Slingshot-11 (200 Gb/s per NIC) for the extension system.
SLINGSHOT = LinkModel(LinkKind.SLINGSHOT, alpha_us=1.8, beta_bpus=23000.0,
                      duplex_factor=2.0)

#: Host memcpy path (staging pipelines); DDR4 stream bandwidth.
HOST_MEMCPY = LinkModel(LinkKind.HOST, alpha_us=0.4, beta_bpus=24000.0,
                        duplex_factor=1.0)

RAW_LINKS = {
    LinkKind.NVSWITCH: NVSWITCH,
    LinkKind.PCIE: PCIE_MRI,
    LinkKind.GAUDI_ROCE: GAUDI_ROCE,
    LinkKind.IB_HDR: IB_HDR,
    LinkKind.ETH_400G: ETH_400G,
    LinkKind.XE_LINK: XE_LINK,
    LinkKind.SLINGSHOT: SLINGSHOT,
    LinkKind.HOST: HOST_MEMCPY,
}
