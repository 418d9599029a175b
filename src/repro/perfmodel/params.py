"""Calibrated per-backend constants.

Every number here traces to a measurement reported in the paper's §4
(or to the figure shapes it describes):

=============  ======================================================
anchor          paper value (model prediction in parentheses)
=============  ======================================================
NCCL  intra    56 us @4 MB (57), 137031 MB/s uni (137240),
               181204 MB/s bidir, 20 us launch overhead
RCCL  intra    836 us @4 MB (851), 6351 MB/s (6336), 25 us launch
HCCL  intra    1651 us @4 MB (1650), 3044 MB/s (3056), 270 us launch
MSCCL intra    100 us @4 MB (97), 112439 MB/s (112420), 28 us launch
NCCL  inter    255 us @4 MB (254)
RCCL  inter    579 us @4 MB (576)
HCCL  inter    835 us @4 MB (834)
MSCCL inter    230 us @4 MB (233)
=============  ======================================================

``store_forward_*_bpus`` covers the second copy of a two-hop data path
(e.g. MI100 PCIe traffic bouncing through host memory): the latency
test pays it per message, while a pipelined bandwidth window hides it —
matching RCCL's 836 us latency *and* 6351 MB/s bandwidth at 4 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigError

_NO_SF = 1e12  # effectively disables the store-forward term


@dataclass(frozen=True)
class CCLParams:
    """Cost-model constants of one vendor CCL.

    Attributes:
        name: backend name ("nccl", "rccl", "hccl", "msccl").
        launch_us: per-operation launch overhead (kernel + proxy),
            charged once per op or group — the small-message floor.
        inter_extra_launch_us: additional fixed cost when the
            communicator spans nodes.
        step_alpha_intra_us / step_alpha_inter_us: per-algorithm-step
            latency (ring hop, tree level) on top of link alphas.
        bw_eff_intra / bw_eff_inter: fraction of the raw link bandwidth
            the backend's data path achieves.
        store_forward_intra_bpus / store_forward_inter_bpus: secondary
            copy-hop throughput charged per unpipelined message
            (see module docstring).
        bibw_ratio: measured bidirectional/unidirectional bandwidth
            ratio of the backend's p2p path.
        tree_threshold_bytes: below this, allreduce/bcast use the
            double-binary-tree path; above, rings.
        ring_segments: pipeline depth for large-message rings (hides
            step latency for big payloads).
    """

    name: str
    launch_us: float
    inter_extra_launch_us: float
    step_alpha_intra_us: float
    step_alpha_inter_us: float
    bw_eff_intra: float
    bw_eff_inter: float
    store_forward_intra_bpus: float
    store_forward_inter_bpus: float
    bibw_ratio: float
    tree_threshold_bytes: int
    ring_segments: int = 8

    def step_alpha(self, inter: bool) -> float:
        """Per-step latency for an intra- or inter-node hop."""
        return self.step_alpha_inter_us if inter else self.step_alpha_intra_us

    def store_forward_bpus(self, inter: bool) -> float:
        """Store-forward throughput by hop kind."""
        return self.store_forward_inter_bpus if inter else self.store_forward_intra_bpus


#: NCCL 2.18-style constants on an NVSwitch DGX A100 system.
NCCL = CCLParams(
    name="nccl",
    launch_us=20.0,
    inter_extra_launch_us=6.0,
    step_alpha_intra_us=1.8,
    step_alpha_inter_us=5.5,
    bw_eff_intra=0.94,       # 137 GB/s of 146 GB/s raw NVSwitch port
    bw_eff_inter=0.89,       # ~18.7 GB/s of 21 GB/s raw HDR
    store_forward_intra_bpus=2_000_000.0,
    store_forward_inter_bpus=_NO_SF,
    bibw_ratio=1.32,         # 181204 / 137031
    tree_threshold_bytes=256 * 1024,
)

#: RCCL on PCIe-attached MI100s (no GPU-direct peer path on MRI).
RCCL = CCLParams(
    name="rccl",
    launch_us=25.0,
    inter_extra_launch_us=8.0,
    step_alpha_intra_us=3.0,
    step_alpha_inter_us=7.0,
    bw_eff_intra=0.96,       # 6.35 GB/s of the 6.6 GB/s effective PCIe path
    bw_eff_inter=0.53,       # ~11.1 GB/s of raw HDR (host-bounced RDMA)
    store_forward_intra_bpus=26_000.0,   # bounce through host DDR4
    store_forward_inter_bpus=26_000.0,
    bibw_ratio=1.55,
    tree_threshold_bytes=64 * 1024,
)

#: HCCL on Gaudi's integrated RoCE (SynapseAI launch path is heavy).
HCCL = CCLParams(
    name="hccl",
    launch_us=270.0,
    inter_extra_launch_us=12.0,
    step_alpha_intra_us=9.0,
    step_alpha_inter_us=14.0,
    bw_eff_intra=0.97,       # 3.04 GB/s of 3.15 raw per-port RoCE
    bw_eff_inter=1.00,       # the Arista fabric constant already is effective
    store_forward_intra_bpus=2_000_000.0,
    store_forward_inter_bpus=_NO_SF,
    bibw_ratio=1.8,
    tree_threshold_bytes=32 * 1024,
)

#: MSCCL wrapping NCCL 2.12.12: slightly lower large-message bandwidth,
#: different fixed costs, plus compiled custom-algorithm wins for
#: medium sizes (§4.3).
MSCCL = CCLParams(
    name="msccl",
    launch_us=28.0,
    inter_extra_launch_us=0.0,
    step_alpha_intra_us=1.3,
    step_alpha_inter_us=4.2,
    bw_eff_intra=0.77,       # 112.4 GB/s of raw NVSwitch
    bw_eff_inter=0.99,       # ~20.8 GB/s of raw HDR
    store_forward_intra_bpus=140_000.0,
    store_forward_inter_bpus=_NO_SF,
    bibw_ratio=1.17,         # 131859 / 112439
    tree_threshold_bytes=256 * 1024,
)

#: oneCCL on Ponte Vecchio / Xe-Link (extension; no paper anchors —
#: constants follow published oneCCL/Aurora characterization ballparks).
ONECCL = CCLParams(
    name="oneccl",
    launch_us=32.0,
    inter_extra_launch_us=8.0,
    step_alpha_intra_us=2.2,
    step_alpha_inter_us=5.0,
    bw_eff_intra=0.85,
    bw_eff_inter=0.80,
    store_forward_intra_bpus=2_000_000.0,
    store_forward_inter_bpus=_NO_SF,
    bibw_ratio=1.4,
    tree_threshold_bytes=128 * 1024,
)

BACKEND_PARAMS: Dict[str, CCLParams] = {
    p.name: p for p in (NCCL, RCCL, HCCL, MSCCL, ONECCL)
}


def ccl_params(name: str) -> CCLParams:
    """Constants for a backend by name."""
    try:
        return BACKEND_PARAMS[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown CCL backend {name!r}; have {sorted(BACKEND_PARAMS)}") from None
