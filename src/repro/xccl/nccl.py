"""NCCL: NVIDIA's collective communication library (simulated).

Models NCCL 2.18-era behaviour on an NVSwitch DGX A100 system: 20 us
launch floor, 137 GB/s p2p through a switch port, double binary trees
for small/medium collectives and multi-channel rings for large ones.
A legacy-version variant (:class:`NCCL2_11Backend`, registered as
``nccl-2.11``) exists because the paper's TensorFlow evaluation pins
NCCL 2.11.4 (§4.4).
"""

from __future__ import annotations

from dataclasses import replace

from repro.hw.vendors import Vendor
from repro.perfmodel.params import NCCL as NCCL_PARAMS
from repro.xccl.backend import CCLBackend
from repro.xccl.caps import CapabilityDescriptor
from repro.xccl.datatypes import NCCL_FAMILY_TYPES


class NCCLBackend(CCLBackend):
    """NVIDIA NCCL."""

    name = "nccl"
    vendors = (Vendor.NVIDIA,)
    params = NCCL_PARAMS
    capabilities = CapabilityDescriptor("nccl", NCCL_FAMILY_TYPES)

    #: library version the simulation mimics (latest at paper time)
    version = "2.18.3"


class NCCL2_11Backend(NCCLBackend):
    """NCCL 2.11.4: the older build TensorFlow/Horovod on ThetaGPU
    required; slightly slower launch path and large-message bandwidth,
    but (unlike 2.18.3 there) it *works* — the paper's §4.4 anecdote.
    """

    version = "2.11.4"
    params = replace(NCCL_PARAMS, launch_us=22.0, bw_eff_intra=0.90,
                     bw_eff_inter=0.85)


class NCCL2_12Backend(NCCLBackend):
    """NCCL 2.12.12: the version MSCCL wraps (§4.3, Fig 5d baseline)."""

    version = "2.12.12"
    params = replace(NCCL_PARAMS, launch_us=21.0, bw_eff_intra=0.80,
                     bw_eff_inter=0.92)

