"""RCCL: AMD's ROCm collective communication library (simulated).

API-compatible with NCCL (RCCL literally reuses ``ncclAllReduce``
symbol names); what differs is the substrate: on MRI the MI100s sit on
PCIe with no peer-to-peer path, so traffic bounces through host memory
— the source of the paper's 836 us @4 MB latency vs NCCL's 56 us.
"""

from __future__ import annotations

from repro.hw.vendors import Vendor
from repro.perfmodel.params import RCCL as RCCL_PARAMS
from repro.xccl.backend import CCLBackend
from repro.xccl.caps import CapabilityDescriptor
from repro.xccl.datatypes import NCCL_FAMILY_TYPES


class RCCLBackend(CCLBackend):
    """AMD RCCL over the ROCm/HIP stack."""

    name = "rccl"
    vendors = (Vendor.AMD,)
    params = RCCL_PARAMS
    capabilities = CapabilityDescriptor("rccl", NCCL_FAMILY_TYPES,
                                        max_ranks=1 << 14)
    version = "2.11.4"
