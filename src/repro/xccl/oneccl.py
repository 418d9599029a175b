"""oneCCL: Intel's collective library (the paper's §6 future work).

The conclusion names this exact extension: "Future work aims to extend
support to additional hardware like Intel GPUs ... and new
vendor-specific libraries like oneCCL."  This module is that extension,
done the way the plug-in design intends: a params block, a datatype
table, and a registry entry — no changes anywhere else in the runtime.

oneCCL's API differs more from NCCL than the other xCCLs do (C++
``ccl::allreduce`` with futures rather than ``ncclAllReduce`` on a
stream), which is precisely the surface the abstraction layer exists to
hide; the simulated backend exposes the same unified interface.
"""

from __future__ import annotations

from repro.hw.vendors import Vendor
from repro.perfmodel.params import ONECCL as ONECCL_PARAMS
from repro.xccl.backend import CCLBackend
from repro.xccl.caps import CapabilityDescriptor
from repro.xccl.datatypes import NCCL_FAMILY_TYPES


class OneCCLBackend(CCLBackend):
    """Intel oneCCL over Level Zero / Xe-Link."""

    name = "oneccl"
    vendors = (Vendor.INTEL,)
    params = ONECCL_PARAMS
    #: oneCCL covers the NCCL-family scalar types (and, like the
    #: others, nothing complex) — declared once in the descriptor.
    capabilities = CapabilityDescriptor("oneccl", NCCL_FAMILY_TYPES,
                                        max_ranks=1 << 14)
    version = "2021.11"
