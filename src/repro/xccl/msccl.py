"""MSCCL: Microsoft's programmable collective library (simulated).

MSCCL wraps an NCCL build (2.12.12 at the paper's evaluation time) and
substitutes compiled custom algorithms where they win — here modeled by
the program registry (:mod:`repro.xccl.msccl_programs`), which
accelerates medium-size collectives (256 B – 256 KB, §4.3) over the
NCCL 2.12 baseline.
"""

from __future__ import annotations

from repro.hw.vendors import Vendor
from repro.perfmodel.params import MSCCL as MSCCL_PARAMS
from repro.xccl.backend import CCLBackend
from repro.xccl.caps import CapabilityDescriptor
from repro.xccl.datatypes import NCCL_FAMILY_TYPES


class MSCCLBackend(CCLBackend):
    """Microsoft MSCCL (runs on NVIDIA hardware, like the paper's
    ThetaGPU evaluation)."""

    name = "msccl"
    vendors = (Vendor.NVIDIA,)
    params = MSCCL_PARAMS
    capabilities = CapabilityDescriptor("msccl", NCCL_FAMILY_TYPES,
                                        max_ranks=1 << 13)
    #: the wrapped NCCL build
    version = "msccl-0.7 (nccl 2.12.12)"
