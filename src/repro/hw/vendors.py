"""Accelerator vendor taxonomy.

The abstraction layer (Fig. 2 of the paper) keys everything on the
vendor of the local accelerator: which CCL to load (NCCL, RCCL, HCCL,
MSCCL), which runtime stack owns the device (CUDA, ROCm/HIP, SynapseAI),
and which datatype tables apply.
"""

from __future__ import annotations

import enum
from typing import List, Tuple


class Vendor(enum.Enum):
    """Accelerator vendors covered by the paper's evaluation, plus
    Intel — the paper's stated future work ("extend support to
    additional hardware like Intel GPUs ... and new vendor-specific
    libraries like oneCCL", §6), implemented here as the extension
    exercise for the plug-in design."""

    NVIDIA = "nvidia"
    AMD = "amd"
    HABANA = "habana"
    INTEL = "intel"

    @property
    def native_ccl(self) -> str:
        """The vendor-provided CCL name (NCCL / RCCL / HCCL)."""
        return _NATIVE_CCL[self]

    @classmethod
    def parse(cls, name: str) -> "Vendor":
        """Parse a vendor from a case-insensitive string."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(v.value for v in cls)
            raise ValueError(f"unknown vendor {name!r}; expected one of: {valid}") from None


_NATIVE_CCL = {
    Vendor.NVIDIA: "nccl",
    Vendor.AMD: "rccl",
    Vendor.HABANA: "hccl",
    Vendor.INTEL: "oneccl",
}

#: Which CCL backends can drive which vendor's devices.  MSCCL runs on
#: NVIDIA hardware (it wraps an NCCL build), per §2.1 of the paper.
COMPATIBLE_CCLS = {
    Vendor.NVIDIA: ("nccl", "msccl"),
    Vendor.AMD: ("rccl",),
    Vendor.HABANA: ("hccl",),
    Vendor.INTEL: ("oneccl",),
}


def default_ccl_for(vendor: Vendor) -> str:
    """The CCL the runtime auto-selects for ``vendor`` (first compatible)."""
    return COMPATIBLE_CCLS[vendor][0]


def parse_vendor_counts(spec: str) -> List[Tuple[Vendor, int]]:
    """Parse a per-node vendor spec like ``nvidia:2,amd:2`` into
    ``(vendor, node count)`` pairs, order preserved.

    A bare vendor name means one node (``nvidia,amd`` = one of each).

    >>> parse_vendor_counts("nvidia:2,amd:2")
    [(<Vendor.NVIDIA: 'nvidia'>, 2), (<Vendor.AMD: 'amd'>, 2)]
    """
    pairs: List[Tuple[Vendor, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition(":")
        vendor = Vendor.parse(name)
        try:
            nodes = int(count) if count else 1
        except ValueError:
            raise ValueError(
                f"bad node count in vendor spec {part!r}; expected "
                f"VENDOR or VENDOR:NODES") from None
        if nodes < 1:
            raise ValueError(f"vendor spec {part!r}: node count must be >= 1")
        pairs.append((vendor, nodes))
    if not pairs:
        raise ValueError(f"empty vendor spec {spec!r}")
    return pairs
