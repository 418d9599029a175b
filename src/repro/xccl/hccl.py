"""HCCL: Habana's collective communication library (simulated).

Habana's NCCL-compatible emulation layer inside the SynapseAI suite,
targeting Gaudi's integrated RoCE v2 NICs.  Two properties matter for
the paper's story:

* the launch path is heavy (270 us floor — the step curves of Fig. 6's
  Habana panels, 7-12x worse than the other backends at 16-64 B, which
  the hybrid design then fixes);
* the datatype table is a single entry: ``float`` (§3.2), so every
  non-float MPI call through the abstraction layer falls back to MPI.
"""

from __future__ import annotations

from repro.hw.vendors import Vendor
from repro.perfmodel.params import HCCL as HCCL_PARAMS
from repro.xccl.backend import CCLBackend
from repro.xccl.caps import CapabilityDescriptor, WIRE_HOST
from repro.xccl.datatypes import HCCL_TYPES


class HCCLBackend(CCLBackend):
    """Habana HCCL over SynapseAI."""

    name = "hccl"
    vendors = (Vendor.HABANA,)
    params = HCCL_PARAMS
    #: float only; speaks only the host wire format (the Gaudi's
    #: host-staged interop path)
    capabilities = CapabilityDescriptor("hccl", HCCL_TYPES, max_ranks=8192,
                                        wire_formats=(WIRE_HOST,))
    version = "1.11.0"
