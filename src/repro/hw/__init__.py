"""Simulated hardware substrate.

The paper evaluates on three real systems (Table 1): ThetaGPU (NVIDIA
A100 + NVSwitch), MRI (AMD MI100 over PCIe), and Voyager (Habana Gaudi
over RoCE).  None of that hardware exists in this environment, so this
package provides the closest synthetic equivalent that exercises the
same code paths:

* accelerators with real (numpy-backed) device memory and allocators —
  or storage-free memory (``payloads=False``) that keeps only shapes,
  for runs that never read what they move,
* alpha-beta link models for NVLink/NVSwitch, PCIe, xGMI, Gaudi RoCE,
  InfiniBand HDR and 400G Ethernet fabrics,
* nodes and clusters with explicit intra/inter-node topology,
* presets reproducing Table 1 of the paper.
"""

from repro.hw.vendors import Vendor
from repro.hw.memory import (
    Buffer,
    HostBuffer,
    DeviceBuffer,
    is_device_buffer,
    buffer_vendor,
)
from repro.hw.device import Accelerator, HostCPU
from repro.hw.links import LinkModel, LinkKind
from repro.hw.node import Node
from repro.hw.cluster import Cluster, TransferPath
from repro.hw.systems import (
    make_system,
    system_names,
    thetagpu,
    mri,
    voyager,
)

__all__ = [
    "Vendor",
    "Buffer",
    "HostBuffer",
    "DeviceBuffer",
    "is_device_buffer",
    "buffer_vendor",
    "Accelerator",
    "HostCPU",
    "LinkModel",
    "LinkKind",
    "Node",
    "Cluster",
    "TransferPath",
    "make_system",
    "system_names",
    "thetagpu",
    "mri",
    "voyager",
]
