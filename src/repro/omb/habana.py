"""Habana device-buffer support for OMB (a paper contribution, §1.3).

OMB v7.2 can allocate CUDA and ROCm device buffers but had no Habana
support; the authors ported OMB 7.0 using SynapseAI Software Suite
APIs.  This module is that port's analogue: a SynapseAI-flavored
allocation surface (``synDeviceAcquire`` / ``synDeviceMalloc`` /
``synDeviceFree``) over the simulated Gaudi devices, exported from
:mod:`repro.omb` for programs that allocate the way the port does.  The
OMB harness itself does not call it: ``omb.collective`` and
``omb.pt2pt`` allocate through the rank's ``ctx.device`` on every
vendor, Gaudi included, and this surface hands back the same kind of
device buffer.
"""

from __future__ import annotations


import numpy as np

from repro.errors import HardwareError
from repro.hw.cluster import Cluster
from repro.hw.device import Accelerator
from repro.hw.memory import DeviceBuffer
from repro.hw.vendors import Vendor


def synapse_device_count(cluster: Cluster) -> int:
    """``synDeviceGetCount``: Gaudi devices in the cluster."""
    return sum(1 for d in cluster.devices if d.vendor is Vendor.HABANA)


def synapse_acquire(device: Accelerator) -> Accelerator:
    """``synDeviceAcquire``: validate the device is a Gaudi and hand
    back the handle OMB's Habana port would hold."""
    if device.vendor is not Vendor.HABANA:
        raise HardwareError(
            f"synDeviceAcquire on non-Habana device {device.model} "
            f"({device.vendor.value})")
    return device


def hpu_alloc(device: Accelerator, nbytes: int,
              dtype=np.uint8) -> DeviceBuffer:
    """``synDeviceMalloc``: allocate an HPU buffer of ``nbytes``.

    The pointer OMB passes to MPI: a normal device buffer, so the
    runtime's "Device Buffer Identify" sees HPU memory like any other
    accelerator memory — the property the paper's port relies on.
    """
    dev = synapse_acquire(device)
    return dev.malloc(nbytes, dtype=dtype)


def hpu_free(buf: DeviceBuffer) -> None:
    """``synDeviceFree``."""
    if buf.device.vendor is not Vendor.HABANA:
        raise HardwareError("synDeviceFree on a non-Habana buffer")
    buf.free()


def alloc_device_buffer(device: Accelerator, nbytes: int) -> DeviceBuffer:
    """Vendor-dispatching OMB allocation: CUDA, ROCm (hip), or the
    Habana port above — the switch OMB's util layer performs."""
    if device.vendor is Vendor.HABANA:
        return hpu_alloc(device, nbytes)
    return device.malloc(nbytes)
