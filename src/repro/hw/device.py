"""Simulated accelerators and host CPUs.

An :class:`Accelerator` owns HBM (with a real allocator that accounts
against Table-1 capacities) and a small kernel cost model used by the
reduction kernels and the DL compute model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import DeviceMemoryError, InvalidBufferError
from repro.hw.memory import DeviceBuffer, storage_free
from repro.hw.vendors import Vendor

_device_ids = itertools.count()


@dataclass
class HostCPU:
    """Host processor of a node (Table 1, top rows)."""

    model: str
    sockets: int
    cores_per_socket: int
    memory_bytes: int


class Accelerator:
    """One simulated GPU/HPU.

    Args:
        vendor: hardware vendor (decides CCL compatibility).
        model: marketing name, e.g. ``"A100"``.
        hbm_bytes: device memory capacity.
        hbm_bw: device memory bandwidth, bytes/second.
        kernel_launch_us: time to launch one kernel, microseconds —
            the source of the CCL small-message latency floor.
        fp32_tflops: peak fp32 throughput, used by the DL compute model.
        local_index: index of the device within its node.
        payloads: False for a device whose buffers carry shapes but no
            contents (:func:`repro.hw.memory.storage_free`): same
            counts, views and HBM accounting, O(1) memory each.
    """

    def __init__(self, vendor: Vendor, model: str, hbm_bytes: int,
                 hbm_bw: float, kernel_launch_us: float,
                 fp32_tflops: float, local_index: int = 0,
                 payloads: bool = True) -> None:
        self.vendor = vendor
        self.model = model
        self.hbm_bytes = int(hbm_bytes)
        self.hbm_bw = float(hbm_bw)
        self.kernel_launch_us = float(kernel_launch_us)
        self.fp32_tflops = float(fp32_tflops)
        self.local_index = int(local_index)
        self.payloads = bool(payloads)
        self.global_id = next(_device_ids)
        self.node = None  # set by Node
        self._allocated = 0
        self._live: Dict[int, int] = {}

    # -- memory ---------------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently allocated on the device."""
        return self._allocated

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.hbm_bytes - self._allocated

    def empty(self, count: int, dtype=np.float32) -> DeviceBuffer:
        """Allocate ``count`` uninitialized elements on the device."""
        self._check_capacity(int(count) * np.dtype(dtype).itemsize)
        if not self.payloads:
            return self._alloc(storage_free(count, dtype))
        return self._alloc(np.empty(int(count), dtype=dtype))

    def zeros(self, count: int, dtype=np.float32) -> DeviceBuffer:
        """Allocate ``count`` zeroed elements on the device."""
        self._check_capacity(int(count) * np.dtype(dtype).itemsize)
        if not self.payloads:
            return self._alloc(storage_free(count, dtype))
        return self._alloc(np.zeros(int(count), dtype=dtype))

    def _check_capacity(self, nbytes: int) -> None:
        if nbytes > self.free_bytes:
            raise DeviceMemoryError(
                f"{self}: cannot allocate {nbytes} B "
                f"({self._allocated} of {self.hbm_bytes} B in use)")

    def from_numpy(self, arr: np.ndarray) -> DeviceBuffer:
        """Copy a host array into a fresh device allocation (H2D)."""
        if not self.payloads:
            raise InvalidBufferError(
                f"{self} holds no payloads: nothing to copy host data into")
        # one copy, C-ordered whatever the input's layout
        data = np.array(arr, order="C").reshape(-1)
        self._check_capacity(int(data.nbytes))
        return self._alloc(data)

    def _alloc(self, arr: np.ndarray) -> DeviceBuffer:
        nbytes = int(arr.nbytes)
        buf = DeviceBuffer(arr, self)
        self._allocated += nbytes
        self._live[id(buf)] = nbytes
        return buf

    def _release(self, buf: DeviceBuffer) -> None:
        nbytes = self._live.pop(id(buf), None)
        if nbytes is None:
            raise InvalidBufferError("double free or foreign buffer")
        self._allocated -= nbytes

    # -- kernel cost model -------------------------------------------------

    def kernel_time_us(self, bytes_touched: int, flops: float = 0.0) -> float:
        """Virtual execution time of one kernel.

        Max of the memory-bound estimate (bytes over HBM bandwidth) and
        the compute-bound estimate (flops over peak), plus the launch
        overhead.
        """
        mem_us = bytes_touched / self.hbm_bw * 1e6
        compute_us = flops / (self.fp32_tflops * 1e12) * 1e6 if flops else 0.0
        return self.kernel_launch_us + max(mem_us, compute_us)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Accelerator {self.vendor.value}:{self.model} #{self.global_id}>"
