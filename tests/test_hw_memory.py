"""Device/host buffers, views, residency checks, allocator accounting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceMemoryError, InvalidBufferError
from repro.hw.memory import (
    HostBuffer,
    as_array,
    buffer_vendor,
    is_device_buffer,
)
from repro.hw.systems import thetagpu, voyager
from repro.hw.vendors import Vendor


@pytest.fixture
def device():
    return thetagpu(1).devices[0]


class TestHostBuffer:
    def test_empty_and_zeros(self):
        assert HostBuffer.zeros(8).array.sum() == 0
        assert HostBuffer.empty(8, dtype=np.int32).dtype == np.int32

    def test_not_device(self):
        assert not is_device_buffer(HostBuffer.zeros(4))
        assert buffer_vendor(HostBuffer.zeros(4)) is None

    def test_fill_and_copy(self):
        a = HostBuffer.zeros(4)
        a.fill(2.5)
        b = HostBuffer.zeros(4)
        b.copy_from(a)
        assert np.all(b.array == 2.5)

    def test_copy_size_mismatch(self):
        with pytest.raises(InvalidBufferError):
            HostBuffer.zeros(4).copy_from(HostBuffer.zeros(5))

    def test_view_shares_memory(self):
        a = HostBuffer.zeros(8)
        v = a.view(2, 3)
        v.fill(1.0)
        assert a.array[2:5].sum() == 3.0
        assert v.count == 3

    def test_view_bounds(self):
        a = HostBuffer.zeros(8)
        with pytest.raises(InvalidBufferError):
            a.view(6, 4)
        with pytest.raises(InvalidBufferError):
            a.view(-1, 2)


class TestDeviceBuffer:
    def test_alloc_accounting(self, device):
        before = device.allocated_bytes
        buf = device.empty(1024, dtype=np.float32)
        assert device.allocated_bytes == before + 4096
        buf.free()
        assert device.allocated_bytes == before

    def test_double_free(self, device):
        buf = device.empty(16)
        buf.free()
        with pytest.raises(InvalidBufferError):
            buf.free()

    def test_use_after_free(self, device):
        buf = device.empty(16)
        buf.free()
        with pytest.raises(InvalidBufferError):
            buf.fill(1.0)

    def test_view_cannot_free(self, device):
        buf = device.empty(16)
        with pytest.raises(InvalidBufferError):
            buf.view(0, 8).free()
        buf.free()

    def test_view_of_freed_root_unusable(self, device):
        buf = device.empty(16)
        v = buf.view(0, 8)
        buf.free()
        with pytest.raises(InvalidBufferError):
            v.to_numpy()

    def test_last_reference_releases_accounting(self, device):
        before = device.allocated_bytes
        buf = device.empty(1024)
        view = buf.view(0, 8)
        del buf     # the view keeps its root allocated
        assert device.allocated_bytes == before + 4096
        del view    # refcounting alone: no cycle, no collector
        assert device.allocated_bytes == before

    def test_over_capacity(self, device):
        with pytest.raises(DeviceMemoryError):
            device.malloc(device.hbm_bytes + 1)

    def test_residency_and_vendor(self, device):
        buf = device.empty(4)
        assert is_device_buffer(buf)
        assert buffer_vendor(buf) is Vendor.NVIDIA
        assert buffer_vendor(voyager(1).devices[0].empty(4)) is Vendor.HABANA

    def test_from_numpy_is_copy(self, device):
        src = np.arange(8, dtype=np.float64)
        buf = device.from_numpy(src)
        src[:] = 0
        assert np.all(buf.array == np.arange(8))

    def test_malloc_itemsize_mismatch(self, device):
        with pytest.raises(InvalidBufferError):
            device.malloc(7, dtype=np.float32)

    @given(st.integers(min_value=1, max_value=4096),
           st.integers(min_value=0, max_value=4095))
    def test_view_invariants(self, count, offset):
        device = thetagpu(1).devices[0]
        buf = device.empty(4096, dtype=np.uint8)
        if offset + count <= 4096:
            v = buf.view(offset, count)
            assert v.count == count
            assert v.on_device
        else:
            with pytest.raises(InvalidBufferError):
                buf.view(offset, count)


class TestAsArray:
    def test_buffer_passthrough(self, device):
        buf = device.empty(4)
        assert as_array(buf) is buf.array

    def test_ndarray_flattened(self):
        arr = np.zeros((2, 3))
        assert as_array(arr).shape == (6,)

    def test_list_converted(self):
        assert as_array([1, 2, 3]).shape == (3,)
