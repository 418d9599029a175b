"""Device/host buffers, views, residency checks, allocator accounting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import DeviceMemoryError, InvalidBufferError
from repro.hw.memory import (
    HostBuffer,
    as_array,
    buffer_vendor,
    has_storage,
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

    def test_from_numpy_copies_once(self, device):
        """A non-contiguous input is copied once, straight into the
        allocation, in C order."""
        n = 1 << 20
        src = np.arange(2 * n, dtype=np.float64)[::2]
        tracemalloc.start()
        try:
            buf = device.from_numpy(src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * src.nbytes
        assert np.array_equal(buf.array, src)
        grid = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(device.from_numpy(grid.T).array,
                              grid.T.ravel())

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


@pytest.fixture
def shapes_only():
    """A device built with ``payloads=False``."""
    return thetagpu(1, payloads=False).devices[0]


class TestStorageFree:
    """A storage-free buffer is still a buffer: count, dtype, views,
    accounting and ``free`` as a real one, O(1) memory, no contents."""

    def test_allocation_is_o1(self, shapes_only):
        tracemalloc.start()
        try:
            buf = shapes_only.empty(1 << 30, dtype=np.float32)
            zeroed = shapes_only.zeros(1 << 30, dtype=np.float64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096
        assert (buf.count, buf.dtype, buf.nbytes) == \
            (1 << 30, np.float32, 4 << 30)
        assert zeroed.nbytes == 8 << 30 and buf.on_device
        assert not has_storage(buf.array)
        assert has_storage(thetagpu(1).devices[0].empty(4).array)

    def test_accounting_matches_a_real_device(self, shapes_only, device):
        for dev in (device, shapes_only):
            buf = dev.malloc(4096, dtype=np.float32)
            assert dev.allocated_bytes == 4096
            with pytest.raises(DeviceMemoryError):
                dev.empty(dev.free_bytes // 4 + 1, dtype=np.float32)
            buf.free()
            assert dev.allocated_bytes == 0
        # the whole 40 GB of HBM, which only accounting can hand out here
        full = shapes_only.empty(shapes_only.hbm_bytes // 4)
        assert shapes_only.free_bytes == 0
        with pytest.raises(DeviceMemoryError):
            shapes_only.empty(1)
        del full
        assert shapes_only.allocated_bytes == 0

    def test_views_bounds_and_freed_flag(self, shapes_only):
        root = shapes_only.empty(16)
        views = [root.view(0, 8), root.view(4, 0), root.view(0, 8).view(2, 2)]
        assert [v.count for v in views] == [8, 0, 2]
        with pytest.raises(InvalidBufferError):
            root.view(12, 8)
        with pytest.raises(InvalidBufferError):
            views[0].free()
        root.free()
        for v in views + [root]:
            with pytest.raises(InvalidBufferError):
                as_array(v)
            with pytest.raises(InvalidBufferError):
                v.fill(0)
        assert shapes_only.allocated_bytes == 0

    def test_contents_do_not_exist(self, shapes_only, device):
        buf = shapes_only.zeros(8)
        with pytest.raises(InvalidBufferError, match="storage-free"):
            buf.to_numpy()
        with pytest.raises(InvalidBufferError, match="storage-free"):
            buf.view(2, 1).to_numpy()
        with pytest.raises(InvalidBufferError):
            shapes_only.from_numpy(np.ones(8))
        # landing them in real memory would be reading them
        with pytest.raises(InvalidBufferError, match="storage-free"):
            device.zeros(8).copy_from(buf)
        # writing into them is O(1) and takes nothing
        buf.fill(3.0)
        buf.copy_from(np.arange(8, dtype=np.float32))
        assert buf.view(0, 0).to_numpy().size == 0


class TestAsArray:
    def test_buffer_passthrough(self, device):
        buf = device.empty(4)
        assert as_array(buf) is buf.array

    def test_ndarray_flattened(self):
        arr = np.zeros((2, 3))
        assert as_array(arr).shape == (6,)

    def test_list_converted(self):
        assert as_array([1, 2, 3]).shape == (3,)
