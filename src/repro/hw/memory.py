"""Host and device buffers.

Real GPU-aware MPI runtimes ask the driver where a pointer lives
(``cudaPointerGetAttributes`` and friends) — the "Device Buffer
Identify" box of the paper's Fig. 2.  Here device memory is numpy
memory tagged with its owning :class:`~repro.hw.device.Accelerator`,
and the residency query is :func:`is_device_buffer`.

Buffers support zero-copy element-range views (``buf.view(off, n)``) so
collective algorithms can operate on segments without copies, per the
HPC guides' "views, not copies" rule.

**Storage-free payloads.**  Virtual time is a function of counts,
dtypes and placement, never of the bytes moved, so an accelerator built
with ``payloads=False`` hands out buffers with no storage behind them:
the array is :func:`storage_free` — a zero-stride view of one element,
``count`` long, O(1) in memory — with the count, dtype, views, ``free``
and HBM accounting of a real buffer.  Every payload step tests its
array inline, by its stride: a copy, fold or unpack *into* a zero-stride
array does nothing, a snapshot *of* one is the view itself, and scratch
follows the buffer it is scratch for.  Contents that do not exist are
never read: :meth:`Buffer.to_numpy`, ``from_numpy`` onto such a device
and a storage-free payload landing in real memory raise
:class:`InvalidBufferError`.  All views of one storage-free root share
its element, so ``np.may_share_memory`` (and :func:`aliasing_probe`)
can report an overlap two real windows of that root would not have;
that turns an O(1) borrow into an O(1) snapshot and moves the
``copies_*`` counters, never a clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.errors import InvalidBufferError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.device import Accelerator

#: why a storage-free payload cannot be read
NO_CONTENTS = "storage-free buffer: it has a shape but no contents to read"


def storage_free(count: int, dtype=np.float32) -> np.ndarray:
    """``count`` elements of ``dtype`` with no storage behind them: a
    writable zero-stride view of one element of its own."""
    return as_strided(np.empty(1, dtype=dtype), (int(count),), (0,))


def has_storage(arr: np.ndarray) -> bool:
    """False for a :func:`storage_free` array (zero stride, at least one
    element); payload hot paths test ``arr.strides[0]`` inline instead."""
    return bool(arr.strides[0]) or not arr.size


def host_scratch(ref: np.ndarray, count: int, dtype=None) -> np.ndarray:
    """``count`` uninitialised host elements (``ref``'s dtype unless
    given), storage-free when ``ref`` is."""
    dtype = ref.dtype if dtype is None else dtype
    if has_storage(ref):
        return np.empty(count, dtype=dtype)
    return storage_free(count, dtype)


class Buffer:
    """Base class for host and device buffers.

    Wraps a 1-D numpy array plus placement metadata.  All communication
    layers accept either raw numpy arrays (host memory) or
    :class:`Buffer` subclasses.
    """

    __slots__ = ("array", "_freed")

    def __init__(self, array: np.ndarray) -> None:
        if array.ndim != 1:
            array = array.reshape(-1)
        self.array = array
        self._freed = False

    @property
    def dtype(self) -> np.dtype:
        """numpy dtype of the elements."""
        return self.array.dtype

    def _check_live(self) -> None:
        if self._freed:
            raise InvalidBufferError("buffer used after free")

    # -- data access -----------------------------------------------------

    def view(self, offset: int, count: Optional[int] = None) -> "Buffer":
        """A zero-copy sub-buffer of ``count`` elements at ``offset``."""
        self._check_live()
        size = self.array.size
        if count is None:
            count = size - offset
        if offset < 0 or count < 0 or offset + count > size:
            raise InvalidBufferError(
                f"view [{offset}:{offset + count}] out of range for {size} elements")
        return self._make_view(self.array[offset:offset + count])

    def fill(self, value) -> None:
        """Set every element to ``value`` (in place; nothing to set
        without storage)."""
        self._check_live()
        if self.array.strides[0]:
            self.array[...] = value

    def copy_from(self, other) -> None:
        """In-place element copy from another buffer or array."""
        self._check_live()
        src = other.array if isinstance(other, Buffer) else np.asarray(other)
        if src.size != self.array.size:
            raise InvalidBufferError(
                f"copy size mismatch: src {src.size} vs dst {self.array.size}")
        copy_payload(self.array, src.reshape(-1))

    def to_numpy(self) -> np.ndarray:
        """A host-side copy of the contents."""
        self._check_live()
        if not has_storage(self.array):
            raise InvalidBufferError(NO_CONTENTS)
        return self.array.copy()


class HostBuffer(Buffer):
    """Pinned host memory (what MPI stages device data through)."""

    @classmethod
    def empty(cls, count: int, dtype=np.float32) -> "HostBuffer":
        """Allocate an uninitialized host buffer."""
        return cls(np.empty(int(count), dtype=dtype))

    @classmethod
    def zeros(cls, count: int, dtype=np.float32) -> "HostBuffer":
        """Allocate a zero-filled host buffer."""
        return cls(np.zeros(int(count), dtype=dtype))

    def _make_view(self, arr: np.ndarray) -> "HostBuffer":
        return HostBuffer(arr)


class DeviceBuffer(Buffer):
    """Accelerator-resident memory, allocated by an :class:`Accelerator`.

    Construction goes through :meth:`Accelerator.empty` /
    :meth:`Accelerator.zeros`, which account the allocation against
    the device's HBM capacity (Table 1: 40 GB on A100, 32 GB on MI100
    and Gaudi).
    """

    __slots__ = ("device", "_root")

    def __init__(self, array: np.ndarray, device: "Accelerator",
                 root: Optional["DeviceBuffer"] = None) -> None:
        super().__init__(array)
        self.device = device
        # a view holds its root (alive, and the freed flag is the root's); a
        # root holds None, not itself: no cycle, so it dies with its last
        # reference
        self._root = root

    def _check_live(self) -> None:
        root = self._root
        if (self if root is None else root)._freed:
            raise InvalidBufferError("device buffer used after free")

    def _make_view(self, arr: np.ndarray) -> "DeviceBuffer":
        return DeviceBuffer(arr, self.device,
                            self if self._root is None else self._root)

    def free(self) -> None:
        """Release the allocation back to the device allocator.

        Only valid on root allocations (not views), like ``cudaFree``.
        """
        if self._root is not None:
            raise InvalidBufferError("cannot free a view; free the root allocation")
        self.device._release(self)
        self._freed = True

    def __del__(self) -> None:
        # a root allocation dropped without ``free()`` releases its
        # accounting, so collective scratch buffers don't leak device memory
        try:
            if self._root is None and not self._freed:
                self.device._release(self)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def is_device_buffer(obj) -> bool:
    """Residency check — the abstraction layer's "Device Buffer Identify".

    Mirrors what a GPU-aware MPI does with ``cudaPointerGetAttributes``:
    one uniform query, regardless of vendor.
    """
    return isinstance(obj, DeviceBuffer)


def as_array(obj) -> np.ndarray:
    """The underlying 1-D numpy array of a buffer or array-like."""
    if type(obj) is DeviceBuffer:
        # ``DeviceBuffer._check_live``'s test, repeated: no call for a live
        # buffer, which the call-count guard (tests/test_mpi_p2p.py) needs
        root = obj._root
        if (obj if root is None else root)._freed:
            obj._check_live()  # raises
        return obj.array
    if isinstance(obj, Buffer):
        obj._check_live()
        return obj.array
    if type(obj) is np.ndarray and obj.ndim == 1:
        return obj
    return np.asarray(obj).reshape(-1)


def borrow_view(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` for ownership-transfer handoff.

    The zero-copy datapath ships this instead of a defensive snapshot
    when protocol structure guarantees the sender cannot reuse the
    buffer before every reader is done.  Read-only-ness is a tripwire:
    any consumer that tries to reduce or unpack *into* the payload
    (instead of copying out of it) raises instead of corrupting the
    sender's live buffer.
    """
    view = arr[:]
    view.flags.writeable = False
    return view


def copy_payload(target: np.ndarray, data: np.ndarray) -> None:
    """Land a received payload in ``target``; the assignment converts
    the dtype when the receive buffer's differs, exactly as
    ``data.astype(target.dtype)`` would.  A storage-free ``target``
    takes nothing; storage-free ``data`` has nothing to give real
    memory.  (A call for the callers that can afford one; the p2p path
    writes the same two tests inline.)"""
    if target.strides[0]:
        if not data.strides[0] and data.size:
            raise InvalidBufferError(NO_CONTENTS)
        target[...] = data


def snapshot(view: np.ndarray) -> np.ndarray:
    """A payload's own copy of ``view``, taken before its sender may
    write the memory again; a storage-free view is its own snapshot."""
    return view.copy() if view.strides[0] else view


def aliasing_probe(windows: Sequence[np.ndarray]) -> Callable[[np.ndarray], bool]:
    """``probe(view)``: exactly ``any(np.may_share_memory(view, w) for w
    in windows)``, which it runs only for a view that might overlap.

    numpy's verdict compares byte extents.  A view lies inside the
    array it was cut from (``.base``), and a C-contiguous array's
    extent is its data pointer plus ``nbytes`` — a storage-free one's,
    its one element — read once per array, however many views are cut
    from it.  A view whose array is disjoint from every array the
    windows were cut from shares no memory with them; anything else, or
    without a usable extent, is numpy's to judge.
    """
    extents: Dict[int, Tuple] = {}   # id -> (array kept alive, lo, hi)

    def home_extent(arr: np.ndarray) -> Optional[Tuple[int, int]]:
        home = arr.base if isinstance(arr.base, np.ndarray) else arr
        known = extents.get(id(home))
        if known is None:
            if home.flags.c_contiguous:
                nbytes = home.nbytes
            elif home.strides == (0,):
                nbytes = home.itemsize
            else:
                return None
            lo = home.__array_interface__["data"][0]
            known = extents[id(home)] = (home, lo, lo + nbytes)
        return known[1:]

    homes = {home_extent(w) for w in windows}

    def probe(view: np.ndarray) -> bool:
        mine = home_extent(view)
        if mine is not None and None not in homes and not any(
                mine[0] < hi and lo < mine[1] for lo, hi in homes):
            return False
        return any(np.may_share_memory(view, w) for w in windows)
    return probe
