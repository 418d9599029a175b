"""Derived datatypes: contiguous, vector, indexed (``MPI_Type_*``).

Strided and scattered layouts are how real applications describe halo
planes and matrix columns; the runtime packs them into contiguous wire
buffers on send and unpacks on receive (the implementation strategy of
most GPU-aware MPIs for non-contiguous device data), charging the
pack/unpack copies in virtual time.

Supported on point-to-point operations; collectives take predefined
types only (matching the CCL-capability story — no CCL speaks derived
types at all, so the paper's layer would always fall back for them
anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import InvalidBufferError, MPITypeError
from repro.hw.memory import NO_CONTENTS, as_array, has_storage, storage_free
from repro.mpi.datatypes import Datatype


@dataclass(frozen=True)
class DerivedDatatype:
    """A committed derived datatype.

    Attributes:
        name: debug label (``"vector(3,2,4) of MPI_FLOAT"``).
        base: the predefined element type.
        blocks: (offset, length) runs, in base elements, within one
            type extent.
        extent: elements spanned by one instance (stride to the next).
    """

    name: str
    base: Datatype
    blocks: Tuple[Tuple[int, int], ...]
    extent: int

    def __post_init__(self) -> None:
        if not self.blocks:
            raise MPITypeError(f"{self.name}: empty block list")
        for off, length in self.blocks:
            if off < 0 or length <= 0:
                raise MPITypeError(
                    f"{self.name}: invalid block (offset={off}, len={length})")
            if off + length > self.extent:
                raise MPITypeError(
                    f"{self.name}: block [{off},{off + length}) exceeds "
                    f"extent {self.extent}")

    @property
    def elements_per_instance(self) -> int:
        """Significant base elements in one instance."""
        return sum(length for _off, length in self.blocks)

    @property
    def wire_itemsize(self) -> int:
        """Bytes on the wire per instance (packed)."""
        return self.elements_per_instance * self.base.wire_itemsize

    @property
    def itemsize(self) -> int:
        """Alias for wire size (Datatype protocol)."""
        return self.wire_itemsize

    def span(self, count: int) -> int:
        """Base elements a buffer must hold for ``count`` instances."""
        if count <= 0:
            return 0
        last_end = max(off + length for off, length in self.blocks)
        return (count - 1) * self.extent + last_end

    # -- pack / unpack ----------------------------------------------------

    def _indices(self, count: int) -> np.ndarray:
        per = []
        for off, length in self.blocks:
            per.append(np.arange(off, off + length))
        one = np.concatenate(per)
        reps = one[None, :] + np.arange(count)[:, None] * self.extent
        return reps.reshape(-1)

    def pack(self, buf, count: int) -> np.ndarray:
        """Gather ``count`` instances from ``buf`` into a contiguous
        array (``MPI_Pack``)."""
        arr = as_array(buf)
        need = self.span(count)
        if arr.size < need:
            raise MPITypeError(
                f"{self.name}: buffer of {arr.size} elements holds fewer "
                f"than {need} needed for count={count}")
        if not has_storage(arr):
            return storage_free(max(count, 0) * self.elements_per_instance,
                                arr.dtype)
        return arr[self._indices(count)]

    def unpack(self, flat: np.ndarray, buf, count: int) -> None:
        """Scatter a packed array back into ``buf`` (``MPI_Unpack``)."""
        arr = as_array(buf)
        n = max(count, 0) * self.elements_per_instance
        if flat.size != n:
            raise MPITypeError(
                f"{self.name}: packed size {flat.size} != layout {n}")
        if not has_storage(arr):
            return
        if not has_storage(flat):
            raise InvalidBufferError(NO_CONTENTS)
        idx = self._indices(count)
        arr[idx] = flat if flat.dtype == arr.dtype else flat.astype(arr.dtype)


def contiguous(count: int, base: Datatype) -> DerivedDatatype:
    """``MPI_Type_contiguous``: ``count`` consecutive elements."""
    if count <= 0:
        raise MPITypeError(f"contiguous count must be positive, got {count}")
    return DerivedDatatype(f"contiguous({count}) of {base.name}", base,
                           ((0, count),), count)


def vector(count: int, blocklength: int, stride: int,
           base: Datatype) -> DerivedDatatype:
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` elements,
    ``stride`` elements apart — the matrix-column / halo-plane type."""
    if count <= 0 or blocklength <= 0:
        raise MPITypeError("vector count/blocklength must be positive")
    if stride < blocklength:
        raise MPITypeError(
            f"vector stride {stride} overlaps blocklength {blocklength}")
    blocks = tuple((i * stride, blocklength) for i in range(count))
    extent = (count - 1) * stride + blocklength
    return DerivedDatatype(
        f"vector({count},{blocklength},{stride}) of {base.name}", base,
        blocks, extent)


def indexed(blocklengths: Sequence[int], displacements: Sequence[int],
            base: Datatype) -> DerivedDatatype:
    """``MPI_Type_indexed``: arbitrary (displacement, length) runs."""
    if len(blocklengths) != len(displacements) or not blocklengths:
        raise MPITypeError("indexed needs equal-length, non-empty lists")
    pairs = sorted(zip(displacements, blocklengths))
    for (d1, l1), (d2, _l2) in zip(pairs, pairs[1:]):
        if d1 + l1 > d2:
            raise MPITypeError(f"indexed blocks overlap at {d2}")
    blocks = tuple((int(d), int(l)) for d, l in pairs)
    extent = blocks[-1][0] + blocks[-1][1]
    return DerivedDatatype(
        f"indexed({len(blocks)} blocks) of {base.name}", base, blocks, extent)

