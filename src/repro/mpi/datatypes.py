"""MPI datatypes.

The capability mismatch between MPI's datatype zoo and the CCLs' short
lists is a core plot point of the paper (§3.2): NCCL has no
``MPI_DOUBLE_COMPLEX`` (breaking FFT apps like heFFTe), HCCL supports
only float.  So datatypes here are first-class objects with identity,
wire size, and numpy storage mapping — the abstraction layer's
capability checks key on them.

``BFLOAT16`` is stored as numpy float32 (numpy has no bfloat16) but
keeps its true 2-byte wire size so message-timing stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.errors import MPITypeError


@dataclass(frozen=True, eq=False)
class Datatype:
    """One MPI predefined datatype.

    Attributes:
        name: MPI-style name, e.g. ``"MPI_FLOAT"``.
        storage: numpy dtype used to hold values in buffers.
        wire_itemsize: bytes per element on the wire (differs from the
            storage itemsize only for bfloat16's float32 emulation).
        is_complex / is_float / is_integer / is_logical: kind flags used
            by reduce-op validity checks.

    Each datatype is one object, compared and hashed by identity, so a
    collective's plan key holds it at no Python-level hash.
    """

    name: str
    storage: np.dtype
    wire_itemsize: int
    is_complex: bool = False
    is_float: bool = False
    is_integer: bool = False
    is_logical: bool = False

    @property
    def itemsize(self) -> int:
        """Wire size per element in bytes."""
        return self.wire_itemsize

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _dt(name: str, np_dtype, wire: Optional[int] = None, **kind) -> Datatype:
    storage = np.dtype(np_dtype)
    return Datatype(name, storage, wire if wire is not None else storage.itemsize,
                    **kind)


BYTE = _dt("MPI_BYTE", np.uint8, is_integer=True)
CHAR = _dt("MPI_CHAR", np.int8, is_integer=True)
INT8 = _dt("MPI_INT8_T", np.int8, is_integer=True)
INT16 = _dt("MPI_INT16_T", np.int16, is_integer=True)
INT32 = _dt("MPI_INT32_T", np.int32, is_integer=True)
INT64 = _dt("MPI_INT64_T", np.int64, is_integer=True)
UINT8 = _dt("MPI_UINT8_T", np.uint8, is_integer=True)
UINT16 = _dt("MPI_UINT16_T", np.uint16, is_integer=True)
UINT32 = _dt("MPI_UINT32_T", np.uint32, is_integer=True)
UINT64 = _dt("MPI_UINT64_T", np.uint64, is_integer=True)
INT = _dt("MPI_INT", np.int32, is_integer=True)
LONG = _dt("MPI_LONG", np.int64, is_integer=True)
FLOAT16 = _dt("MPI_FLOAT16", np.float16, is_float=True)
#: bfloat16: float32 storage, 2-byte wire size (see module docstring).
BFLOAT16 = _dt("MPI_BFLOAT16", np.float32, wire=2, is_float=True)
FLOAT = _dt("MPI_FLOAT", np.float32, is_float=True)
DOUBLE = _dt("MPI_DOUBLE", np.float64, is_float=True)
COMPLEX = _dt("MPI_C_FLOAT_COMPLEX", np.complex64, is_complex=True)
DOUBLE_COMPLEX = _dt("MPI_DOUBLE_COMPLEX", np.complex128, is_complex=True)
BOOL = _dt("MPI_C_BOOL", np.bool_, is_logical=True)

#: All predefined datatypes, by name.
PREDEFINED: Dict[str, Datatype] = {
    dt.name: dt for dt in (
        BYTE, CHAR, INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32,
        UINT64, INT, LONG, FLOAT16, BFLOAT16, FLOAT, DOUBLE, COMPLEX,
        DOUBLE_COMPLEX, BOOL,
    )
}

_BY_NP: Dict[np.dtype, Datatype] = {
    np.dtype(np.uint8): BYTE,
    np.dtype(np.int8): INT8,
    np.dtype(np.int16): INT16,
    np.dtype(np.int32): INT32,
    np.dtype(np.int64): INT64,
    np.dtype(np.uint16): UINT16,
    np.dtype(np.uint32): UINT32,
    np.dtype(np.uint64): UINT64,
    np.dtype(np.float16): FLOAT16,
    np.dtype(np.float32): FLOAT,
    np.dtype(np.float64): DOUBLE,
    np.dtype(np.complex64): COMPLEX,
    np.dtype(np.complex128): DOUBLE_COMPLEX,
    np.dtype(np.bool_): BOOL,
}


def from_numpy_dtype(dtype) -> Datatype:
    """The MPI datatype matching a numpy dtype (automatic discovery,
    mpi4py-style).  Raises :class:`MPITypeError` for unmapped dtypes.
    """
    dt = _BY_NP.get(np.dtype(dtype))
    if dt is None:
        raise MPITypeError(f"no MPI datatype for numpy dtype {dtype!r}")
    return dt


def datatype_of(buf_or_dtype: Union[Datatype, np.dtype, str, object]) -> Datatype:
    """Resolve a buffer, numpy dtype, dtype string, or Datatype to a
    :class:`Datatype`."""
    if isinstance(buf_or_dtype, Datatype):
        return buf_or_dtype
    dtype = getattr(buf_or_dtype, "dtype", None)
    if dtype is not None:
        return from_numpy_dtype(dtype)
    return from_numpy_dtype(buf_or_dtype)
