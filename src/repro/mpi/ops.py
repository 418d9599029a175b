"""MPI reduction operations.

Each :class:`Op` pairs a numpy ufunc-style reducer with validity rules
per datatype kind (MPI forbids MIN/MAX on complex, bitwise ops on
floats, ...).  User-defined ops are supported — and are exactly the
case no CCL backend can take, exercising the fallback path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import InvalidBufferError, MPIOpError
from repro.hw.memory import NO_CONTENTS
from repro.mpi.datatypes import Datatype


@dataclass(frozen=True, eq=False)
class Op:
    """One reduction operation.

    Attributes:
        name: MPI-style name (``"MPI_SUM"``) or a user-chosen label.
        fn: ``fn(accumulator, operand) -> result`` elementwise reducer;
            must be associative.
        commutative: drives algorithm choice (non-commutative ops force
            rank-ordered reduction).
        predefined: True for the MPI standard ops.

    Compared and hashed by identity, like :class:`Datatype`: two user
    ops of one name are two ops.
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    commutative: bool = True
    predefined: bool = True

    def validate(self, dt: Datatype) -> None:
        """Raise :class:`MPIOpError` when ``dt`` is invalid for this op,
        per the MPI standard's op/datatype compatibility rules."""
        if not self.predefined:
            return  # user ops take whatever their function takes
        if dt.is_complex and self.name in _ORDERED_ONLY:
            raise MPIOpError(f"{self.name} undefined for complex type {dt.name}")
        if (dt.is_float or dt.is_complex) and self.name in _BITWISE:
            raise MPIOpError(f"{self.name} undefined for floating type {dt.name}")
        if dt.is_logical and self.name in _ARITH:
            raise MPIOpError(f"{self.name} undefined for logical type {dt.name}")

    def __call__(self, acc: np.ndarray, operand: np.ndarray) -> np.ndarray:
        """Apply the reduction (returns the reduced array)."""
        return self.fn(acc, operand)

    def reduce_into(self, acc: np.ndarray, operand: np.ndarray) -> None:
        """``acc[...] = fn(acc, operand)``, writing through ``out=``
        when the reducer is a raw ufunc over matching dtypes (bitwise
        identical to the copy, without the intermediate array).
        Logical-wrapped and user-defined reducers keep copy semantics —
        their output dtype is not guaranteed to match ``acc``'s.  A
        storage-free ``acc`` holds no values to fold into; a
        storage-free ``operand`` has none to fold into a real one."""
        if not acc.strides[0]:
            return
        if not operand.strides[0] and operand.size:
            raise InvalidBufferError(NO_CONTENTS)
        if isinstance(self.fn, np.ufunc) and acc.dtype == operand.dtype:
            self.fn(acc, operand, out=acc)
        else:
            acc[...] = self.fn(acc, operand)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _logical(fn):
    def wrapped(a, b):
        return fn(a.astype(bool), b.astype(bool)).astype(a.dtype)
    return wrapped


SUM = Op("MPI_SUM", np.add)
PROD = Op("MPI_PROD", np.multiply)
MIN = Op("MPI_MIN", np.minimum)
MAX = Op("MPI_MAX", np.maximum)
LAND = Op("MPI_LAND", _logical(np.logical_and))
LOR = Op("MPI_LOR", _logical(np.logical_or))
LXOR = Op("MPI_LXOR", _logical(np.logical_xor))
BAND = Op("MPI_BAND", np.bitwise_and)
BOR = Op("MPI_BOR", np.bitwise_or)
BXOR = Op("MPI_BXOR", np.bitwise_xor)

_ORDERED_ONLY = {"MPI_MIN", "MPI_MAX"}
_BITWISE = {"MPI_BAND", "MPI_BOR", "MPI_BXOR"}
_ARITH = {"MPI_SUM", "MPI_PROD"}

PREDEFINED_OPS = {op.name: op for op in
                  (SUM, PROD, MIN, MAX, LAND, LOR, LXOR, BAND, BOR, BXOR)}


def user_op(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
            commutative: bool = True, name: str = "MPI_OP_USER") -> Op:
    """Create a user-defined op (``MPI_Op_create``).

    CCL backends reject user ops, so reductions with one always take
    the MPI fallback path — by design.
    """
    return Op(name, fn, commutative=commutative, predefined=False)
