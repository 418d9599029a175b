"""Traditional GPU-aware MPI runtime (the substrate the paper extends).

An MPI-like library in the mpi4py idiom, running on the virtual-time
SPMD engine: communicators with context isolation, eager/rendezvous
point-to-point with device-buffer staging or GPU-direct paths, the
classic collective algorithm suite (binomial, recursive doubling,
Rabenseifner, ring, Bruck, pairwise), and an internal algorithm
selection table.

This is both (a) the baseline whose small-message advantage motivates
the paper's hybrid designs, and (b) the middleware the xCCL abstraction
layer (``repro.core``) is integrated into.
"""

from repro.mpi.datatypes import (
    Datatype,
    BYTE, CHAR, INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64,
    INT, LONG, FLOAT16, BFLOAT16, FLOAT, DOUBLE, COMPLEX, DOUBLE_COMPLEX,
    BOOL, datatype_of, from_numpy_dtype,
)
from repro.mpi.ops import Op, SUM, PROD, MIN, MAX, LAND, LOR, BAND, BOR, LXOR, BXOR
from repro.mpi.status import Status
from repro.mpi.request import Request
from repro.mpi.config import MPIConfig
from repro.mpi.communicator import Communicator, ANY_SOURCE, ANY_TAG, IN_PLACE
from repro.mpi.derived import DerivedDatatype, contiguous, vector, indexed

__all__ = [
    "Datatype", "BYTE", "CHAR", "INT8", "INT16", "INT32", "INT64",
    "UINT8", "UINT16", "UINT32", "UINT64", "INT", "LONG",
    "FLOAT16", "BFLOAT16", "FLOAT", "DOUBLE", "COMPLEX", "DOUBLE_COMPLEX",
    "BOOL", "datatype_of", "from_numpy_dtype",
    "Op", "SUM", "PROD", "MIN", "MAX", "LAND", "LOR", "BAND", "BOR",
    "LXOR", "BXOR",
    "Status", "Request", "MPIConfig", "Communicator",
    "ANY_SOURCE", "ANY_TAG", "IN_PLACE",
    "DerivedDatatype", "contiguous", "vector", "indexed",
]
