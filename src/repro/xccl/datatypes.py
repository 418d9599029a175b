"""CCL datatype vocabulary.

The capability gap between MPI's datatype zoo and the CCLs' short lists
drives the paper's fallback design (§3.2): NCCL-family libraries cover
the common integer/float types but have no complex support
(``MPI_DOUBLE_COMPLEX`` breaks FFT apps like heFFTe), and HCCL
supports only ``float``.

This module owns the *vocabulary* (MPI name -> xccl name, and the two
canonical type sets).  Which backend supports which set is declared
once, in the backend class's ``capabilities`` descriptor
(:mod:`repro.xccl.caps`): a new vendor subclasses
:class:`~repro.xccl.backend.CCLBackend` with ``capabilities = …`` and
calls :func:`repro.xccl.registry.register_backend`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.errors import CCLUnsupportedDatatype
from repro.mpi import datatypes as mdt
from repro.mpi.datatypes import Datatype

#: MPI datatype -> ncclDataType_t-style name (None = no CCL equivalent)
_CCL_NAMES: Dict[str, Optional[str]] = {
    mdt.BYTE.name: "xcclUint8",
    mdt.CHAR.name: "xcclInt8",
    mdt.INT8.name: "xcclInt8",
    mdt.UINT8.name: "xcclUint8",
    mdt.INT16.name: None,           # no 16-bit ints in NCCL
    mdt.UINT16.name: None,
    mdt.INT32.name: "xcclInt32",
    mdt.UINT32.name: "xcclUint32",
    mdt.INT.name: "xcclInt32",
    mdt.INT64.name: "xcclInt64",
    mdt.UINT64.name: "xcclUint64",
    mdt.LONG.name: "xcclInt64",
    mdt.FLOAT16.name: "xcclFloat16",
    mdt.BFLOAT16.name: "xcclBfloat16",
    mdt.FLOAT.name: "xcclFloat32",
    mdt.DOUBLE.name: "xcclFloat64",
    mdt.COMPLEX.name: None,          # no complex anywhere in the xCCLs
    mdt.DOUBLE_COMPLEX.name: None,
    mdt.BOOL.name: None,
}

#: ncclDataType names the NCCL lineage (NCCL, RCCL, MSCCL) implements.
NCCL_FAMILY_TYPES: FrozenSet[str] = frozenset({
    "xcclInt8", "xcclUint8", "xcclInt32", "xcclUint32",
    "xcclInt64", "xcclUint64", "xcclFloat16", "xcclBfloat16",
    "xcclFloat32", "xcclFloat64",
})

#: HCCL "only supports float currently" (paper §3.2).
HCCL_TYPES: FrozenSet[str] = frozenset({"xcclFloat32"})


def mpi_names(ccl_types: FrozenSet[str]) -> FrozenSet[str]:
    """The MPI datatype names whose xccl name is in ``ccl_types``."""
    return frozenset(mpi for mpi, ccl in _CCL_NAMES.items()
                     if ccl in ccl_types)


def ccl_dtype_name(dt: Datatype) -> Optional[str]:
    """The xccl datatype name for an MPI datatype, or None when no CCL
    can represent it (complex, bool, 16-bit ints)."""
    return _CCL_NAMES.get(dt.name)


def require_support(desc, dt: Datatype) -> str:
    """The xccl datatype name, or raise :class:`CCLUnsupportedDatatype`
    when capability descriptor ``desc`` lacks ``dt`` — the conversion
    step of Listing 1 line 2."""
    name = _CCL_NAMES.get(dt.name)
    if name not in desc.datatypes:
        raise CCLUnsupportedDatatype(
            f"{desc.backend} has no datatype for {dt.name}")
    return name
