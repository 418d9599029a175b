"""Declarative per-backend capability descriptors and negotiation.

The paper's §3.2 capability checks assume one CCL backend per job: the
abstraction layer asks *its* backend "do you support this datatype /
op?" on every call.  A communicator spanning NVIDIA + AMD + Gaudi
nodes breaks that assumption — each rank would answer the question
differently, and divergent answers mean divergent routes, which on a
collective means deadlock.

This module makes each backend's capabilities *data* instead of code:
a :class:`CapabilityDescriptor` lists what the backend can do
(datatypes, reduce ops, buffer residency, rank ceiling, wire formats),
and :func:`negotiate` folds a set of descriptors into their
intersection.  A mixed-vendor communicator negotiates **once** at
first routing (see
:meth:`repro.core.dispatch.CollectivePipeline.negotiated`) and every subsequent
call checks set membership on the cached intersection — the same
answer on every rank, by construction.

The descriptors are also the single source of truth for the
homogeneous per-call checks: :func:`repro.xccl.datatypes.support_table`
reads the datatype sets from here, and
:class:`repro.xccl.backend.CCLBackend` reads the reduce-op sets, so
the per-backend tables formerly scattered across the five backend
modules live in one place.

Adding a vendor is therefore declarative: register the backend
(:mod:`repro.xccl.registry`) and :func:`register_descriptor` its
capabilities; negotiation, routing, and the datatype/op fallbacks all
follow from the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.errors import MPIXNegotiationError
from repro.xccl.datatypes import HCCL_TYPES, NCCL_FAMILY_TYPES, ccl_dtype_name

#: reduce ops every modeled CCL implements (no user-defined ops, no
#: logical/bitwise ops in any vendor CCL).  The per-backend descriptors
#: default to this set; :mod:`repro.xccl.backend` re-exports it.
CCL_SUPPORTED_OPS: FrozenSet[str] = frozenset({
    "MPI_SUM", "MPI_PROD", "MPI_MIN", "MPI_MAX",
})

#: wire formats for cross-vendor hops, preference-ordered.  ``device-le``
#: is a raw little-endian device buffer (GPU-direct capable peers);
#: ``host-le`` is the same layout staged through host memory — the
#: lowest common denominator every backend can produce.
WIRE_DEVICE = "device-le"
WIRE_HOST = "host-le"


@dataclass(frozen=True)
class CapabilityDescriptor:
    """What one CCL backend (or a negotiated set of them) can do.

    ``datatypes`` holds xccl datatype names (``xcclFloat32`` …, the
    vocabulary of :mod:`repro.xccl.datatypes`); ``reduce_ops`` holds
    MPI op names (``MPI_SUM`` …); ``wire_formats`` is
    preference-ordered — negotiation keeps the first format all
    parties share.
    """

    backend: str
    datatypes: FrozenSet[str]
    reduce_ops: FrozenSet[str] = CCL_SUPPORTED_OPS
    residency: str = "device"
    max_ranks: int = 1 << 16
    wire_formats: Tuple[str, ...] = (WIRE_DEVICE, WIRE_HOST)

    def allows_datatype(self, dt) -> bool:
        """Whether this descriptor covers MPI datatype ``dt``."""
        name = ccl_dtype_name(dt)
        return name is not None and name in self.datatypes

    def allows_op(self, op) -> bool:
        """Whether this descriptor covers reduction op ``op`` (only
        predefined ops ever qualify — no CCL runs user callbacks)."""
        return op.predefined and op.name in self.reduce_ops

    def summary(self) -> str:
        """One line for ``mpix-omb --stats`` and error messages."""
        return (f"{self.backend}: {len(self.datatypes)} datatypes, "
                f"ops={{{', '.join(sorted(self.reduce_ops))}}}, "
                f"wire={self.wire_formats[0] if self.wire_formats else 'none'}, "
                f"max_ranks={self.max_ranks}")


#: backend name -> descriptor.  The NCCL lineage shares one datatype
#: set; HCCL is float-only and (modeling the Gaudi's host-staged
#: interop path) speaks only the host wire format.
DESCRIPTORS: Dict[str, CapabilityDescriptor] = {}


def register_descriptor(desc: CapabilityDescriptor) -> None:
    """Register (or replace) a backend's capability descriptor."""
    DESCRIPTORS[desc.backend.lower()] = desc


for _desc in (
    CapabilityDescriptor("nccl", NCCL_FAMILY_TYPES, max_ranks=1 << 16),
    CapabilityDescriptor("rccl", NCCL_FAMILY_TYPES, max_ranks=1 << 14),
    CapabilityDescriptor("msccl", NCCL_FAMILY_TYPES, max_ranks=1 << 13),
    CapabilityDescriptor("oneccl", NCCL_FAMILY_TYPES, max_ranks=1 << 14),
    CapabilityDescriptor("hccl", HCCL_TYPES, max_ranks=8192,
                         wire_formats=(WIRE_HOST,)),
):
    register_descriptor(_desc)
del _desc


def descriptor_for(backend_name: str) -> Optional[CapabilityDescriptor]:
    """The descriptor for a backend name, or None when unknown.

    Versioned variants resolve to their family descriptor by dash
    prefix (``nccl-2.11`` -> ``nccl``): a version changes tuning
    parameters, not the capability surface.
    """
    name = backend_name.lower()
    desc = DESCRIPTORS.get(name)
    if desc is not None:
        return desc
    family = name.split("-", 1)[0]
    if family != name:
        return DESCRIPTORS.get(family)
    return None


def negotiate(descriptors: Iterable[CapabilityDescriptor]) -> CapabilityDescriptor:
    """Fold a set of descriptors into their intersection descriptor.

    This is the once-per-communicator negotiation step of the
    ``MPIX_HETERO`` route: the result's datatype and op sets are the
    intersections, the wire format is the first format (in the first
    descriptor's preference order) all parties share, ``max_ranks`` is
    the minimum, and residency degrades to ``host`` if any party
    stages through the host.

    Raises :class:`repro.errors.MPIXNegotiationError` when the
    intersection is unusable (no common datatype or wire format) —
    deterministically, on every rank, so the failure is a clean error
    and never a deadlock.
    """
    descs = [d for d in descriptors if d is not None]
    if not descs:
        raise MPIXNegotiationError(
            "capability negotiation got no descriptors — no backend is "
            "registered for one of the communicator's vendors")
    names = "+".join(sorted({d.backend for d in descs}))
    datatypes = frozenset.intersection(*(d.datatypes for d in descs))
    if not datatypes:
        raise MPIXNegotiationError(
            f"capability negotiation failed for {names}: the backends "
            f"share no datatype (empty intersection)")
    wire = tuple(w for w in descs[0].wire_formats
                 if all(w in d.wire_formats for d in descs[1:]))
    if not wire:
        raise MPIXNegotiationError(
            f"capability negotiation failed for {names}: the backends "
            f"share no wire format")
    return CapabilityDescriptor(
        backend=names,
        datatypes=datatypes,
        reduce_ops=frozenset.intersection(*(d.reduce_ops for d in descs)),
        residency=("device" if all(d.residency == "device" for d in descs)
                   else "host"),
        max_ranks=min(d.max_ranks for d in descs),
        wire_formats=wire)
