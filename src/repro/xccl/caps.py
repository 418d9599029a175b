"""Declarative per-backend capability descriptors and negotiation.

The paper's §3.2 capability checks ask the CCL backend one question on
every call: "do you support this datatype / op?"  Each backend answers
it with one :class:`CapabilityDescriptor`, bound to the class as
:attr:`repro.xccl.backend.CCLBackend.capabilities` — the lists of what
it can do (datatypes, reduce ops, buffer residency, rank ceiling, wire
formats).  The homogeneous per-call checks read that descriptor: the
backend's own argument check (``CCLBackend._check``) and the
dispatcher's capability stage
(:meth:`repro.core.dispatch.CollectivePipeline.capability`).

A communicator spanning NVIDIA + AMD + Gaudi nodes would get a
different answer on each rank — and divergent routes, which on a
collective means deadlock.  :func:`negotiate` folds the islands'
descriptors into their intersection; a mixed-vendor communicator
negotiates **once** at first routing (see
:meth:`repro.core.dispatch.CollectivePipeline.negotiated`) and every
subsequent call checks set membership on the cached intersection — the
same answer on every rank, by construction.

Adding a vendor is therefore declarative: subclass
:class:`~repro.xccl.backend.CCLBackend` with ``capabilities = …`` and
call :func:`repro.xccl.registry.register_backend`; negotiation,
routing, and the datatype/op fallbacks all follow from the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Tuple

from repro.errors import MPIXNegotiationError
from repro.xccl.datatypes import mpi_names

#: reduce ops every modeled CCL implements (no user-defined ops, no
#: logical/bitwise ops in any vendor CCL).  The per-backend descriptors
#: default to this set.
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
    #: the MPI datatype names ``datatypes`` covers (derived): what the
    #: per-call checks test, one set membership each
    mpi_datatypes: FrozenSet[str] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mpi_datatypes", mpi_names(self.datatypes))

    def allows_datatype(self, dt) -> bool:
        """Whether this descriptor covers MPI datatype ``dt`` (the
        "Datatype support" box of Fig. 2)."""
        return dt.name in self.mpi_datatypes

    def allows_op(self, op) -> bool:
        """Whether this descriptor covers reduction op ``op`` (the
        "Reduce operation support" box of Fig. 2; only predefined ops
        ever qualify — no CCL runs user callbacks)."""
        return op.predefined and op.name in self.reduce_ops

    def summary(self) -> str:
        """One line for ``mpix-omb --stats`` and error messages."""
        return (f"{self.backend}: {len(self.datatypes)} datatypes, "
                f"ops={{{', '.join(sorted(self.reduce_ops))}}}, "
                f"wire={self.wire_formats[0] if self.wire_formats else 'none'}, "
                f"max_ranks={self.max_ranks}")


def negotiate(descriptors: Iterable[CapabilityDescriptor]) -> CapabilityDescriptor:
    """Fold a set of descriptors into their intersection descriptor.

    This is the once-per-communicator negotiation step of the
    bridge route: the result's datatype and op sets are the
    intersections, the wire format is the first format (in the first
    descriptor's preference order) all parties share, ``max_ranks`` is
    the minimum, and residency degrades to ``host`` if any party
    stages through the host.

    Raises :class:`repro.errors.MPIXNegotiationError` when the
    intersection is unusable (no common datatype or wire format) —
    deterministically, on every rank, so the failure is a clean error
    and never a deadlock.
    """
    descs = list(descriptors)
    if not descs:
        raise MPIXNegotiationError("capability negotiation got no descriptors")
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
