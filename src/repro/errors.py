"""Exception hierarchy for the MPI-xCCL reproduction.

Every error raised by the library derives from :class:`ReproError` so
downstream users can catch a single base class.  The hierarchy mirrors
the layered architecture: hardware substrate, simulation engine, MPI
runtime, vendor CCL backends, and the xCCL abstraction layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Hardware substrate
# ---------------------------------------------------------------------------

class HardwareError(ReproError):
    """Base class for simulated-hardware errors."""


class DeviceMemoryError(HardwareError):
    """Raised when a device allocation exceeds the device's HBM capacity."""


class InvalidBufferError(HardwareError):
    """Raised when a buffer handle is stale, freed, or on the wrong device."""


class TopologyError(HardwareError):
    """Raised when a cluster/node topology query cannot be satisfied."""


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Base class for virtual-time SPMD engine errors."""


class RankFailedError(SimulationError):
    """Raised by :func:`repro.sim.engine.run` when one or more rank
    programs raised; carries the per-rank exceptions."""

    def __init__(self, failures):
        self.failures = dict(failures)
        ranks = ", ".join(str(r) for r in sorted(self.failures))
        super().__init__(f"rank(s) {ranks} failed: "
                         + "; ".join(f"[{r}] {e!r}" for r, e in sorted(self.failures.items())))


class DeadlockError(SimulationError):
    """Raised when every live rank is blocked and no message can ever
    arrive (the rank scheduler sees every live rank parked), a wait
    that can provably never complete (dead peer, revoked communicator),
    or a wait made outside an engine run, which nothing can satisfy."""


class RankKilledError(SimulationError):
    """Raised inside a rank program when a :meth:`FaultPlan.kill` rule
    fires: the rank's virtual clock crossed the kill deadline and the
    process is considered dead.  Carries the victim's world rank."""

    def __init__(self, rank, at_us=None):
        self.rank = int(rank)
        self.at_us = at_us
        when = "" if at_us is None else f" at t={at_us:.1f}us"
        super().__init__(f"rank {self.rank} killed by fault injection{when}")


# ---------------------------------------------------------------------------
# MPI runtime
# ---------------------------------------------------------------------------

class MPIError(ReproError):
    """Base class for MPI runtime errors (mirrors ``MPI_ERR_*``)."""


class MPITypeError(MPIError):
    """Datatype mismatch or unsupported datatype (``MPI_ERR_TYPE``)."""


class MPICountError(MPIError):
    """Invalid count argument (``MPI_ERR_COUNT``)."""


class MPIRankError(MPIError):
    """Rank out of range for the communicator (``MPI_ERR_RANK``)."""


class MPICommError(MPIError):
    """Invalid communicator usage (``MPI_ERR_COMM``)."""


class MPIOpError(MPIError):
    """Invalid or unsupported reduction op (``MPI_ERR_OP``)."""


class MPITruncateError(MPIError):
    """Receive buffer too small for a matched message (``MPI_ERR_TRUNCATE``)."""


class CommRevokedError(MPIError):
    """ULFM-style ``MPIX_ERR_REVOKED``: the communicator was revoked —
    either explicitly via :meth:`Communicator.Comm_revoke` or because a
    peer rank died mid-operation.  Carries the communicator context id
    and the failure set known at raise time; survivors recover with
    ``Comm_agree`` + ``Comm_shrink``."""

    def __init__(self, ctx_id, failed=()):
        self.ctx_id = ctx_id
        self.failed = tuple(sorted(failed))
        dead = ", ".join(str(r) for r in self.failed) or "unknown"
        super().__init__(
            f"communicator {ctx_id!r} revoked (failed ranks: {dead})")


class MPIXNegotiationError(MPIError):
    """Mixed-vendor capability negotiation found an empty intersection
    (no common datatype or wire format across the communicator's
    backends).  Raised from identical, purely local inputs on every
    rank at negotiation time — a clean error, never a deadlock."""


# ---------------------------------------------------------------------------
# Vendor CCL backends
# ---------------------------------------------------------------------------

class CCLError(ReproError):
    """Base class for xCCL backend errors (mirrors ``ncclResult_t``)."""

    #: mirrors the ncclResult_t enum value carried by the error
    result = "xcclInternalError"


class CCLInvalidUsage(CCLError):
    """API misuse: bad group nesting, mismatched communicator, etc.
    (``ncclInvalidUsage``)."""

    result = "xcclInvalidUsage"


class CCLInvalidArgument(CCLError):
    """Bad argument: null buffer, negative count, rank out of range
    (``ncclInvalidArgument``)."""

    result = "xcclInvalidArgument"


class CCLUnsupportedDatatype(CCLError):
    """The backend has no implementation for the requested datatype —
    e.g. HCCL supports only float, NCCL lacks double complex.  The
    abstraction layer catches this and falls back to the MPI path."""

    result = "xcclUnsupportedDatatype"


class CCLUnsupportedOperation(CCLError):
    """The backend lacks the requested reduce op (e.g. no user-defined
    ops in any CCL)."""

    result = "xcclUnsupportedOperation"


class CCLBackendUnavailable(CCLError):
    """No CCL backend is registered for the vendor of the local
    accelerator."""

    result = "xcclSystemError"


# ---------------------------------------------------------------------------
# xCCL abstraction layer / runtime
# ---------------------------------------------------------------------------

class XCCLError(ReproError):
    """Base class for abstraction-layer errors."""


class TuningTableError(XCCLError):
    """Malformed or missing tuning-table entry."""


class ConfigError(ReproError):
    """Invalid runtime configuration (env vars / Config fields)."""
