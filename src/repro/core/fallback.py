"""Routing decisions and automatic MPI fallback (§1.2 advantage 3).

Before an MPI call is handed to a CCL backend, the abstraction layer
checks everything that could make the CCL path impossible; any failed
check routes the call to the traditional MPI algorithms *silently* —
the application keeps its standard MPI semantics either way.  The
decision record keeps the reason, so tests and benchmark reports can
show what fell back and why.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field


class Route(enum.Enum):
    """Where a collective call executes."""

    XCCL = "xccl"
    MPI = "mpi"
    HIER = "hier"      # pipelined hierarchical executor (a ``hier`` row)
    BRIDGE = "bridge"  # mixed-vendor island bridge (a ``bridge`` row)


class FallbackReason(enum.Enum):
    """Why a call could not (or should not) take the CCL path."""

    NONE = "none"                      # no fallback: CCL ran
    HOST_BUFFER = "host_buffer"        # CCLs require device memory
    DATATYPE = "datatype"              # e.g. DOUBLE_COMPLEX on NCCL, int on HCCL
    REDUCE_OP = "reduce_op"            # e.g. user-defined op, logical ops
    NO_BACKEND = "no_backend"          # no CCL registered for the vendor
    UNSUPPORTED_COLL = "unsupported_coll"  # e.g. scan has no CCL mapping
    TUNING = "tuning"                  # hybrid table says MPI is faster
    TUNING_MISS = "tuning_miss"        # collective absent from the table
    MODE = "mode"                      # dispatcher pinned to pure MPI
    CCL_ERROR = "ccl_error"            # backend raised at run time
    MIXED_VENDOR = "mixed_vendor"      # mixed-vendor comm off the bridge


@dataclass(frozen=True)
class RouteDecision:
    """One routing outcome.

    ``is_fallback`` is True when the call was CCL-eligible in principle
    but ran on MPI for a capability reason (not a tuning preference);
    it is set once, with the decision, since every executed collective
    reads it.
    """

    route: Route
    reason: FallbackReason = FallbackReason.NONE
    is_fallback: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "is_fallback", self.route == Route.MPI and self.reason not in (
                FallbackReason.NONE, FallbackReason.TUNING, FallbackReason.MODE))


class RouteStats:
    """Counters of routing decisions (inspected by tests/reports)."""

    def __init__(self) -> None:
        self.xccl_calls = 0
        self.mpi_calls = 0
        self.hier_calls = 0
        self.bridge_calls = 0
        self.fallbacks: Counter = Counter()

    def record(self, decision: RouteDecision, coll: str) -> None:
        """Count one decision."""
        if decision.route == Route.XCCL:
            self.xccl_calls += 1
        elif decision.route == Route.HIER:
            self.hier_calls += 1
        elif decision.route == Route.BRIDGE:
            self.bridge_calls += 1
        else:
            self.mpi_calls += 1
            if decision.is_fallback:
                self.fallbacks[(coll, decision.reason)] += 1

    @property
    def total_fallbacks(self) -> int:
        """All capability fallbacks recorded."""
        return sum(self.fallbacks.values())

    def summary(self) -> str:
        """Human-readable one-liner."""
        parts = [f"xccl={self.xccl_calls}", f"mpi={self.mpi_calls}"]
        if self.hier_calls:
            parts.append(f"hier={self.hier_calls}")
        if self.bridge_calls:
            parts.append(f"bridge={self.bridge_calls}")
        for (coll, reason), n in sorted(self.fallbacks.items(),
                                        key=lambda kv: str(kv[0])):
            parts.append(f"fallback[{coll}/{reason.value}]={n}")
        return " ".join(parts)
