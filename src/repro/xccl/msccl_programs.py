"""MSCCL custom algorithm programs.

MSCCL's differentiator (§2.1) is programmability: collective algorithms
are compiled from a DSL (MSCCL-IR XML) and loaded at runtime, replacing
NCCL's built-ins where they win.  We model a program as a declarative
record: which collective it accelerates, the message-size window where
the compiled schedule beats the NCCL baseline, and by how much —
matching §4.3's observation that MSCCL beats NCCL 2.12.12 for medium
messages (256 B – 256 KB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class MSCCLProgram:
    """One compiled custom algorithm.

    Attributes:
        name: program identifier (as would appear in the XML).
        collective: which collective it implements.
        min_bytes / max_bytes: activation window.
        peak_speedup: speedup over the NCCL baseline at the (log-scale)
            center of the window; tapers toward the edges.
        max_ranks: largest communicator the schedule was compiled for
            (0 = unlimited).
    """

    name: str
    collective: str
    min_bytes: int
    max_bytes: int
    peak_speedup: float
    max_ranks: int = 0

    def active(self, nbytes: int, p: int) -> bool:
        """Whether this program takes the call."""
        if self.max_ranks and p > self.max_ranks:
            return False
        return self.min_bytes <= nbytes <= self.max_bytes

    def speedup(self, nbytes: int) -> float:
        """Speedup at ``nbytes`` (tapered toward the window edges)."""
        if nbytes < self.min_bytes or nbytes > self.max_bytes:
            return 1.0
        mid = math.sqrt(max(1, self.min_bytes) * self.max_bytes)
        span = math.log(self.max_bytes / max(1, self.min_bytes)) / 2.0
        dist = abs(math.log(max(1, nbytes) / mid)) / span if span else 0.0
        return 1.0 + (self.peak_speedup - 1.0) * (1.0 - dist * 0.6)


#: The default program set loaded by the MSCCL backend — the schedules
#: Microsoft ships for Azure NDv4-class (A100) systems.
DEFAULT_PROGRAMS: Tuple[MSCCLProgram, ...] = (
    MSCCLProgram("allpairs_allreduce", "allreduce", 256, 256 * 1024, 1.35),
    MSCCLProgram("hierarchical_allreduce", "allreduce", 256 * 1024 + 1,
                 1024 * 1024, 1.05),
    MSCCLProgram("allpairs_allgather", "allgather", 256, 256 * 1024, 1.30),
    MSCCLProgram("two_step_alltoall", "alltoall", 256, 256 * 1024, 1.25),
    MSCCLProgram("tree_bcast", "bcast", 256, 256 * 1024, 1.20),
    MSCCLProgram("tree_reduce", "reduce", 256, 256 * 1024, 1.20),
)


class ProgramRegistry:
    """Loaded programs, queried per call."""

    def __init__(self, programs: Optional[Tuple[MSCCLProgram, ...]] = None) -> None:
        self._programs: List[MSCCLProgram] = list(
            programs if programs is not None else DEFAULT_PROGRAMS)

    def best(self, collective: str, nbytes: int, p: int) -> Optional[MSCCLProgram]:
        """The fastest active program for a call, or None."""
        candidates = [pr for pr in self._programs
                      if pr.collective == collective and pr.active(nbytes, p)]
        if not candidates:
            return None
        return max(candidates, key=lambda pr: pr.speedup(nbytes))

    def factor(self, collective: str, nbytes: int, p: int) -> float:
        """Speedup divisor for a call (1.0 when no program applies)."""
        pr = self.best(collective, nbytes, p)
        return pr.speedup(nbytes) if pr else 1.0

    def __len__(self) -> int:
        return len(self._programs)


_default: Optional[ProgramRegistry] = None


def default_registry() -> ProgramRegistry:
    """The process-wide registry of loaded MSCCL programs (the
    ``MSCCL_XML_FILES`` directory of a real deployment)."""
    global _default
    if _default is None:
        _default = ProgramRegistry()
    return _default
