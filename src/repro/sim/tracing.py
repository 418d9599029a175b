"""Per-rank communication traces.

When enabled on the engine (``Engine(trace=True)``, whose default is
``MPIX_TRACE``), every communication layer records
:class:`TraceEvent` entries (virtual start/end, kind, peer, bytes).
Tests use traces to check algorithm step structure — e.g. that binomial
broadcast issues exactly ``ceil(log2 p)`` rounds — and the perfmodel
validation compares traced times with analytic predictions.

Event kinds by layer:

* ``send`` / ``recv`` — MPI point-to-point transfers (labels carry the
  protocol: ``eager``/``rts``);
* ``ccl-send`` / ``ccl-recv`` — grouped CCL p2p (labels carry the
  transport: ``exchange``/``bulk``/``fallback``);
* ``ccl`` — one fused built-in CCL collective rendezvous;
* ``kernel`` / ``copy`` — local compute and staging;
* ``stage`` — zero-duration dispatch-pipeline stage markers
  (``validate:*``, ``capability:*``, ``route:*``, ``plan:*``);
* ``dispatch`` — the pipeline's execute stage, spanning the whole
  collective (label ``execute:<coll>:<route>...``);
* ``hier`` — one level of the pipelined hierarchical executor (labels
  ``hier:<coll>:intra:*`` / ``hier:<coll>:inter``, a ``hier`` table row);
* ``bridge`` — one phase of the mixed-vendor island bridge (labels
  ``bridge:<coll>:island:<vendor>[:fanout]`` for the intra-island
  native-CCL phases and ``bridge:<coll>:hop`` for the host-staged
  leader exchange, a ``bridge`` table row);
* ``step`` — application step boundaries (the Horovod trainer).

:mod:`repro.sim.timeline` exports traces as Chrome/Perfetto JSON, and
:mod:`repro.obs.metrics` aggregates them into per-collective metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class TraceEvent:
    """One traced operation on one rank."""

    rank: int
    kind: str          # "send", "recv", "ccl", "kernel", "copy", ...
    start_us: float
    end_us: float
    peer: int = -1     # partner rank, or -1 for collectives/local ops
    nbytes: int = 0
    label: str = ""
    comm: str = ""     # a dispatch span's communicator (its ctx id)

    @property
    def duration_us(self) -> float:
        """Elapsed virtual time of the event."""
        return self.end_us - self.start_us


class Trace:
    """Ordered event log for one rank."""

    def __init__(self, rank: int, enabled: bool = True) -> None:
        self.rank = rank
        self.enabled = enabled
        self.events: List[TraceEvent] = []

    def record(self, kind: str, start_us: float, end_us: float,
               peer: int = -1, nbytes: int = 0, label: str = "",
               comm: str = "") -> None:
        """Append one event (no-op when disabled)."""
        if self.enabled:
            self.events.append(TraceEvent(self.rank, kind, start_us, end_us,
                                          peer, nbytes, label, comm))

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)
