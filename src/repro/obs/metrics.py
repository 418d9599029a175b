"""Per-collective metrics aggregated from trace events.

The dispatch pipeline records one ``dispatch`` span per collective,
labelled ``execute:<coll>:xccl:<backend>`` or
``execute:<coll>:mpi:<reason>`` — exactly the (collective, route,
backend/why) triple the §3.4 tuning tables are built from.  This
module folds those spans (plus the stage markers and transport labels)
into :class:`MetricsReport`: per collective per route — call count,
total bytes, virtual-time min/max/total, and a power-of-two latency
histogram.

Two entry points, one output shape:

* :func:`aggregate_traces` — in-process, from ``engine.traces()``;
* :func:`aggregate_doc` — offline, from a Chrome-trace JSON document
  (what the ``mpix-trace`` CLI reads back from disk).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.tracing import Trace

#: histogram buckets are powers of two in microseconds: bucket ``i``
#: holds durations in ``[2**(i-1), 2**i)`` us; bucket 0 holds < 1 us.
HIST_BUCKETS = 24


def bucket_of(duration_us: float) -> int:
    """Histogram bucket index for one duration."""
    if duration_us < 1.0:
        return 0
    return min(int(math.floor(math.log2(duration_us))) + 1,
               HIST_BUCKETS - 1)


def bucket_label(index: int) -> str:
    """Human-readable bound of one histogram bucket."""
    if index == 0:
        return "<1us"
    return f"<{2 ** index}us"


@dataclass
class CollectiveMetrics:
    """Aggregate of every traced execution of one collective."""

    coll: str
    count: int = 0
    bytes_total: int = 0
    time_total_us: float = 0.0
    time_min_us: float = math.inf
    time_max_us: float = 0.0
    #: route label ("xccl:<backend>" or "mpi:<reason>") -> call count
    routes: Dict[str, int] = field(default_factory=dict)
    #: power-of-two virtual-time histogram (see :func:`bucket_of`)
    histogram: List[int] = field(default_factory=lambda: [0] * HIST_BUCKETS)

    def add(self, route: str, duration_us: float, nbytes: int) -> None:
        """Fold one execute-stage span in."""
        self.count += 1
        self.bytes_total += nbytes
        self.time_total_us += duration_us
        self.time_min_us = min(self.time_min_us, duration_us)
        self.time_max_us = max(self.time_max_us, duration_us)
        self.routes[route] = self.routes.get(route, 0) + 1
        self.histogram[bucket_of(duration_us)] += 1

    @property
    def time_avg_us(self) -> float:
        """Mean virtual time per call."""
        return self.time_total_us / self.count if self.count else 0.0

    def histogram_rows(self) -> List[Tuple[str, int]]:
        """(bucket label, count) for every non-empty bucket."""
        return [(bucket_label(i), n)
                for i, n in enumerate(self.histogram) if n]


@dataclass
class MetricsReport:
    """Everything one trace aggregates to."""

    #: collective name -> metrics (the primary table)
    collectives: Dict[str, CollectiveMetrics] = field(default_factory=dict)
    #: pipeline stage marker label -> count (validate/capability/...)
    stages: Dict[str, int] = field(default_factory=dict)
    #: CCL p2p transport label (exchange/bulk/fallback) -> count
    transports: Dict[str, int] = field(default_factory=dict)
    #: mixed-vendor bridge traffic: vendor island -> bytes moved in its
    #: native-CCL phases, plus the "hop" row for host-staged leader
    #: exchange bytes (runs on ``bridge`` table rows only)
    islands: Dict[str, int] = field(default_factory=dict)
    #: event kind -> (count, total virtual time)
    kinds: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    ranks: int = 0

    def _coll(self, name: str) -> CollectiveMetrics:
        m = self.collectives.get(name)
        if m is None:
            m = self.collectives[name] = CollectiveMetrics(name)
        return m

    def _fold(self, kind: str, label: str, start_us: float, end_us: float,
              nbytes: int) -> None:
        dur = end_us - start_us
        count, total = self.kinds.get(kind, (0, 0.0))
        self.kinds[kind] = (count + 1, total + dur)
        if kind == "dispatch" and label.startswith("execute:"):
            parts = label.split(":")          # execute:coll:route[:detail]
            coll = parts[1] if len(parts) > 1 else "?"
            route = ":".join(parts[2:]) or "?"
            self._coll(coll).add(route, dur, nbytes)
        elif kind == "stage":
            # bucket by stage outcome, e.g. "plan:hit", "route:mpi:tuning"
            self.stages[label] = self.stages.get(label, 0) + 1
        elif kind in ("ccl-send", "ccl-recv") and label:
            self.transports[label] = self.transports.get(label, 0) + 1
        elif kind == "bridge":
            # "bridge:<coll>:island:<vendor>[:fanout]" or "bridge:<coll>:hop"
            parts = label.split(":")
            phase = parts[2] if len(parts) > 2 else "?"
            key = (parts[3] if phase == "island" and len(parts) > 3
                   else "hop")
            self.islands[key] = self.islands.get(key, 0) + nbytes

    def summary_rows(self) -> List[List]:
        """Per-collective table rows (name, calls, bytes, avg/min/max,
        route breakdown) for the CLI."""
        rows = []
        for name in sorted(self.collectives):
            m = self.collectives[name]
            routes = ", ".join(f"{r}={n}" for r, n in sorted(m.routes.items()))
            rows.append([name, m.count, m.bytes_total,
                         round(m.time_avg_us, 2), round(m.time_min_us, 2),
                         round(m.time_max_us, 2), routes])
        return rows


def aggregate_traces(traces: Sequence[Trace]) -> MetricsReport:
    """Fold per-rank :class:`Trace` objects into one report."""
    report = MetricsReport(ranks=len(traces))
    for trace in traces:
        for ev in trace.events:
            report._fold(ev.kind, ev.label, ev.start_us, ev.end_us, ev.nbytes)
    return report


def aggregate_doc(doc: Dict) -> MetricsReport:
    """Fold a Chrome-trace JSON document (as written by
    :func:`repro.sim.timeline.chrome_trace`) into one report."""
    report = MetricsReport()
    tids = set()
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph not in ("X", "i"):
            continue
        tids.add(ev.get("tid", 0))
        args = ev.get("args", {})
        kind = args.get("kind", "")
        ts = float(ev.get("ts", 0.0))
        dur = float(ev.get("dur", 0.0)) if ph == "X" else 0.0
        report._fold(kind, ev.get("name", ""), ts, ts + dur,
                     int(args.get("bytes", 0)))
    report.ranks = len(tids)
    return report


def diff_reports(a: MetricsReport, b: MetricsReport) -> List[List]:
    """Per-collective deltas between two reports (``mpix-trace diff``):
    rows of (collective, calls a→b, avg-us a→b, delta avg)."""
    rows: List[List] = []
    for name in sorted(set(a.collectives) | set(b.collectives)):
        ma: Optional[CollectiveMetrics] = a.collectives.get(name)
        mb: Optional[CollectiveMetrics] = b.collectives.get(name)
        ca = ma.count if ma else 0
        cb = mb.count if mb else 0
        ta = ma.time_avg_us if ma else 0.0
        tb = mb.time_avg_us if mb else 0.0
        rows.append([name, f"{ca}->{cb}", round(ta, 2), round(tb, 2),
                     round(tb - ta, 2)])
    return rows


def validate_doc(doc: Dict) -> List[str]:
    """Schema check of a Chrome-trace document; returns the list of
    problems (empty = Perfetto-loadable by our contract)."""
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    last_ts: Dict[Tuple[int, int], float] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph is None or "name" not in ev or "pid" not in ev:
            problems.append(f"event {i}: missing name/ph/pid")
            continue
        if ph == "M":
            continue
        if ph not in ("X", "i"):
            problems.append(f"event {i}: unexpected phase {ph!r}")
            continue
        if "ts" not in ev or "tid" not in ev:
            problems.append(f"event {i}: missing ts/tid")
            continue
        if ph == "X" and ev.get("dur", 0) <= 0:
            problems.append(f"event {i}: non-positive dur")
        track = (ev["pid"], ev["tid"])
        if ev["ts"] < last_ts.get(track, float("-inf")):
            problems.append(f"event {i}: ts not monotonic on track {track}")
        last_ts[track] = ev["ts"]
    return problems


def tune_report(doc: Dict) -> Dict[Tuple[str, str, int],
                                   Dict[str, List[float]]]:
    """Aggregate a trace's execute spans into the online tuner's view:
    ``{(communicator, collective, size bucket): {route family: [calls,
    mean us]}}`` — per communicator (its ctx id), as the tuner fits.

    Route families collapse backend/reason detail (``xccl:nccl`` →
    ``xccl``, ``mpi:tuning`` → ``mpi``) — the same granularity the
    ``MPIX_ONLINE_TUNE`` overlay fits, so the ``tune-report`` CLI can
    show the measured winner per bucket next to the static table's
    choice."""
    from repro.core.online_tune import size_bucket
    acc: Dict[Tuple[str, str, int], Dict[str, List[float]]] = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        if args.get("kind") != "dispatch":
            continue
        name = ev.get("name", "")
        if not name.startswith("execute:"):
            continue
        parts = name.split(":")
        coll = parts[1] if len(parts) > 1 else "?"
        family = parts[2] if len(parts) > 2 else "?"
        nbytes = int(args.get("bytes", 0))
        dur = float(ev.get("dur", 0.0))
        cell = acc.setdefault((args.get("comm", ""), coll,
                               size_bucket(nbytes)), {}) \
                  .setdefault(family, [0, 0.0])
        cell[0] += 1
        cell[1] += dur
    out: Dict[Tuple[str, str, int], Dict[str, List[float]]] = {}
    for key, routes in acc.items():
        out[key] = {r: [int(c), (t / c if c else 0.0)]
                    for r, (c, t) in routes.items()}
    return out
