"""Chrome-trace export of per-rank virtual timelines.

Run an engine with ``trace=True`` (or ``MPIX_TRACE=1`` in its
environment) and feed the contexts' traces here: the result is the
``chrome://tracing`` / Perfetto JSON format, one track per rank, one
slice per communication/kernel event — the view a developer uses to
see where a collective's time goes (rendezvous stalls, ring step
ladders, CCL launch gaps, dispatch-pipeline routing).

Layout: one *process* per cluster node (``pid``), one *thread* per
rank (``tid``) when the rank→node map is supplied; with no map the
whole job is one process (the historical single-pid layout).
Zero-duration dispatch-stage markers become instant events (``ph: i``);
everything with extent is a complete slice (``ph: X``).

:func:`engine_chrome_trace` builds the document straight from an
engine (traces + node placement + run metadata);
:mod:`repro.obs` aggregates the same events into per-collective
metrics and serves the ``mpix-trace`` CLI.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.sim.tracing import Trace

#: slice categories by event kind (colors group in the viewer)
_CATEGORIES = {
    "send": "p2p",
    "recv": "p2p",
    "ccl-send": "ccl",
    "ccl-recv": "ccl",
    "ccl": "ccl",
    "kernel": "compute",
    "copy": "compute",
    "stage": "dispatch",
    "dispatch": "dispatch",
    "step": "app",
}

#: kinds exported as instant events — always zero-duration markers
#: (stage decisions take no virtual time by construction).
_INSTANT_KINDS = frozenset({"stage"})


def chrome_trace(traces: Sequence[Trace],
                 process_name: str = "mpix",
                 nodes: Optional[Dict[int, int]] = None,
                 meta: Optional[Dict] = None) -> Dict:
    """Build a Chrome trace-event dict from per-rank traces.

    Args:
        traces: one :class:`Trace` per rank (``ctx.trace``).
        process_name: label of the trace's process(es).
        nodes: optional rank → cluster-node map; when given, each node
            becomes its own Chrome process (pid) so Perfetto groups
            rank tracks by physical placement.
        meta: optional run metadata attached as ``otherData``.
    """
    metas: List[Dict] = []
    events: List[Dict] = []
    seen_pids = set()
    for trace in traces:
        pid = nodes.get(trace.rank, 0) if nodes else 0
        if pid not in seen_pids:
            seen_pids.add(pid)
            name = f"{process_name} node {pid}" if nodes else process_name
            metas.append({"name": "process_name", "ph": "M", "pid": pid,
                          "args": {"name": name}})
        metas.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": trace.rank,
            "args": {"name": f"rank {trace.rank}"},
        })
        for ev in trace.events:
            entry = {
                "name": ev.label or ev.kind,
                "cat": _CATEGORIES.get(ev.kind, "other"),
                "pid": pid,
                "tid": trace.rank,
                "ts": ev.start_us,
                "args": {"peer": ev.peer, "bytes": ev.nbytes,
                         "kind": ev.kind},
            }
            if ev.comm:
                entry["args"]["comm"] = ev.comm
            if ev.kind in _INSTANT_KINDS:
                entry["ph"] = "i"        # instant event, thread-scoped
                entry["s"] = "t"
            else:
                entry["ph"] = "X"        # complete event
                entry["dur"] = max(ev.duration_us, 0.01)
            events.append(entry)
    # recv-style events are stamped with their message's depart time,
    # which can precede previously recorded events — sort so every
    # track is monotonic in ts (what the viewers expect)
    events.sort(key=lambda e: e["ts"])
    doc = {"traceEvents": metas + events, "displayTimeUnit": "ms"}
    if meta:
        doc["otherData"] = dict(meta)
    return doc


def engine_chrome_trace(engine, process_name: str = "mpix",
                        meta: Optional[Dict] = None) -> Dict:
    """Chrome trace of an engine's most recent run: per-rank traces
    laid out one pid per cluster node, one tid per rank."""
    nodes = {rank: engine.node_of(rank) for rank in range(engine.nranks)}
    return chrome_trace(engine.traces(), process_name, nodes=nodes, meta=meta)


def save_chrome_trace(traces: Sequence[Trace], path: str,
                      process_name: str = "mpix",
                      nodes: Optional[Dict[int, int]] = None,
                      meta: Optional[Dict] = None) -> None:
    """Write the Chrome trace JSON to ``path`` (open it in
    ``chrome://tracing`` or https://ui.perfetto.dev)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(traces, process_name, nodes=nodes, meta=meta),
                  fh)


def summarize(traces: Sequence[Trace]) -> Dict[str, Dict[str, float]]:
    """Aggregate time per event kind per rank (quick profiling view)."""
    out: Dict[str, Dict[str, float]] = {}
    for trace in traces:
        kinds: Dict[str, float] = {}
        for ev in trace.events:
            kinds[ev.kind] = kinds.get(ev.kind, 0.0) + ev.duration_us
        out[f"rank{trace.rank}"] = kinds
    return out
