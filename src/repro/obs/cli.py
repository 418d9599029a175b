"""``mpix-trace``: summarize, diff, and validate Chrome-trace files.

Examples::

    mpix-omb allreduce alltoallv --trace out.json
    mpix-trace summarize out.json
    mpix-trace diff before.json after.json
    mpix-trace validate out.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from repro.obs.metrics import (
    MetricsReport,
    aggregate_doc,
    diff_reports,
    tune_report,
    validate_doc,
)
from repro.util.tables import ascii_table


def _load(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _print_report(report: MetricsReport) -> None:
    print(f"# ranks: {report.ranks}")
    if report.collectives:
        print(ascii_table(
            ["Collective", "Calls", "Bytes", "Avg (us)", "Min (us)",
             "Max (us)", "Routes"],
            report.summary_rows()))
    if report.stages:
        print(ascii_table(
            ["Pipeline stage", "Count"],
            [[label, n] for label, n in sorted(report.stages.items())]))
    if report.transports:
        print(ascii_table(
            ["CCL transport", "Messages"],
            [[label, n] for label, n in sorted(report.transports.items())]))
    if report.islands:
        # mixed-vendor runs: native-CCL bytes per vendor island plus
        # the host-staged leader-exchange ("hop") bytes
        print(ascii_table(
            ["Bridge island", "Bytes"],
            [[label, n] for label, n in sorted(report.islands.items())]))
    if report.kinds:
        print(ascii_table(
            ["Event kind", "Count", "Total (us)"],
            [[kind, count, round(total, 2)]
             for kind, (count, total) in sorted(report.kinds.items())]))
    for name in sorted(report.collectives):
        m = report.collectives[name]
        hist = ", ".join(f"{label}: {n}" for label, n in m.histogram_rows())
        print(f"# {name} latency histogram: {hist}")


def _summarize(path: str) -> int:
    _print_report(aggregate_doc(_load(path)))
    return 0


def _diff(path_a: str, path_b: str) -> int:
    a = aggregate_doc(_load(path_a))
    b = aggregate_doc(_load(path_b))
    print(ascii_table(
        ["Collective", "Calls", "Avg A (us)", "Avg B (us)", "Delta (us)"],
        diff_reports(a, b)))
    return 0


def _validate(path: str) -> int:
    try:
        doc = _load(path)
    except (OSError, ValueError) as exc:
        print(f"INVALID: {exc}")
        return 1
    problems = validate_doc(doc)
    if problems:
        for p in problems:
            print(f"INVALID: {p}")
        return 1
    events = [e for e in doc["traceEvents"] if e.get("ph") != "M"]
    tracks = {(e.get("pid"), e.get("tid")) for e in events}
    print(f"OK: {len(events)} events on {len(tracks)} tracks")
    return 0


def _tune_report(path: str, system: Optional[str], nodes: int,
                 ranks: Optional[int], backend: Optional[str]) -> int:
    """Measured per-(communicator, collective, size-bucket) route
    latencies from one trace — the adapted view the ``MPIX_ONLINE_TUNE``
    overlay acts on — with the static table's rows and choice alongside
    for COMM_WORLD and its duplicates, the shape the table prices: the
    ``MPIX_TUNING_FILE`` table when one is set, else the offline table
    of the system shape given."""
    from repro.config import apply_env
    from repro.core.dispatch import REGISTRY
    from repro.core.online_tune import bucket_span
    from repro.mpi.communicator import spans_world
    from repro.util.sizes import format_size

    buckets = tune_report(_load(path))
    if not buckets:
        print("no execute spans in trace (was it recorded with tracing on?)")
        return 1
    _, _, table = apply_env(None, None, None)
    if table is not None:
        print(f"# static table: MPIX_TUNING_FILE, backend={table.backend}")
    elif system is not None:
        from repro.core.tuning_table import site_table
        from repro.hw.systems import make_system
        cluster = make_system(system, nodes)
        nranks = ranks or cluster.device_count
        table = site_table(cluster, nranks, backend=backend)
        print(f"# static table: {system} x{nodes} nodes, {nranks} ranks, "
              f"backend={table.backend}")
    if table is not None:
        for coll in table.entries:
            print(f"#   {coll:16s} {table.describe(coll)}")
    rows = []
    for (comm, coll, bucket) in sorted(buckets):
        routes = buckets[(comm, coll, bucket)]
        lo, hi = bucket_span(bucket)
        measured = ", ".join(
            f"{r}={c} @ {mean:.2f}us"
            for r, (c, mean) in sorted(routes.items()))
        winner = min(routes, key=lambda r: routes[r][1])
        row = [comm or "?", coll, f"<= {format_size(hi)}", measured, winner]
        if table is not None and not spans_world(comm):
            row += ["-", ""]    # the table prices the world's shape
        elif table is not None:
            # a vector or ``_block`` form routes by its uniform row
            key = REGISTRY[coll].tuning_key if coll in REGISTRY else coll
            static = table.choose(key, hi) if key in table.entries else "mpi"
            row.append(static)
            row.append("FLIP" if static != winner else "")
        rows.append(row)
    headers = ["Comm", "Collective", "Bucket", "Measured (calls @ mean)",
               "Adapted"]
    if table is not None:
        headers += ["Static", ""]
    print(ascii_table(headers, rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(prog="mpix-trace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize",
                       help="per-collective metrics from one trace")
    p.add_argument("trace")

    p = sub.add_parser("diff",
                       help="per-collective deltas between two traces")
    p.add_argument("trace_a")
    p.add_argument("trace_b")

    p = sub.add_parser("validate",
                       help="schema-check one trace (exit 1 on problems)")
    p.add_argument("trace")

    p = sub.add_parser("tune-report",
                       help="measured route latencies per (collective, "
                            "size bucket) — the online tuner's view")
    p.add_argument("trace")
    p.add_argument("--system", default=None,
                   help="also show the offline table's rows and static "
                        "choice for this system (MPIX_TUNING_FILE's "
                        "table wins when set)")
    p.add_argument("--nodes", type=int, default=1)
    p.add_argument("--ranks", type=int, default=None)
    p.add_argument("--backend", default=None)

    args = parser.parse_args(argv)
    if args.command == "summarize":
        return _summarize(args.trace)
    if args.command == "diff":
        return _diff(args.trace_a, args.trace_b)
    if args.command == "tune-report":
        return _tune_report(args.trace, args.system, args.nodes,
                            args.ranks, args.backend)
    return _validate(args.trace)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
