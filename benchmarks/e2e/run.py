"""The end-to-end benchmark: six workloads, two clocks, per-layer spans.

    python benchmarks/e2e/run.py --seed N [--workload W] [--trace]
                                 [--seconds S] [--out F]
    python benchmarks/e2e/run.py --compare A B

Each workload runs in child processes of its own, one at a time.  The
untraced pass gives the end-to-end metrics; ``--trace`` adds a separate
traced pass that gives the per-layer table (``--trace 1`` runs only
that pass).  Every metric is printed by name with its unit, every
result is checked against a numpy oracle, and the exit code is non-zero
when any op failed.

With ``--workload`` the last line printed is the one-line JSON object
the benchmark driver reads (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT_S = 170
SETUP_SAMPLES = 3
#: set-up is repeated in fresh processes until there are SETUP_SAMPLES
#: samples or the repeats have used this share of ``--seconds``
SETUP_REPEAT_SHARE = 0.5


#: glibc moves its mmap threshold at run time, from the sizes a process
#: happened to free first — a race between rank threads.  The same
#: ``p2p_2`` run then either recycles its 1 MiB payloads from the heap
#: (110 ms a batch, 15 % sys) or maps and unmaps every one (190 ms,
#: 45 % sys), process by process; and a page fault costs 8-60 us in
#: this sandbox.  Naming the thresholds switches the adaptation off and
#: the pad stops per-thread heaps shrinking: a child keeps what it frees.
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
                 "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
                 "MALLOC_TOP_PAD_": str(256 << 20)}
#: a sandbox stall longer than the simulator's 10 s deadlock watchdog
#: kills a child (seen once in 180 runs); a child gets one more try
CHILD_TRIES = 2


def child_env(wl):
    """The parent's environment without any ``MPIX_*``/``REPRO_*``
    variable, plus the fixed allocator settings and exactly what the
    workload declares."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MPIX_", "REPRO_"))}
    env.update(ALLOCATOR_ENV)
    env.update(wl.env)
    return env


def run_child(wl, seed, seconds, mode, spans_out=None):
    """Run one child to completion and return the object it reported."""
    from child import MARK
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", wl.name,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--mode", mode]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    for attempt in range(CHILD_TRIES):
        proc = subprocess.run(cmd + ["--t0", repr(time.time())],
                              env=child_env(wl), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(MARK)]
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1][len(MARK):])
        print(f"{wl.name} {mode} child failed (exit {proc.returncode}), "
              f"try {attempt + 1} of {CHILD_TRIES}", file=sys.stderr)
    raise RuntimeError(f"{wl.name} {mode} child failed {CHILD_TRIES} times")


def run_untraced(wl, seed, seconds):
    """Main child plus set-up-only children -> end-to-end metrics."""
    import metrics
    main = run_child(wl, seed, seconds, "main")
    setups = []
    began = time.perf_counter()
    while len(setups) + 1 < SETUP_SAMPLES and (
            not setups
            or time.perf_counter() - began < SETUP_REPEAT_SHARE * seconds):
        setups.append(run_child(wl, seed, seconds, "setup"))
    values, attempted, failed = metrics.end_to_end(main, setups)
    return {"end_to_end": with_units(values, metrics.END_TO_END),
            "timing": metrics.timing_summary(main["batches"]),
            "setup_samples": len(setups) + 1,
            "attempted": attempted, "failed": failed}


def run_traced(wl, seed, seconds, spans_out=None):
    """One traced child -> per-layer metrics and the three end-to-end
    metrics that do not need an undisturbed host clock."""
    import metrics
    import workloads
    trace = run_child(wl, seed, seconds, "trace", spans_out)
    layers, layer_self = metrics.per_layer(
        trace, workloads.payload_mb_per_op(wl))
    values, attempted, failed = metrics.traced_end_to_end(trace)
    return {"per_layer": with_units(layers, metrics.PER_LAYER),
            "traced_end_to_end": with_units(values, metrics.END_TO_END),
            "layer_self_ms_per_op": layer_self,
            "traced_batches": len(trace["traced"]["batches"]),
            "span_count": trace["span_count"],
            "spans_absent": trace["absent"],
            "mailbox_patched": trace["traced"]["mailbox_patched"],
            "counters": trace["counters"],
            "trace_attempted": attempted, "trace_failed": failed}


def with_units(values, table):
    units = {name: unit for name, unit, _better in table}
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(name, result):
    print(f"\n== {name} ==")
    timing = result.get("timing")
    if timing:
        tail = "" if timing["tail_percentile"] is None else (
            f", p{timing['tail_percentile']} "
            f"{timing['batch_wall_ms_tail']:.1f} ms")
        print(f"  {timing['batches']} timed batches, median "
              f"{timing['batch_wall_ms_median']:.1f} ms{tail} (uncalibrated "
              f"{timing['raw_batch_wall_ms_median']:.1f} ms, core speed "
              f"{timing['core_speed_median']:.2f}); "
              f"{result['setup_samples']} set-up samples")
    for section in ("end_to_end", "traced_end_to_end", "per_layer"):
        for metric, cell in result.get(section, {}).items():
            print(f"  {metric:38s} {fmt(cell['value']):>14s} {cell['unit']}")
    for layer, cell in result.get("layer_self_ms_per_op", {}).items():
        print(f"  self[{layer}]".ljust(40)
              + f" {fmt(cell['wall_self_ms_per_op']):>14s} ms/op wall"
              + f" {fmt(cell['cpu_self_ms_per_op']):>12s} ms/op cpu")
    if result.get("spans_absent"):
        print("  spans absent:", ", ".join(result["spans_absent"]))


def driver_line(result, trace):
    """The JSON object the benchmark driver reads.  Per-layer values
    that cannot be measured on a workload are 0 there (``null`` in the
    results file): the driver takes numbers only."""
    import metrics
    if trace:
        cells = dict(result["per_layer"])
        cells.update(result["traced_end_to_end"])
        attempted, failed = result["trace_attempted"], result["trace_failed"]
    else:
        cells = {name: result["end_to_end"][name]
                 for name in metrics.DRIVER_END_TO_END}
        attempted, failed = result["attempted"], result["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": cell["value"] or 0,
                               "unit": cell["unit"]}
                        for name, cell in cells.items()}}


def print_compare(path_a, path_b):
    import metrics
    with open(path_a, encoding="utf-8") as fa, \
            open(path_b, encoding="utf-8") as fb, \
            open(HERE / "bounds.json", encoding="utf-8") as fbounds:
        rows = metrics.compare(json.load(fa), json.load(fb),
                               json.load(fbounds))
    print(f"{'metric':22s} {'workload':14s} {'base (A)':>13s} {'new (B)':>13s} "
          f"{'B/A':>8s} {'bound':>7s}  verdict")
    for row in rows:
        print(f"{row['metric']:22s} {row['workload']:14s} "
              f"{fmt(row['base']):>13s} {fmt(row['new']):>13s} "
              f"{fmt(row['ratio']):>8s} {fmt(row['bound']):>7s}  "
              f"{row['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    print(f"\n{len(rows)} pairings: {len(worse)} worse, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved; "
          f"ratios are B/A with A as the base")
    return 1 if worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: untraced pass; 1: traced pass only; "
                        "bare --trace: both")
    parser.add_argument("--out", default=None, help="write the results file")
    parser.add_argument("--spans-out", default=None,
                        help="with one --workload and tracing: raw spans")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return print_compare(*args.compare)
    if args.seed is None:
        parser.error("--seed is required")
    if args.spans_out and not (args.workload and args.trace != "0"):
        parser.error("--spans-out needs one --workload and a traced pass")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
              "the repository it is checked out in", file=sys.stderr)
        return 2
    import workloads
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have "
                     f"{', '.join(workloads.WORKLOADS)}")
    seconds = args.seconds
    if seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        result = {"why": wl.why}
        if args.trace != "1":
            result.update(run_untraced(wl, args.seed, seconds))
        if args.trace != "0":
            result.update(run_traced(wl, args.seed, seconds, args.spans_out))
        results[name] = result
        print_workload(name, result)
    failed = sum(r.get("failed", 0) + r.get("trace_failed", 0)
                 for r in results.values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "workloads": results}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    print(f"\n{len(results)} workload(s), failed ops: {failed}")
    if args.workload:
        print(json.dumps(driver_line(results[args.workload],
                                     args.trace == "1")))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
