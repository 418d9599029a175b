"""One workload in one process: set up, warm up, run timed batches.

Started by ``run.py`` with a scrubbed environment (``MPIX_*`` and
``REPRO_*`` removed, then the workload's declared variables applied).
Gates are never set from Python, so a variable the program stops
reading simply becomes inert.

Modes:

* ``main``  — warm-up batch, timed batches for ``--seconds`` (at least
  three), then an untimed verify batch that compares whole buffers;
* ``setup`` — stop where the first timed batch would start; reports
  set-up time and the warm-up batch's virtual time only;
* ``trace`` — an engine under the span table of ``spans.py``, then
  (``small_8``) an engine with the program's own tracing on, then an
  untraced reference engine.

The last line printed is ``E2E_RESULT`` followed by one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
MARK = "E2E_RESULT "
MAIN_MIN_BATCHES = 3
TRACE_MIN_BATCHES = 2
CALIB_LOOPS = 200_000
EXPERIMENT_WARMUPS = 2


def pin_to_one_cpu():
    """Run this process, threads and all, on one CPU.

    Left to the kernel, a run lands in one of two modes — rank threads
    packed on one core, or spread over several and then fighting for the
    GIL across cores — and keeps it: the same commit measured 271-391
    ops/s on ``small_8`` and 7.0k-13.7k on ``p2p_2`` (README, "Why the
    children are pinned").  One CPU is the mode that can be reproduced.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibrate():
    """Thread CPU seconds this core needs for a fixed pure-Python kernel.

    The sandbox's cores change speed by +-25 % for minutes at a time
    (README, "Why host time is calibrated"); this is the yardstick each
    batch's host time is divided by.  Thread CPU time, so that another
    rank thread taking the core meanwhile does not count.
    """
    began = time.thread_time_ns()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc += i
    return (time.thread_time_ns() - began) / 1e9


def stamp(virt_us):
    """Everything read at a batch boundary, on rank 0's thread."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return (time.perf_counter_ns(), ru.ru_utime, ru.ru_stime, ru.ru_minflt,
            ru.ru_nvcsw + ru.ru_nivcsw, virt_us, threading.active_count())


def batch_row(a, b, calib_s):
    """One batch: the difference of two stamps, and the mean of the
    calibrations taken just before and just after it."""
    return {"wall_s": (b[0] - a[0]) / 1e9, "user_s": b[1] - a[1],
            "sys_s": b[2] - a[2], "minflt": b[3] - a[3],
            "ctxsw": b[4] - a[4], "virt_us": b[5] - a[5],
            "threads": max(a[6], b[6]), "calib_s": calib_s}


def _enough(batches, began_ns, now_ns, seconds, min_batches):
    return len(batches) >= min_batches and (now_ns - began_ns) / 1e9 >= seconds


def measure_spmd(wl, seed, seconds, min_batches, rec=None, engine_trace=False,
                 verify=True):
    """Run a ``coll``/``p2p`` workload through ``repro.core.runtime.run``.

    Rank 0 times each batch between barriers and decides when to stop;
    it sets ``ctl.stop`` before entering the next barrier and every rank
    reads it after leaving that barrier, so all ranks agree.
    """
    from repro.core.runtime import run
    import spans
    import workloads

    program = workloads.make_program(wl, seed)
    pattern = workloads.make_pattern(wl, seed)
    out = {"batches": [], "ops_per_batch":
           sum(workloads.ops_of(step) for step in program)}
    ctl = SimpleNamespace(stop=min_batches == 0)
    mark = rec.mark if rec is not None else (lambda phase: None)

    def body(mpx):
        me = workloads.RANK_PROGRAMS[wl.kind](mpx, program, pattern)
        comm = mpx.COMM_WORLD
        lead = comm.rank == 0
        comm.Barrier()
        if lead:
            start = stamp(mpx.now)
        bad = [("warmup", k) for k in me.run_batch(False)]
        comm.Barrier()
        if lead:
            end = stamp(mpx.now)
            before = out["setup_calib"] = calibrate()
            out["warmup"] = batch_row(start, end, before)
        began = batch = 0
        while True:
            comm.Barrier()
            if lead and batch == 0:
                out["setup_end"] = time.time()
                began = time.perf_counter_ns()
            if ctl.stop:
                break
            mark(spans.TIMED)
            if lead:
                start = stamp(mpx.now)
            failed = me.run_batch(False)
            comm.Barrier()
            mark(spans.OTHER)
            if lead:
                end = stamp(mpx.now)
                after = calibrate()
                out["batches"].append(
                    batch_row(start, end, (before + after) / 2))
                before = after
                ctl.stop = _enough(out["batches"], began, end[0], seconds,
                                   min_batches)
            bad += [(batch, k) for k in failed]
            batch += 1
        if verify:
            bad += [("verify", k) for k in me.run_batch(True)]
        if lead:
            patched = getattr(mpx.ctx.engine, "any_mailbox_patched", None)
            out["mailbox_patched"] = patched() if callable(patched) \
                else patched
        return bad, len(mpx.ctx.trace) if engine_trace else 0

    per_rank = run(body, system="thetagpu", nodes=wl.nodes,
                   ranks_per_node=wl.ranks_per_node, trace=engine_trace)
    failed = set()
    for bad, _events in per_rank:
        failed.update(bad)
    batches_run = 1 + len(out["batches"]) + (1 if verify else 0)
    out["attempted"] = batches_run * out["ops_per_batch"]
    out["failed"] = len(failed)
    out["trace_events"] = sum(events for _bad, events in per_rank)
    return out


def measure_experiment(wl, seed, seconds, min_batches, rec=None,
                       engine_trace=False, verify=True):
    """``fig5_sweep``: a batch is ``get_experiment("fig5").run("quick")``.

    The sweep's inputs are the paper's, so the seed draws nothing here.
    Every sweep builds its 52 engines afresh — cold plan caches, fresh
    tuning tables, 416 rank threads — and that is the thing measured.
    What is *not* measured is the sandbox's first-touch page faults
    (60 us each here, 2-4 s of ``sys`` a sweep, +-40 % run to run): the
    untimed warm-up sweeps let the allocator grow, and the dead engines
    of the previous sweep (cyclic garbage) are collected before each
    sweep rather than somewhere inside it.  Set-up ends before the
    warm-up sweeps.  Every sweep is checked in full (``verify`` has
    nothing to add) and the engines are the experiment's own
    (``engine_trace`` cannot reach them).
    """
    from repro.experiments import get_experiment
    import spans

    exp = get_experiment("fig5")
    out = {"batches": [], "setup_end": time.time(), "failed": 0,
           "anchor_err_max": 0.0, "mailbox_patched": None,
           "trace_events": 0}
    before = out["setup_calib"] = calibrate()
    for _ in range(EXPERIMENT_WARMUPS if min_batches else 0):
        gc.collect()
        exp.run("quick")
    began = time.perf_counter_ns()
    while not _enough(out["batches"], began, time.perf_counter_ns(), seconds,
                      min_batches):
        gc.collect()
        if rec is not None:
            rec.default_phase = spans.TIMED  # rank threads start in it
            rec.mark(spans.TIMED)
        start = stamp(0.0)
        results = exp.run("quick")
        end = stamp(0.0)
        if rec is not None:
            rec.default_phase = spans.OTHER
            rec.mark(spans.OTHER)
        after = calibrate()
        row = batch_row(start, end, (before + after) / 2)
        before = after
        row["virt_us"] = math.fsum(r.value for r in results)
        out["batches"].append(row)
        out["ops_per_batch"] = len(results)
        out["failed"] += sum(not (math.isfinite(r.value) and r.value > 0)
                             for r in results)
        for check, verdict in zip(exp.checks, exp.check_all(results)):
            out["failed"] += not verdict["passed"]
            if check.rel_tol:
                out["anchor_err_max"] = max(
                    out["anchor_err_max"],
                    abs(verdict["deviation"]) / check.rel_tol)
    out["attempted"] = len(out["batches"]) * out.get("ops_per_batch", 0)
    return out


def measure(wl, seed, seconds, min_batches, **kwargs):
    run_kind = measure_experiment if wl.kind == "experiment" else measure_spmd
    return run_kind(wl, seed, seconds, min_batches, **kwargs)


def run_trace(wl, seed, seconds):
    """The spans first, the untraced reference engine last, so that the
    process's one-off warm-up (lazy imports, allocator growth) lands on
    the traced engine's untimed warm-up batch and not on the reference
    that the tracing overhead is measured against."""
    import spans

    out = {}
    rec = spans.Recorder().install()
    try:
        out["traced"] = measure(wl, seed, seconds / 2, TRACE_MIN_BATCHES,
                                rec=rec)
    finally:
        rec.uninstall()
    rec.bank_counters()
    out["counters"] = rec.counter_totals
    if wl.product_trace:
        out["product"] = measure(wl, seed, seconds / 8, TRACE_MIN_BATCHES,
                                 engine_trace=True, verify=False)
    out["ref"] = measure(wl, seed, seconds / 4, TRACE_MIN_BATCHES,
                         verify=False)
    out["groups"] = rec.aggregate()
    out["layers"] = dict(zip(rec.names, rec.layers))
    out["absent"] = rec.absent
    out["span_count"] = rec.span_count()
    return out, rec


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("main", "setup", "trace"),
                        default="main")
    parser.add_argument("--t0", type=float, default=None,
                        help="time.time() when the parent started this child")
    parser.add_argument("--spans-out", default=None,
                        help="trace mode: write every raw span here")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.time()
    pin_to_one_cpu()
    calib_at_start = calibrate()
    if not SRC.is_dir():
        raise SystemExit(f"{SRC} not found: run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]
    if args.mode == "trace":
        out, rec = run_trace(wl, args.seed, args.seconds)
        if args.spans_out:
            rec.dump(args.spans_out)
    elif args.mode == "setup":
        out = measure(wl, args.seed, 0.0, 0, verify=False)
    else:
        out = measure(wl, args.seed, args.seconds, MAIN_MIN_BATCHES)
    if args.mode != "trace":
        out["setup_s"] = out.pop("setup_end") - t0
        out["setup_calib_s"] = (calib_at_start + out.pop("setup_calib")) / 2
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(workload=wl.name, seed=args.seed, mode=args.mode)
    print(MARK + json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
