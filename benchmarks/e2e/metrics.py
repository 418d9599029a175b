"""Metric definitions and how each is derived from what a child reports.

End-to-end metrics come from the untraced pass only.  Host metrics are
wall or CPU time of the simulator; ``virt_*`` metrics read the simulated
cluster's clock.  A per-layer metric whose spans are all gone (or whose
denominator is zero on this workload) is ``None`` — never an exception.
"""

from __future__ import annotations

import math
import statistics

#: (name, unit, better) — every workload reports all seven
END_TO_END = (
    ("ops_per_s", "ops/s", "higher"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("virt_us_per_op", "virt_us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("virt_rerun_rel_diff", "ratio", "lower"),
)

#: the end-to-end metrics the driver bounds (``BENCHMARK.json``); the
#: other three are exact or zero today, so they travel with the traced
#: pass there and keep their own bounds in ``bounds.json``
DRIVER_END_TO_END = ("ops_per_s", "cpu_ms_per_op", "setup_s", "peak_rss_mb")

PER_LAYER = (
    ("sim.engine.init_ms", "ms", "lower"),
    ("sim.engine.run_overhead_ms", "ms", "lower"),
    ("sim.engine.slot_exchanges_per_op", "1/op", "lower"),
    ("sim.engine.slot_wait_ms_per_op", "ms", "lower"),
    ("sim.sched.waits_per_op", "1/op", "lower"),
    ("sim.sched.wait_ms_per_op", "ms", "lower"),
    ("sim.sched.coop_switches_per_op", "1/op", "lower"),
    ("sim.sched.os_ctx_switches_per_op", "1/op", "lower"),
    ("sim.mailbox.posts_per_op", "1/op", "lower"),
    ("sim.mailbox.post_self_us", "us", "lower"),
    ("sim.mailbox.matches_per_op", "1/op", "lower"),
    ("sim.mailbox.match_self_us", "us", "lower"),
    ("sim.mailbox.bulk_frac", "ratio", "higher"),
    ("sim.wire.bookings_per_op", "1/op", "lower"),
    ("sim.wire.book_self_us", "us", "lower"),
    ("core.dispatch.calls_per_op", "1/op", "lower"),
    ("core.dispatch.overhead_us", "us", "lower"),
    ("core.dispatch.decide_us", "us", "lower"),
    ("core.dispatch.route_xccl_frac", "ratio", "higher"),
    ("core.dispatch.route_mpi_frac", "ratio", "lower"),
    ("core.dispatch.route_fallbacks", "count", "lower"),
    ("core.plan.hit_ratio", "ratio", "higher"),
    ("core.plan.pool_reuse_ratio", "ratio", "higher"),
    ("core.tuning_table.tune_ms", "ms", "lower"),
    ("perfmodel.calls_per_op", "1/op", "lower"),
    ("perfmodel.self_us_per_op", "us", "lower"),
    ("mpi.coll.self_ms_per_op", "ms", "lower"),
    ("mpi.coll.p2p_msgs_per_op", "1/op", "lower"),
    ("mpi.p2p.sends_per_op", "1/op", "lower"),
    ("mpi.p2p.send_self_us", "us", "lower"),
    ("mpi.p2p.recv_self_us", "us", "lower"),
    ("mpi.p2p.recv_wait_ms_per_op", "ms", "lower"),
    ("mpi.p2p.eager_frac", "ratio", "higher"),
    ("xccl.backend.calls_per_op", "1/op", "lower"),
    ("xccl.backend.self_ms_per_op", "ms", "lower"),
    ("xccl.backend.group_msgs_per_op", "1/op", "lower"),
    ("xccl.backend.fusion_fallbacks", "count", "lower"),
    ("hw.memory.copy_mb_per_op", "MiB/op", "lower"),
    ("hw.memory.copy_self_ms_per_op", "ms", "lower"),
    ("hw.memory.copies_elided_ratio", "ratio", "higher"),
    ("hw.memory.minflt_per_op", "1/op", "lower"),
    ("mpi.ops.reduce_mb_per_op", "MiB/op", "lower"),
    ("mpi.ops.reduce_self_ms_per_op", "ms", "lower"),
    ("sim.tracing.overhead_ratio", "ratio", "lower"),
    ("sim.tracing.events_per_op", "1/op", "lower"),
    ("experiments.anchor_err_max", "ratio", "lower"),
    ("experiments.records_per_run", "count", "higher"),
    ("host.core_speed", "ratio", "lower"),
    ("host.cpu_sys_frac", "ratio", "lower"),
    ("host.threads_peak", "count", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.spans_absent", "count", "lower"),
)

#: Host seconds are seconds of a reference core: one that runs the
#: calibration kernel of ``child.calibrate`` in exactly this long (about
#: what this sandbox does when it is quiet).  Every batch's wall and CPU
#: time is divided by ``speed`` = its own calibration / this reference.
REFERENCE_CALIB_S = 0.008

#: virtual time per op is taken over this many leading timed batches —
#: a fixed count, so two runs of a deterministic workload agree to the
#: bit however many batches the wall clock allowed
VIRT_BATCHES = 2


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it
    (``None`` under 20 samples)."""
    return None if n < 20 else int(100 * (1 - 10 / n))


def percentile_value(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def speed(row):
    """How much slower than the reference core this row's batch (or
    set-up) ran; host times are divided by it."""
    return row["calib_s"] / REFERENCE_CALIB_S


def ref_wall_ms(batch):
    """A batch's wall time in reference-core milliseconds."""
    return batch["wall_s"] * 1e3 / speed(batch)


def median_wall_ms(batches):
    """The median batch, in reference-core milliseconds."""
    return statistics.median(map(ref_wall_ms, batches))


def timing_summary(batches):
    """Median batch, tail percentile (slow side), batch count, and the
    uncalibrated numbers beside them."""
    walls = [ref_wall_ms(b) for b in batches]
    pct = tail_percentile(len(walls))
    return {"batches": len(walls),
            "batch_wall_ms_median": median_wall_ms(batches),
            "tail_percentile": pct,
            "batch_wall_ms_tail":
                None if pct is None else percentile_value(walls, pct),
            "raw_batch_wall_ms_median":
                statistics.median(b["wall_s"] * 1e3 for b in batches),
            "core_speed_median": statistics.median(map(speed, batches))}


def _div(a, b):
    return None if a is None or not b else a / b


def rel_diff(values):
    """Largest ``|v - v0| / v0`` of repeated runs of one batch."""
    if len(values) < 2 or not values[0]:
        return None
    return max(abs(v - values[0]) / abs(values[0]) for v in values[1:])


def virt_us_per_op(run):
    head = run["batches"][:VIRT_BATCHES]
    return _div(math.fsum(b["virt_us"] for b in head),
                len(head) * run.get("ops_per_batch", 0))


def checked(runs):
    """What every pass reports about correctness, from all the engines
    it ran: ``fail_ratio``, ``virt_rerun_rel_diff``, attempted, failed.

    The rerun is the warm-up batch, which each fresh engine runs first;
    an experiment has none, but there every batch is a rerun in fresh
    engines."""
    if "warmup" in runs[0]:
        reruns = [r["warmup"]["virt_us"] for r in runs]
    else:
        reruns = [b["virt_us"] for r in runs for b in r["batches"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"fail_ratio": failed / attempted,
            "virt_rerun_rel_diff": rel_diff(reruns)}, attempted, failed


def end_to_end(main, setups):
    """The seven end-to-end metrics from one untraced main child and
    the set-up-only children that ran beside it."""
    ops = main["ops_per_batch"]
    runs = [main] + setups
    verdicts, attempted, failed = checked(runs)
    return {
        "ops_per_s": statistics.median(
            ops * 1e3 / ref_wall_ms(b) for b in main["batches"]),
        "cpu_ms_per_op": statistics.median(
            (b["user_s"] + b["sys_s"]) * 1e3 / speed(b) / ops
            for b in main["batches"]),
        "virt_us_per_op": virt_us_per_op(main),
        "setup_s": statistics.median(
            r["setup_s"] * REFERENCE_CALIB_S / r["setup_calib_s"]
            for r in runs),
        "peak_rss_mb": main["peak_rss_mb"],
        **verdicts,
    }, attempted, failed


class Groups:
    """Query the aggregated span groups of one traced run."""

    def __init__(self, rows, installed):
        self.rows = rows
        self.installed = set(installed)

    def total(self, names, field="n", phase="timed", parent=None, tag=None):
        """Sum ``field`` over the groups of ``names``; ``None`` when no
        span of ``names`` is installed at this commit.  ``parent`` and
        ``tag`` are predicates on the group's parent name and tag."""
        if not self.installed.intersection(names):
            return None
        out = 0
        for row in self.rows:
            if row["name"] in names \
                    and (phase is None or row["phase"] == phase) \
                    and (parent is None or parent(row["parent"])) \
                    and (tag is None or tag(row["tag"])):
                out += row[field]
        return out


_WAITS = ("ThreadWaitq.wait_for", "CoopWaitq.wait_for")
_SLOTS = ("CollectiveSlot.exchange", "CollectiveSlot.consume_barrier")
_POSTS = ("Mailbox.post", "Mailbox.post_many")
_MATCHES = ("Mailbox.match", "Mailbox.match_many", "Mailbox.try_match")
_BOOKS = ("WireTracker.book", "WireTracker.book_many")
_COLL = tuple("MPICollDispatcher." + c for c in (
    "barrier", "bcast", "reduce", "allreduce", "allgather", "allgatherv",
    "alltoall", "alltoallv", "gather", "scatter", "reduce_scatter_block"))
_SENDS = ("P2PEndpoint.send", "P2PEndpoint.isend", "P2PEndpoint.sendrecv")
_RECVS = ("P2PEndpoint.recv", "P2PEndpoint.irecv")
_CCL = tuple("CCLBackend." + c for c in (
    "all_reduce", "broadcast", "reduce", "all_gather", "reduce_scatter",
    "send", "recv")) + ("backend.group_end",)
_PERF = tuple(f"{m}.{f}" for m, fs in (
    ("ccl_models", ("collective_time", "allreduce_time", "bcast_time",
                    "reduce_time", "allgather_time", "reduce_scatter_time",
                    "alltoall_time", "p2p_time")),
    ("mpi_models", ("collective_time", "p2p_step", "barrier_time")))
    for f in fs)


def _sub(a, b):
    return None if a is None or b is None else a - b


def _add(*values):
    values = [v for v in values if v is not None]
    return sum(values) if values else None


def per_layer(trace, payload_mb_per_op):
    """Every per-layer metric of one traced child (``None`` = not
    measurable here), plus the layer table."""
    ref, traced = trace["ref"], trace["traced"]
    g = Groups(trace["groups"], trace["layers"])
    ops = len(traced["batches"]) * traced.get("ops_per_batch", 0)
    ref_ops = len(ref["batches"]) * ref.get("ops_per_batch", 0)
    counters = trace["counters"]
    # span times are brought to the reference core with the traced
    # batches' median speed
    slow = statistics.median(map(speed, traced["batches"]))
    ns_ms, ns_us = 1e6 * slow, 1e3 * slow

    def per_op(value, scale=1.0):
        return _div(value, ops * scale)

    def is_in(names):
        return lambda parent: parent in names

    def not_wait(parent):
        return parent not in _WAITS  # CoopWaitq falls back to ThreadWaitq

    wait_ns = _sub(g.total(_WAITS, "total_ns", parent=not_wait),
                   g.total(_WAITS, "tag_sum", parent=not_wait))
    slot_wait = _sub(g.total(_WAITS, "total_ns", parent=is_in(_SLOTS)),
                     g.total(_WAITS, "tag_sum", parent=is_in(_SLOTS)))
    recv_wait = _sub(
        g.total(_WAITS, "total_ns", parent=is_in(("Mailbox.match",))),
        g.total(_WAITS, "tag_sum", parent=is_in(("Mailbox.match",))))
    posted = _add(g.total(("Mailbox.post",)),
                  g.total(("Mailbox.post_many",), "tag_sum"))
    matched = _add(g.total(("Mailbox.match", "Mailbox.try_match")),
                   g.total(("Mailbox.match_many",), "tag_sum"))
    # the match predicate runs inside wait_for: count it as matching
    match_self = _add(g.total(_MATCHES, "self_ns"),
                      g.total(_WAITS, "tag_sum", parent=is_in(_MATCHES)))
    booked = _add(g.total(("WireTracker.book",)),
                  g.total(("WireTracker.book_many",), "tag_sum"))
    runs = g.total(("CollectivePipeline.run",))
    executes = g.total(("CollectivePipeline.execute",))
    engines = g.total(("Engine.__init__",), phase=None)
    lookups = g.total(("PlanCache.lookup",))
    acquires = g.total(("BufferPool.acquire",))
    eager = g.total(("Mailbox.post",), tag=lambda t: t == "eager")
    rts = g.total(("Mailbox.post",), tag=lambda t: t == "rts")
    copies = counters.get("copies_elided", 0) + counters.get("copies_forced", 0)
    engine_ops = traced.get("attempted", 0)
    cpu = sum(b["user_s"] + b["sys_s"] for b in ref["batches"])
    product = trace.get("product")

    out = {
        "host.core_speed": statistics.median(map(speed, ref["batches"])),
        "sim.engine.init_ms": _div(
            g.total(("Engine.__init__",), "total_ns", phase=None),
            (engines or 0) * ns_ms),
        "sim.engine.run_overhead_ms": _div(
            _sub(g.total(("Engine.run",), "total_ns", phase=None),
                 g.total(("Engine.run",), "tag_sum", phase=None)),
            (g.total(("Engine.run",), phase=None) or 0) * ns_ms),
        "sim.engine.slot_exchanges_per_op": per_op(
            g.total(("CollectiveSlot.exchange",))),
        "sim.engine.slot_wait_ms_per_op": per_op(slot_wait, ns_ms),
        "sim.sched.waits_per_op": per_op(g.total(_WAITS, parent=not_wait)),
        "sim.sched.wait_ms_per_op": per_op(wait_ns, ns_ms),
        "sim.sched.coop_switches_per_op": _div(
            counters.get("coop_switches"), engine_ops),
        "sim.sched.os_ctx_switches_per_op": _div(
            sum(b["ctxsw"] for b in ref["batches"]), ref_ops),
        "sim.mailbox.posts_per_op": per_op(posted),
        "sim.mailbox.post_self_us": _div(
            g.total(_POSTS, "self_ns"), (posted or 0) * ns_us),
        "sim.mailbox.matches_per_op": per_op(matched),
        "sim.mailbox.match_self_us": _div(match_self, (matched or 0) * ns_us),
        "sim.mailbox.bulk_frac": _div(
            g.total(("Mailbox.post_many",), "tag_sum"), posted),
        "sim.wire.bookings_per_op": per_op(booked),
        "sim.wire.book_self_us": _div(
            g.total(_BOOKS, "self_ns"), (booked or 0) * ns_us),
        "core.dispatch.calls_per_op": per_op(runs),
        "core.dispatch.overhead_us": _div(
            _sub(g.total(("CollectivePipeline.run",), "total_ns"),
                 g.total(("CollectivePipeline.execute",), "total_ns")),
            (runs or 0) * ns_us),
        "core.dispatch.decide_us": _div(
            g.total(("CollectivePipeline.decide",), "total_ns"),
            (g.total(("CollectivePipeline.decide",)) or 0) * ns_us),
        "core.dispatch.route_xccl_frac": _div(
            g.total(("CollectivePipeline.execute",),
                    tag=lambda t: t.startswith("xccl")), executes),
        "core.dispatch.route_mpi_frac": _div(
            g.total(("CollectivePipeline.execute",),
                    tag=lambda t: t.startswith("mpi")), executes),
        "core.dispatch.route_fallbacks": g.total(
            ("CollectivePipeline.execute",),
            tag=lambda t: t.endswith("+fallback")),
        "core.plan.hit_ratio": _div(
            g.total(("PlanCache.lookup",), tag=lambda t: t == "hit"), lookups),
        "core.plan.pool_reuse_ratio": _div(
            g.total(("BufferPool.acquire",), tag=lambda t: t == "hit"),
            acquires),
        "core.tuning_table.tune_ms": _div(
            g.total(("tuning_table.tune_offline",), "total_ns", phase=None),
            max(engines or 0, 1) * ns_ms),
        "perfmodel.calls_per_op": per_op(g.total(_PERF)),
        "perfmodel.self_us_per_op": per_op(g.total(_PERF, "self_ns"), ns_us),
        "mpi.coll.self_ms_per_op": per_op(g.total(_COLL, "self_ns"), ns_ms),
        "mpi.coll.p2p_msgs_per_op": per_op(
            g.total(_SENDS, parent=is_in(_COLL))),
        "mpi.p2p.sends_per_op": per_op(g.total(_SENDS)),
        "mpi.p2p.send_self_us": _div(
            g.total(_SENDS, "self_ns"), (g.total(_SENDS) or 0) * ns_us),
        "mpi.p2p.recv_self_us": _div(
            g.total(_RECVS, "self_ns"), (g.total(_RECVS) or 0) * ns_us),
        "mpi.p2p.recv_wait_ms_per_op": per_op(recv_wait, ns_ms),
        "mpi.p2p.eager_frac": _div(eager, _add(eager, rts)),
        "xccl.backend.calls_per_op": per_op(g.total(_CCL)),
        "xccl.backend.self_ms_per_op": per_op(
            g.total(_CCL, "self_ns"), ns_ms),
        "xccl.backend.group_msgs_per_op": per_op(
            g.total(("CCLBackend.send", "CCLBackend.recv"))),
        "xccl.backend.fusion_fallbacks": counters.get("fusion_fallbacks"),
        "hw.memory.copy_mb_per_op": payload_mb_per_op,
        "hw.memory.copy_self_ms_per_op": per_op(
            g.total(("Buffer.copy_from",), "self_ns"), ns_ms),
        "hw.memory.copies_elided_ratio": _div(
            counters.get("copies_elided"), copies),
        "hw.memory.minflt_per_op": _div(
            sum(b["minflt"] for b in ref["batches"]), ref_ops),
        "mpi.ops.reduce_mb_per_op": per_op(
            g.total(("Op.reduce_into",), "tag_sum"), 2 ** 20),
        "mpi.ops.reduce_self_ms_per_op": per_op(
            g.total(("Op.reduce_into",), "self_ns"), ns_ms),
        "sim.tracing.overhead_ratio": None if product is None else _div(
            median_wall_ms(product["batches"]),
            median_wall_ms(ref["batches"])),
        "sim.tracing.events_per_op": None if product is None else _div(
            product["trace_events"], product["attempted"]),
        "experiments.anchor_err_max": traced.get("anchor_err_max"),
        "experiments.records_per_run":
            traced["ops_per_batch"] if "anchor_err_max" in traced else None,
        "host.cpu_sys_frac": _div(
            sum(b["sys_s"] for b in ref["batches"]), cpu),
        # an experiment's stamps fall between its engines: nothing to see
        "host.threads_peak": max(b["threads"] for b in ref["batches"])
        if "warmup" in ref else None,
        "bench.trace_overhead_ratio": _div(
            median_wall_ms(traced["batches"]),
            median_wall_ms(ref["batches"])),
        "bench.spans_absent": len(trace["absent"]),
    }

    return out, layer_table(trace, ops * slow)


def layer_table(trace, ops):
    """Where the timed batches' host time goes: per layer, self time per
    op on the wall clock (includes lock and GIL waits) and on the thread
    CPU clock (busy only), summed over ranks.  The time a wait spends
    evaluating its caller's predicate belongs to the caller's layer.
    ``ops`` is already scaled by the core's speed."""
    layers = trace["layers"]
    table = {}
    for row in trace["groups"]:
        if row["phase"] != "timed":
            continue
        mine = table.setdefault(layers[row["name"]], [0, 0])
        mine[0] += row["self_ns"]
        mine[1] += row["cpu_self_ns"]
        if row["name"] in _WAITS and row["parent"] in layers:
            owner = table.setdefault(layers[row["parent"]], [0, 0])
            for i, moved in enumerate((row["tag_sum"], row["aux_sum"])):
                mine[i] -= moved
                owner[i] += moved
    if not ops:
        return {}
    return {layer: {"wall_self_ms_per_op": wall / 1e6 / ops,
                    "cpu_self_ms_per_op": cpu / 1e6 / ops}
            for layer, (wall, cpu) in sorted(table.items())}


def traced_end_to_end(trace):
    """The three end-to-end metrics that travel with the traced pass."""
    runs = [trace["traced"], trace["ref"]] + \
        ([trace["product"]] if trace.get("product") else [])
    verdicts, attempted, failed = checked(runs)
    return {"virt_us_per_op": virt_us_per_op(trace["ref"]), **verdicts}, \
        attempted, failed


def compare(base, new, bounds):
    """One row per (metric, workload): both values, ratio new/base,
    bound and a verdict.

    ``worse`` — new is worse than base by more than the bound;
    ``unresolved`` — the pairing's recorded run-to-run spread exceeds
    its bound, so no verdict can be drawn; ``ok`` otherwise.  A bound
    marked ``abs`` is an absolute difference (metrics whose base is 0).
    """
    rows = []
    def value(results, workload, name):
        cells = results["workloads"][workload]["end_to_end"]
        return cells.get(name, {}).get("value")

    for name, unit, better in END_TO_END:
        for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
            a, b = value(base, workload, name), value(new, workload, name)
            rule = bounds.get(name, {}).get(workload)
            if a is None or b is None or rule is None:
                verdict = "unresolved"
                bound = None
            else:
                bound = rule["bound"]
                loss = (a - b) if better == "higher" else (b - a)
                if not rule.get("abs"):
                    loss = loss / abs(a) if a else \
                        (math.inf if loss > 0 else 0.0)
                if rule.get("spread", 0) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "worse" if loss > bound else "ok"
            rows.append({"metric": name, "workload": workload, "unit": unit,
                         "base": a, "new": b, "ratio": _div(b, a),
                         "bound": bound, "verdict": verdict})
    return rows
