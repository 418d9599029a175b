"""Self-checks of the benchmark itself (``pytest benchmarks/e2e``).

Not collected by tier-1 (``testpaths = ["tests"]``).  They pin what a
later change could silently break: that tracing measures the *same*
program, the percentile rule, span self-time arithmetic, defensive
handling of deleted targets, and the results-file schema.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- percentile rule ---------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.tail_percentile(19) is None
    assert metrics.tail_percentile(20) == 50
    assert metrics.tail_percentile(40) == 75
    assert metrics.tail_percentile(100) == 90
    for n in range(20, 300):
        pct = metrics.tail_percentile(n)
        assert n * (100 - pct) / 100 >= 10
        assert n * (100 - (pct + 1)) / 100 < 10


def test_percentile_value_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile_value(values, 90) == 90
    assert metrics.percentile_value(values, 50) == 50
    assert metrics.percentile_value([5.0], 99) == 5.0


# -- span arithmetic ---------------------------------------------------------

class _Toy:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        self.inner()

    def inner(self):
        time.sleep(0.003)

    def lookup(self, key):
        return key or None


_TOY_TABLE = (
    ("toy", "test_selfcheck._Toy.outer", "span"),
    ("toy", "test_selfcheck._Toy.inner", "span"),
    ("toy", "test_selfcheck._Toy.lookup", "hit"),
    ("toy", "test_selfcheck._Toy.deleted_method", "span"),
    ("toy", "repro.sim.sched.NoSuchWaitq.wait_for", "wait"),
    ("toy", "repro.no_such_module.fn", "span"),
)


@pytest.fixture
def toy_recorder():
    sys.modules.setdefault("test_selfcheck", sys.modules[__name__])
    rec = spans.Recorder().install(_TOY_TABLE)
    try:
        yield rec
    finally:
        rec.uninstall()


def test_self_time_is_span_minus_children(toy_recorder):
    rec = toy_recorder
    toy = _Toy()
    toy.outer()
    rec.mark(spans.TIMED)
    toy.outer()
    toy.lookup(1)
    toy.lookup(0)
    rows = rec.aggregate()

    def row(name, parent, phase, tag="-"):
        found = [r for r in rows if (r["name"], r["parent"], r["phase"],
                                     r["tag"]) == (name, parent, phase, tag)]
        assert len(found) == 1, (name, parent, phase, tag, rows)
        return found[0]

    for phase in ("setup", "timed"):
        outer = row("_Toy.outer", None, phase)
        inner = row("_Toy.inner", "_Toy.outer", phase)
        assert (outer["n"], inner["n"]) == (1, 2)
        assert outer["self_ns"] == outer["total_ns"] - inner["total_ns"]
        assert inner["self_ns"] == inner["total_ns"]
        assert outer["total_ns"] >= 8e6 and inner["total_ns"] >= 6e6
        assert 2e6 <= outer["self_ns"] < outer["total_ns"]
        # sleeping is not CPU time: the thread clock must not count it
        assert outer["cpu_ns"] < outer["total_ns"] / 2
        assert outer["cpu_self_ns"] == outer["cpu_ns"] - inner["cpu_ns"]
    assert row("_Toy.lookup", None, "timed", "hit")["n"] == 1
    assert row("_Toy.lookup", None, "timed", "miss")["n"] == 1


def test_missing_targets_are_reported_never_raised(toy_recorder):
    assert toy_recorder.absent == [
        "test_selfcheck._Toy.deleted_method",
        "repro.sim.sched.NoSuchWaitq.wait_for",
        "repro.no_such_module.fn"]
    groups = metrics.Groups(toy_recorder.aggregate(), toy_recorder.names)
    assert groups.total(("NoSuchWaitq.wait_for",)) is None
    assert groups.total(("_Toy.outer",)) == 0


def test_uninstall_restores_the_classes():
    before = _Toy.__dict__["outer"]
    rec = spans.Recorder().install(_TOY_TABLE[:1])
    assert _Toy.__dict__["outer"] is not before
    rec.uninstall()
    assert _Toy.__dict__["outer"] is before


def test_every_span_target_resolves_at_this_commit():
    rec = spans.Recorder()
    try:
        rec.install()
        assert rec.absent == []
        assert len(set(rec.names)) == len(rec.names) == len(spans.SPANS)
    finally:
        rec.uninstall()
    assert spans.read_counters(), "fastpath.snapshot() went away"


# -- tracing measures the same program ---------------------------------------

#: one node, both routes, a fused group and a rooted call — in seconds
_PROBE = workloads.Workload(
    "probe", "self-check", "coll", nodes=1,
    calls=(("allreduce", 64), ("allreduce", 256 * 1024), ("bcast", 1024),
           ("alltoall", 4096), ("reduce_scatter_block", 32 * 1024),
           ("allgather", 64)),
    iters_per_batch=2)
_STABLE_COUNTERS = ("fusion_fallbacks", "fusion_exchanges", "dispatch_calls",
                    "route_xccl", "route_mpi", "route_fallbacks", "hits",
                    "misses")


def test_tracing_leaves_routes_copies_and_virtual_time_alone():
    plain = child.measure(_PROBE, 7, 0.0, 2)
    plain_counters = spans.read_counters()
    rec = spans.Recorder().install()
    try:
        traced = child.measure(_PROBE, 7, 0.0, 2, rec=rec)
    finally:
        rec.uninstall()
    traced_counters = spans.read_counters()
    assert rec.absent == []
    assert plain["mailbox_patched"] is False
    assert traced["mailbox_patched"] is False
    assert plain["failed"] == traced["failed"] == 0
    assert len(plain["batches"]) == len(traced["batches"]) == 2
    for key in _STABLE_COUNTERS:
        assert plain_counters[key] == traced_counters[key], key
    assert traced_counters["route_xccl"] and traced_counters["route_mpi"]
    assert traced_counters["fusion_fallbacks"] == 0

    # a deferred-eager Sendrecv elides its snapshot only if the peer got
    # there first, so the split races; the number of hand-offs does not
    def handoffs(counters):
        return counters["copies_forced"] + counters["copies_elided"]

    assert handoffs(plain_counters) == handoffs(traced_counters) > 0
    assert metrics.virt_us_per_op(plain) == metrics.virt_us_per_op(traced)
    assert plain["warmup"]["virt_us"] == traced["warmup"]["virt_us"]
    # and the spans saw the same routes the program counted
    groups = metrics.Groups(rec.aggregate(), rec.names)
    executes = groups.total(("CollectivePipeline.execute",), phase=None)
    assert executes == traced_counters["dispatch_calls"]
    assert groups.total(("CollectivePipeline.execute",), phase=None,
                        tag=lambda t: t == "xccl") == \
        traced_counters["route_xccl"]


def test_oracle_notices_a_wrong_element():
    import numpy as np
    expected = np.arange(8, dtype=np.float32)
    good = expected.copy()
    assert workloads.CollRank._same(good, expected, full=True)
    bad = expected.copy()
    bad[3] += 1
    assert not workloads.CollRank._same(bad, expected, full=True)
    bad = expected.copy()
    bad[-1] = -1
    assert not workloads.CollRank._same(bad, expected, full=False)


def test_seed_draws_the_program_and_the_pattern():
    wl = workloads.WORKLOADS["small_8"]
    assert workloads.make_program(wl, 1) == workloads.make_program(wl, 1)
    assert workloads.make_program(wl, 1) != workloads.make_program(wl, 2)
    assert (workloads.make_pattern(wl, 1) == workloads.make_pattern(wl, 1)).all()
    assert (workloads.make_pattern(wl, 1) != workloads.make_pattern(wl, 2)).any()
    assert sorted(op for op, _n, _r in workloads.make_program(wl, 1)) == \
        sorted(op for op, _n in wl.calls * wl.iters_per_batch)


# -- schema ------------------------------------------------------------------

def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metric_tables():
    doc = _load(ROOT / "BENCHMARK.json")
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    table = {n: (u, b) for n, u, b in metrics.END_TO_END + metrics.PER_LAYER}
    assert [m["name"] for m in doc["end_to_end"]] == \
        list(metrics.DRIVER_END_TO_END)
    listed = doc["end_to_end"] + doc["per_layer"]
    assert sorted(m["name"] for m in listed) == sorted(table)
    for m in listed:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert (m["unit"], m["better"]) == table[m["name"]]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])


def test_bounds_cover_every_pairing_and_feed_the_driver_bound():
    bounds = _load(HERE / "bounds.json")
    doc = _load(ROOT / "BENCHMARK.json")
    for name, _unit, _better in metrics.END_TO_END:
        assert set(bounds[name]) == set(workloads.WORKLOADS), name
        for rule in bounds[name].values():
            assert rule["bound"] >= 0 and rule["spread"] >= 0
    # the driver takes one bound per metric and wants every workload's
    # spread inside it: no tighter than the widest pairing, capped at 0.25
    for m in doc["end_to_end"]:
        rules = bounds[m["name"]].values()
        assert m["bound"] >= min(max(r["bound"] for r in rules), 0.25)
        assert m["bound"] >= max(r["spread"] for r in rules), m["name"]


def test_baseline_results_file_schema():
    base = _load(HERE / "baseline.json")
    assert base["schema"] == 1
    assert set(base["workloads"]) == set(workloads.WORKLOADS)
    for name, result in base["workloads"].items():
        assert set(result["end_to_end"]) == \
            {n for n, _u, _b in metrics.END_TO_END}, name
        assert set(result["per_layer"]) == \
            {n for n, _u, _b in metrics.PER_LAYER}, name
        for cell in result["end_to_end"].values():
            assert isinstance(cell["value"], (int, float)), name
        assert result["end_to_end"]["fail_ratio"]["value"] == 0
        assert result["per_layer"]["bench.spans_absent"]["value"] == 0
        assert result["mailbox_patched"] in (False, None)
        assert result["timing"]["batches"] >= child.MAIN_MIN_BATCHES


def test_compare_verdicts():
    def results(ops, virt):
        return {"workloads": {"w": {"end_to_end": {
            "ops_per_s": {"value": ops}, "virt_us_per_op": {"value": virt},
            "virt_rerun_rel_diff": {"value": 0.0}}}}}
    bounds = {"ops_per_s": {"w": {"bound": 0.1, "spread": 0.03}},
              "virt_us_per_op": {"w": {"bound": 0.0, "spread": 0.0}},
              "virt_rerun_rel_diff": {"w": {"bound": 0.05, "spread": 0.0,
                                            "abs": True}}}

    def verdicts(new):
        rows = metrics.compare(results(100.0, 5.0), new, bounds)
        return {r["metric"]: r["verdict"] for r in rows}

    assert verdicts(results(95.0, 5.0))["ops_per_s"] == "ok"
    assert verdicts(results(85.0, 5.0))["ops_per_s"] == "worse"
    assert verdicts(results(300.0, 4.0))["virt_us_per_op"] == "ok"
    assert verdicts(results(100.0, 5.000001))["virt_us_per_op"] == "worse"
    assert verdicts(results(100.0, 5.0))["virt_rerun_rel_diff"] == "ok"
    assert verdicts(results(100.0, 5.0))["cpu_ms_per_op"] == "unresolved"
    noisy = dict(bounds, ops_per_s={"w": {"bound": 0.1, "spread": 0.2}})
    rows = metrics.compare(results(100.0, 5.0), results(50.0, 5.0), noisy)
    assert rows[0]["verdict"] == "unresolved"


def test_driver_line_has_exactly_the_contract_keys():
    values = {name: 1.5 for name, _u, _b in metrics.END_TO_END}
    result = {"end_to_end": run.with_units(values, metrics.END_TO_END),
              "attempted": 10, "failed": 0}
    line = run.driver_line(result, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == list(metrics.DRIVER_END_TO_END)
    layers = {name: None for name, _u, _b in metrics.PER_LAYER}
    result = {"per_layer": run.with_units(layers, metrics.PER_LAYER),
              "traced_end_to_end": run.with_units(
                  {"virt_us_per_op": 2.0, "virt_rerun_rel_diff": None,
                   "fail_ratio": 0.0}, metrics.END_TO_END),
              "trace_attempted": 4, "trace_failed": 1}
    line = run.driver_line(result, trace=True)
    assert line["correct"] is False and line["failed"] == 1
    doc = _load(ROOT / "BENCHMARK.json")
    assert sorted(line["metrics"]) == sorted(m["name"] for m in doc["per_layer"])
    assert all(isinstance(c["value"], (int, float))
               for c in line["metrics"].values())
