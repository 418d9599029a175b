"""The observability layer: stage tracing, transport labels, export.

Pins the PR's contract end to end: every stage of the dispatch
pipeline leaves a marker, every transport path labels its events
(including the fused whole-group exchange and derived communicators),
the Chrome-trace exporter emits a Perfetto-loadable document, tracing
never perturbs payloads or virtual times, and ``fastpath.STATS`` no
longer leaks between engine runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import fastpath
from repro.core.dispatch import CollectivePipeline, DispatchMode
from repro.core.runtime import world_communicator
from repro.dl.horovod import HorovodConfig
from repro.dl.models import tiny_mlp
from repro.dl.trainer import train
from repro.mpi import SUM, Communicator
from repro.mpi.coll import MPICollDispatcher
from repro.obs.metrics import (
    aggregate_doc,
    aggregate_traces,
    bucket_label,
    bucket_of,
    diff_reports,
    tune_report,
    validate_doc,
)
from repro.omb.stacks import make_stack
from repro.sim.engine import Engine
from repro.sim.timeline import chrome_trace, engine_chrome_trace

#: big enough to cross the thetagpu 1-node tuning crossover (routes
#: xccl); SMALL stays below it (routes mpi:tuning)
BIG = 65536
SMALL = 16


def _stage_labels(traces):
    return {ev.label for t in traces for ev in t.of_kind("stage")}


def _labels(traces, kind):
    return [ev.label for t in traces for ev in t.of_kind(kind)]


def _run_traced(cluster, body, nranks=4, trace=True, **options):
    engine = Engine(cluster, nranks=nranks, trace=trace, **options)
    results = engine.run(body)
    return engine, results


def _allreduce_body(mode):
    def body(ctx):
        comm = world_communicator(ctx, mode=mode)
        s = ctx.device.zeros(BIG)
        r = ctx.device.zeros(BIG)
        comm.Allreduce(s, r, SUM)                 # big: xccl on hybrid
        small_s = ctx.device.zeros(SMALL)
        small_r = ctx.device.zeros(SMALL)
        comm.Allreduce(small_s, small_r, SUM)     # small: mpi:tuning
        comm.Allreduce(s, r, SUM)                 # repeat: plan hit
    return body


class TestPipelineStageTracing:
    """Tentpole: the five pipeline stages each leave a trace marker."""

    def test_all_five_stages_marked_on_hybrid_run(self, thetagpu1):
        # a tuned collective bypasses the plan cache (plan:tune), so the
        # plan:miss/plan:hit markers need the online tuner off — pin it
        # so the check-gates MPIX_ONLINE_TUNE=1 leg passes too
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.HYBRID),
            online_tune=False)
        stages = _stage_labels(engine.traces())
        assert "validate:allreduce" in stages          # stage 1
        assert "capability:ok" in stages               # stage 2
        assert "route:xccl" in stages                  # stage 3 (big)
        assert "route:mpi:tuning" in stages            # stage 3 (small)
        assert "plan:miss" in stages                   # stage 4, first call
        assert "plan:hit" in stages                    # stage 4, repeat
        labels = set(_labels(engine.traces(), "dispatch"))  # stage 5
        assert "execute:allreduce:xccl:nccl" in labels
        assert "execute:allreduce:mpi:tuning" in labels

    def test_pure_mpi_mode_skips_capability(self, thetagpu1):
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.PURE_MPI))
        stages = _stage_labels(engine.traces())
        assert "capability:skipped" in stages
        assert "route:mpi:mode" in stages
        assert "route:xccl" not in stages

    def test_capability_fallback_reason_marked(self, thetagpu1):
        """A host-resident buffer fails the §3.2 capability check; the
        marker and the execute span both carry the reason."""
        def body(ctx):
            comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
            s = np.zeros(BIG, dtype=np.float32)      # host memory
            r = np.zeros(BIG, dtype=np.float32)
            comm.Allreduce(s, r, SUM)

        engine, _ = _run_traced(thetagpu1, body)
        stages = _stage_labels(engine.traces())
        assert "capability:host_buffer" in stages
        assert "route:mpi:host_buffer" in stages
        assert "execute:allreduce:mpi:host_buffer" in set(
            _labels(engine.traces(), "dispatch"))

    def test_untraced_run_records_nothing(self, thetagpu1):
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.HYBRID), trace=False)
        assert all(len(t) == 0 for t in engine.traces())


class TestTransportAndDerivedComms:
    """Satellite: both transport fast paths and every derived
    communicator record events (previously the fused built-ins and the
    exchange path were silent)."""

    @staticmethod
    def _alltoall_body(ctx):
        comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
        p, r = comm.size, comm.rank
        s = ctx.device.zeros(256 * p)
        s.array[:] = r
        out = ctx.device.zeros(256 * p)
        comm.Alltoall(s, out, count=256)

    def test_group_exchange_transport_labeled(self, thetagpu1):
        fastpath.STATS.reset()
        engine, _ = _run_traced(thetagpu1, self._alltoall_body)
        stats = fastpath.STATS.snapshot()
        assert stats["fusion_exchanges"] > 0      # the path engaged
        sends = _labels(engine.traces(), "ccl-send")
        recvs = _labels(engine.traces(), "ccl-recv")
        assert sends and set(sends) == {"exchange"}
        assert recvs and set(recvs) == {"exchange"}

    def test_bulk_transport_labeled(self, thetagpu1):
        """A rooted group opens without the exchange hint and rides the
        bulk mailbox transport."""
        def body(ctx):
            comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
            s = ctx.device.zeros(256)
            out = ctx.device.zeros(256 * comm.size)
            comm.Gather(s, out, root=0, count=256)

        engine, _ = _run_traced(thetagpu1, body)
        sends = _labels(engine.traces(), "ccl-send")
        recvs = _labels(engine.traces(), "ccl-recv")
        assert sends and set(sends) == {"bulk"}
        assert recvs and set(recvs) == {"bulk"}

    def test_fused_builtin_records_ccl_span(self, thetagpu1):
        """The five direct-CCL collectives run entirely inside a fused
        rendezvous; they must still leave a per-call ``ccl`` span."""
        def body(ctx):
            comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
            s = ctx.device.zeros(BIG)
            r = ctx.device.zeros(BIG)
            comm.Allreduce(s, r, SUM)
            comm.Bcast(r, root=0)

        engine, _ = _run_traced(thetagpu1, body)
        for t in engine.traces():
            ccl = t.of_kind("ccl")
            assert {ev.label for ev in ccl} == {"nccl:allreduce",
                                                "nccl:bcast"}
            assert all(ev.nbytes > 0 for ev in ccl)

    def test_dup_and_split_comms_record_events(self, thetagpu1):
        """Collectives on Dup/Split communicators land in the same
        per-rank trace as world traffic (no silent drops)."""
        def body(ctx):
            comm = world_communicator(ctx, mode=DispatchMode.PURE_XCCL)
            layer = comm.coll.layer
            dup = comm.Dup()
            dup.coll = CollectivePipeline(layer, DispatchMode.PURE_XCCL)
            half = comm.Split(color=comm.rank % 2, key=comm.rank)
            half.coll = CollectivePipeline(layer, DispatchMode.PURE_XCCL)
            s = ctx.device.zeros(BIG)
            r = ctx.device.zeros(BIG)
            dup.Allreduce(s, r, SUM)
            half.Allreduce(s, r, SUM)

        engine, _ = _run_traced(thetagpu1, body)
        for t in engine.traces():
            # one fused span per collective per comm: dup + split half
            assert len(t.of_kind("ccl")) == 2
            assert len(t.of_kind("dispatch")) == 2

    def test_hierarchical_subcomms_record_events(self, thetagpu2):
        """The node-leader algorithm's cached ``_hier_comms`` run over
        plain p2p; every rank's trace must show the traffic."""
        captured = {}

        def body(ctx):
            comm = Communicator.world(ctx)
            comm.coll = MPICollDispatcher(force="hierarchical")
            s = ctx.device.zeros(1024)
            s.array[:] = 1.0
            r = ctx.device.zeros(1024)
            comm.Allreduce(s, r, SUM)
            captured[ctx.rank] = float(r.array[0])

        engine, _ = _run_traced(thetagpu2, body, nranks=8)
        assert all(v == 8.0 for v in captured.values())
        for t in engine.traces():
            assert len(t.of_kind("send")) > 0
            assert len(t.of_kind("recv")) > 0


class TestChromeExport:
    """Satellite: golden schema of the exporter + parity."""

    def _doc(self, cluster, nranks=4):
        engine, _ = _run_traced(
            cluster, _allreduce_body(DispatchMode.HYBRID), nranks=nranks)
        return engine_chrome_trace(engine, meta={"tool": "test"})

    def test_golden_schema(self, thetagpu1):
        doc = json.loads(json.dumps(self._doc(thetagpu1)))
        assert validate_doc(doc) == []
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"] == {"tool": "test"}
        events = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        assert events
        for e in events:
            assert {"name", "cat", "pid", "tid", "ts", "args"} <= set(e)
            assert e["args"]["kind"]
        last = {}
        for e in events:
            track = (e["pid"], e["tid"])
            assert e["ts"] >= last.get(track, float("-inf"))
            last[track] = e["ts"]

    def test_stage_markers_are_instants(self, thetagpu1):
        doc = self._doc(thetagpu1)
        stages = [e for e in doc["traceEvents"]
                  if e.get("args", {}).get("kind") == "stage"]
        assert stages
        assert all(e["ph"] == "i" and e["s"] == "t" for e in stages)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert slices and all(e["dur"] > 0 for e in slices)

    def test_one_pid_per_node(self, thetagpu2):
        engine, _ = _run_traced(
            thetagpu2, _allreduce_body(DispatchMode.HYBRID), nranks=16)
        doc = engine_chrome_trace(engine)
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] != "M"}
        assert pids == {0, 1}
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "process_name"}
        assert names == {"mpix node 0", "mpix node 1"}
        # ranks 0-7 on node 0, 8-15 on node 1 (default placement)
        by_pid = {}
        for e in doc["traceEvents"]:
            if e.get("name") == "thread_name" and "tid" in e:
                by_pid.setdefault(e["pid"], set()).add(e["tid"])
        assert by_pid[0] == set(range(8)) and by_pid[1] == set(range(8, 16))

    def test_single_pid_without_node_map(self, thetagpu1):
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.HYBRID))
        doc = chrome_trace(engine.traces())
        assert {e["pid"] for e in doc["traceEvents"]} == {0}

    def test_tracing_parity_bit_identical(self, thetagpu1, monkeypatch):
        """Tracing is observation only: payloads and virtual times are
        bit-identical with tracing off, on, and on by its MPIX_TRACE
        default."""
        def body(ctx):
            comm = world_communicator(ctx)
            p, r = comm.size, comm.rank
            s = ctx.device.zeros(BIG)
            s.array[:] = np.arange(BIG, dtype=np.float32) * 0.25 + r
            out = ctx.device.zeros(BIG)
            comm.Allreduce(s, out, SUM)
            a2a = ctx.device.zeros(64 * p)
            a2a.array[:] = r
            a2a_r = ctx.device.zeros(64 * p)
            comm.Alltoall(a2a, a2a_r, count=64)
            return (out.array.tobytes(), a2a_r.array.tobytes(), ctx.now)

        def run(trace):
            engine = Engine(thetagpu1, nranks=4, trace=trace)
            return engine.run(body)

        off = run(False)
        on = run(True)
        monkeypatch.setenv("MPIX_TRACE", "1")
        by_default = run(None)
        assert off == on == by_default


class TestMetricsAggregation:
    """The per-collective aggregator: traces and docs agree."""

    def test_report_from_traces_and_doc_agree(self, thetagpu1):
        # pins plan:hit counts, so the online tuner must be off even
        # under the check-gates MPIX_ONLINE_TUNE=1 leg
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.HYBRID),
            online_tune=False)
        from_traces = aggregate_traces(engine.traces())
        from_doc = aggregate_doc(engine_chrome_trace(engine))
        assert from_traces.ranks == from_doc.ranks == 4
        m_t = from_traces.collectives["allreduce"]
        m_d = from_doc.collectives["allreduce"]
        assert m_t.count == m_d.count == 12          # 3 calls x 4 ranks
        assert m_t.routes == m_d.routes
        assert m_t.routes["xccl:nccl"] == 8
        assert m_t.routes["mpi:tuning"] == 4
        assert m_t.bytes_total == m_d.bytes_total > 0
        assert m_t.histogram == m_d.histogram
        assert sum(m_t.histogram) == 12
        assert from_traces.stages["plan:hit"] == from_doc.stages["plan:hit"]

    def test_diff_reports(self, thetagpu1):
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.HYBRID))
        report = aggregate_traces(engine.traces())
        rows = diff_reports(report, report)
        row = next(r for r in rows if r[0] == "allreduce")
        assert row[1] == "12->12" and row[4] == 0.0

    def test_histogram_buckets(self):
        assert bucket_of(0.5) == 0 and bucket_label(0) == "<1us"
        assert bucket_of(1.0) == 1 and bucket_label(1) == "<2us"
        assert bucket_of(3.0) == 2
        assert bucket_of(1e12) == 23            # clamped to the last bucket

    def test_validate_doc_flags_problems(self):
        assert validate_doc({}) == ["traceEvents missing or not a list"]
        bad = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 5.0,
             "dur": 1.0},
            {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 1.0,
             "dur": 0.0},
        ]}
        problems = validate_doc(bad)
        assert any("non-positive dur" in p for p in problems)
        assert any("not monotonic" in p for p in problems)


class TestStatsAutoReset:
    """Satellite: the process-global STATS singleton no longer leaks
    between engine runs."""

    def _run_once(self, cluster):
        engine = Engine(cluster, nranks=4)
        engine.run(_allreduce_body(DispatchMode.HYBRID))
        return fastpath.STATS.snapshot()

    def test_engine_construction_resets_counters(self, thetagpu1):
        fastpath.STATS.dispatch_calls += 1
        assert fastpath.STATS.snapshot()["dispatch_calls"] > 0
        Engine(thetagpu1, nranks=2)
        snap = fastpath.STATS.snapshot()
        assert all(v == 0 for v in snap.values())

    def test_back_to_back_runs_start_from_zero(self, thetagpu1):
        first = self._run_once(thetagpu1)
        second = self._run_once(thetagpu1)
        assert first["dispatch_calls"] == 12      # 3 calls x 4 ranks
        assert second == first                    # no accumulation


class TestTraceGate:
    """``trace=`` and its ``MPIX_TRACE`` default (off)."""

    def test_registered_in_gate_env(self):
        """``MPIX_TRACE`` is parsed in ``repro.config`` like the other
        option defaults: truthy spellings on, the falsy set and an
        unset variable off."""
        from repro.config import from_env
        assert from_env({}).trace is False
        assert from_env({"MPIX_TRACE": "1"}).trace is True
        assert from_env({"MPIX_TRACE": "yes"}).trace is True
        for falsy in ("0", "false", "Off", "no", " "):
            assert from_env({"MPIX_TRACE": falsy}).trace is False

    def test_default_tracks_environment(self, thetagpu1, monkeypatch):
        """The default is read when the engine is built, not at
        import: flipping the variable between two engines flips it."""
        monkeypatch.setenv("MPIX_TRACE", "1")
        assert Engine(thetagpu1, nranks=2).options["trace"]
        monkeypatch.delenv("MPIX_TRACE")
        assert not Engine(thetagpu1, nranks=2).options["trace"]

    def test_gate_enables_engine_tracing(self, thetagpu1, monkeypatch):
        monkeypatch.setenv("MPIX_TRACE", "1")
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.HYBRID), trace=None)
        assert engine.options["trace"]
        assert all(len(t) > 0 for t in engine.traces())

    def test_configure_round_trips_trace(self, thetagpu1, monkeypatch):
        """Explicit arguments win both ways: ``trace=False`` is not
        overridden by ``MPIX_TRACE=1``, and ``trace=True`` works with
        the variable unset."""
        monkeypatch.setenv("MPIX_TRACE", "1")
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.HYBRID), trace=False)
        assert all(len(t) == 0 for t in engine.traces())
        monkeypatch.delenv("MPIX_TRACE")
        engine, _ = _run_traced(
            thetagpu1, _allreduce_body(DispatchMode.HYBRID), trace=True)
        assert all(len(t) > 0 for t in engine.traces())


class TestTrainerStepMarkers:
    """dl/trainer.py emits Horovod step-boundary spans."""

    def test_step_spans_recorded(self, thetagpu1):
        def body(ctx):
            stack = make_stack(ctx, "hybrid", "nccl")
            return train(ctx, stack, tiny_mlp(), 32, steps=3,
                         config=HorovodConfig())

        engine, results = _run_traced(thetagpu1, body, nranks=4)
        assert all(r.img_per_sec > 0 for r in results)
        for t in engine.traces():
            steps = t.of_kind("step")
            assert [ev.label for ev in steps] == [
                "horovod-step:0", "horovod-step:1", "horovod-step:2"]
            assert all(ev.duration_us > 0 for ev in steps)


class TestCLIs:
    """mpix-omb --trace and the mpix-trace subcommands."""

    @pytest.fixture
    def trace_file(self, tmp_path, capsys):
        from repro.omb.cli import main as omb_main
        path = tmp_path / "omb.json"
        assert omb_main(["allreduce", "alltoallv", "--system", "thetagpu",
                         "--nodes", "1", "--sizes", "16K:64K",
                         "--iterations", "1", "--warmup", "0",
                         "--trace", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_omb_trace_is_valid(self, trace_file):
        doc = json.loads(trace_file.read_text())
        assert validate_doc(doc) == []
        assert doc["otherData"]["benchmarks"] == ["allreduce", "alltoallv"]
        report = aggregate_doc(doc)
        assert {"allreduce", "alltoallv"} <= set(report.collectives)

    def test_trace_cli_validate_and_summarize(self, trace_file, capsys):
        from repro.obs.cli import main as trace_main
        assert trace_main(["validate", str(trace_file)]) == 0
        assert capsys.readouterr().out.startswith("OK:")
        assert trace_main(["summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "allreduce" in out and "alltoallv" in out
        assert "Pipeline stage" in out

    def test_trace_cli_diff(self, trace_file, capsys):
        from repro.obs.cli import main as trace_main
        assert trace_main(["diff", str(trace_file), str(trace_file)]) == 0
        assert "allreduce" in capsys.readouterr().out

    def test_tune_report_prints_rows_and_the_route_each_call_took(
            self, trace_file, capsys):
        """Untuned, every call follows its static row, the vector form's
        (alltoallv: the alltoall row) included, so no bucket flips; the
        table's rows print as size bound -> route."""
        from repro.obs.cli import main as trace_main
        assert trace_main(["tune-report", str(trace_file), "--system",
                           "thetagpu", "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "#   alltoall         " in out and " above xccl" in out
        assert "alltoallv" in out and "FLIP" not in out

    def test_tune_report_reads_a_communicator_by_its_own_rows(
            self, tmp_path, capsys, monkeypatch):
        """Under the hier smoke's table the hierarchy runs its one-node
        inner ``Allgather`` on a communicator of its own, where its CCL
        leg runs ``xccl`` whatever the world's ``allgather`` row says
        (``mpi`` up to 2 MiB).  The report keys each span by its
        communicator and prices only COMM_WORLD's against the table, so
        that call reads as no FLIP."""
        from repro.obs.cli import main as trace_main
        from repro.omb.cli import main as omb_main
        table = Path(__file__).resolve().parents[1] / "tools" / "tables" \
            / "hier_smoke.json"
        monkeypatch.setenv("MPIX_TUNING_FILE", str(table))
        path = tmp_path / "hier.json"
        assert omb_main(["allreduce", "--system", "thetagpu", "--topology",
                         "4x8", "--nics", "8", "--sizes", "2M:2M",
                         "--iterations", "1", "--warmup", "0",
                         "--trace", str(path)]) == 0
        buckets = tune_report(json.loads(path.read_text()))
        inner = [(comm, routes) for (comm, coll, _), routes
                 in buckets.items() if coll == "allgather"]
        assert inner and all(comm != "w" and set(routes) == {"xccl"}
                             for comm, routes in inner)
        assert {comm for comm, _, _ in buckets} >= {"w"}
        capsys.readouterr()
        assert trace_main(["tune-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert " allgather " in out and "FLIP" not in out

    def test_trace_cli_rejects_garbage(self, tmp_path, capsys):
        from repro.obs.cli import main as trace_main
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert trace_main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_omb_rejects_unknown_benchmark(self, capsys):
        from repro.omb.cli import main as omb_main
        with pytest.raises(SystemExit):
            omb_main(["allreduce", "nosuch"])
