"""Chrome-trace export, trace summaries, and the mpix-tune CLI."""

import json

import pytest

from repro.mpi import SUM, Communicator
from repro.sim.engine import Engine
from repro.sim.timeline import chrome_trace, save_chrome_trace, summarize
from repro.sim.tracing import Trace, TraceEvent


def _traced_run(cluster, nranks=2):
    engine = Engine(cluster, nranks=nranks, trace=True)

    def body(ctx):
        comm = Communicator.world(ctx)
        s = ctx.device.zeros(4096)
        r = ctx.device.zeros(4096)
        comm.Allreduce(s, r, SUM)
        return ctx.trace

    return engine.run(body)


class TestChromeTrace:
    def test_events_emitted(self, thetagpu1):
        traces = _traced_run(thetagpu1, nranks=4)
        assert all(len(t) > 0 for t in traces)

    def test_chrome_format(self, thetagpu1):
        traces = _traced_run(thetagpu1, nranks=2)
        doc = chrome_trace(traces)
        assert "traceEvents" in doc
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert slices and metas
        for s in slices:
            assert s["dur"] > 0
            assert s["tid"] in (0, 1)
            assert s["cat"] in ("p2p", "ccl", "compute", "other")

    def test_thread_names_per_rank(self, thetagpu1):
        doc = chrome_trace(_traced_run(thetagpu1, nranks=3))
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("name") == "thread_name"}
        assert names == {"rank 0", "rank 1", "rank 2"}

    def test_save_is_valid_json(self, thetagpu1, tmp_path):
        path = tmp_path / "trace.json"
        save_chrome_trace(_traced_run(thetagpu1), str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"

    def test_summarize(self, thetagpu1):
        summary = summarize(_traced_run(thetagpu1, nranks=2))
        assert "rank0" in summary
        assert any(k in summary["rank0"] for k in ("send", "recv"))

    def test_disabled_trace_records_nothing(self):
        t = Trace(0, enabled=False)
        t.record("send", 0.0, 1.0)
        assert len(t) == 0

    def test_trace_filters_and_totals(self):
        t = Trace(0)
        t.record("send", 0.0, 2.0, peer=1, nbytes=64)
        t.record("recv", 2.0, 5.0, peer=1, nbytes=64)
        assert len(t.of_kind("send")) == 1
        assert t.total_time() == 5.0
        assert t.total_time("recv") == 3.0
        t.clear()
        assert len(t) == 0

    def test_event_duration(self):
        ev = TraceEvent(0, "send", 1.0, 4.5)
        assert ev.duration_us == 3.5


class TestTuneCLI:
    def test_show(self, capsys):
        from repro.core.tune_cli import main
        assert main(["--system", "thetagpu", "--show"]) == 0
        out = capsys.readouterr().out
        assert "allreduce" in out
        assert "backend=nccl" in out

    def test_write_and_reload(self, tmp_path, capsys):
        from repro.core.tune_cli import main
        from repro.core.tuning_table import TuningTable
        path = tmp_path / "t.json"
        assert main(["--system", "mri", "--nodes", "2", "-o", str(path)]) == 0
        table = TuningTable.from_json(path.read_text())
        assert table.backend == "rccl"
        assert table.choose("allreduce", 4) == "mpi"

    def test_openmpi_personality(self, capsys):
        from repro.core.tune_cli import main
        assert main(["--system", "thetagpu", "--mpi", "openmpi",
                     "--show"]) == 0
        assert "openmpi" in capsys.readouterr().out

    def test_oneccl_extension_tunes(self, capsys):
        from repro.core.tune_cli import main
        assert main(["--system", "aurora", "--nodes", "2", "--show"]) == 0
        assert "backend=oneccl" in capsys.readouterr().out


class TestExperimentsCLI:
    def test_list(self, capsys):
        from repro.experiments.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "table1" in out

    def test_run_quick_with_csv(self, tmp_path, capsys):
        from repro.experiments.cli import main
        path = tmp_path / "t1.csv"
        assert main(["run", "table1", "--scale", "quick",
                     "-o", str(path)]) == 0
        assert path.read_text().startswith("experiment")

    @pytest.mark.parametrize("measured, code", [(1.0, 0), (2.0, 1)])
    def test_missed_anchor_exits_one(self, monkeypatch, capsys,
                                     measured, code):
        from repro.experiments import registry
        from repro.experiments.cli import main
        from repro.util.records import ResultSet
        exp = registry.Experiment(
            id="probe", title="probe", paper_ref="none",
            run=lambda scale: ResultSet(),
            checks=(registry.AnchorCheck("x", 1.0, lambda rs: measured,
                                         rel_tol=0.5),))
        registry._load_all()
        monkeypatch.setitem(registry._REGISTRY, "probe", exp)
        assert main(["run", "probe"]) == code
        assert main(["report", "--only", "probe"]) == code
        assert ("NO" in capsys.readouterr().out) == bool(code)
