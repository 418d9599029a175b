"""Experiment registry, quick-scale runs, anchor machinery, report."""

import pytest

from repro.errors import ConfigError
from repro.experiments import all_experiments, get_experiment, run_experiment
from repro.experiments.registry import AnchorCheck
from repro.experiments.report import experiment_report
from repro.util.records import ResultSet

ALL_IDS = ("table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7",
           "fig8", "fig9", "fig10")


class TestRegistry:
    def test_every_table_and_figure_registered(self):
        ids = {e.id for e in all_experiments()}
        assert ids == set(ALL_IDS)

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            get_experiment("fig99")

    def test_every_experiment_has_checks(self):
        for exp in all_experiments():
            assert len(exp.checks) >= 2, exp.id

    def test_anchor_evaluation(self):
        check = AnchorCheck("x", 100.0, lambda rs: 110.0, rel_tol=0.2)
        measured, passed, dev = check.evaluate(ResultSet())
        assert measured == 110.0
        assert passed
        assert dev == pytest.approx(0.1)

    def test_anchor_fails_outside_tol(self):
        check = AnchorCheck("x", 100.0, lambda rs: 300.0, rel_tol=0.2)
        assert not check.evaluate(ResultSet())[1]


class TestQuickRuns:
    """Each experiment runs end to end at quick scale and produces a
    sane, plottable result set."""

    @pytest.mark.parametrize("exp_id", ["table1", "fig1"])
    def test_model_experiments(self, exp_id):
        results = run_experiment(exp_id, scale="quick")
        assert len(results) > 0
        assert all(r.value >= 0 for r in results)

    def test_fig3_quick(self):
        results = run_experiment("fig3", scale="quick")
        # 4 backends x 3 metrics
        assert len(results.series_names()) == 12

    def test_fig6_quick(self):
        exp = get_experiment("fig6")
        results = exp.run("quick")
        colls = {r.meta["collective"] for r in results}
        assert colls == {"allreduce", "reduce", "bcast", "alltoall"}
        # the engine holds every Fig 6 anchor at quick scale too
        for row in exp.check_all(results):
            assert row["passed"], row

    def test_fig5_quick_panel_structure(self):
        results = run_experiment("fig5", scale="quick")
        nccl_panel = results.filter(
            lambda r: r.experiment == "fig5:allreduce:nccl")
        names = set(nccl_panel.series_names())
        assert "Proposed Hybrid xCCL" in names
        assert "Pure NCCL" in names
        assert "Open MPI + UCX + UCC" in names

    def test_fig10_quick(self):
        results = run_experiment("fig10", scale="quick")
        assert "Pure MSCCL" in results.series_names()

    @pytest.mark.slow
    def test_fig9_quick_overhead_small(self):
        results = run_experiment("fig9", scale="quick")
        x = results.filter(lambda r: r.series == "Proposed Hybrid xCCL"
                           and r.x == 128.0)[0].value
        h = results.filter(lambda r: r.series == "Pure HCCL"
                           and r.x == 128.0)[0].value
        assert abs(x - h) / h < 0.15


class TestModelMatchesEngine:
    """A mapped CCL call costs the CCL's fused duration plus the
    abstraction layer's charges (``CALL_OVERHEAD_US`` and
    ``CALL_OVERHEAD_FRACTION``): on ThetaGPU 1 x 8 at quick sizes the
    engine panel equals that closed form, written out here."""

    @pytest.fixture(autouse=True)
    def _static_routes(self, monkeypatch):
        # the closed form prices the static tables; so must the engine
        # under the check-gates MPIX_ONLINE_TUNE=1 leg
        monkeypatch.delenv("MPIX_ONLINE_TUNE", raising=False)

    @staticmethod
    def _by_point(results):
        return {(r.series, r.x): r.value for r in results}

    @staticmethod
    def _charged(params, coll, nbytes):
        from repro.core.abstraction import XCCLAbstractionLayer as layer
        from repro.hw.systems import make_system
        from repro.perfmodel import ccl_models
        from repro.perfmodel.shape import shape_of
        shape = shape_of(make_system("thetagpu", 1), range(8))
        t = ccl_models.collective_time(params, shape, coll, nbytes)
        return (layer.CALL_OVERHEAD_US
                + t * (1 + layer.CALL_OVERHEAD_FRACTION))

    @pytest.mark.parametrize("coll", ["allreduce", "bcast"])
    def test_pure_xccl(self, coll):
        from repro.experiments._common import QUICK_SIZES, run_collective_panel
        from repro.xccl.registry import get_backend
        args = ("t", "thetagpu", 1, 8, "nccl", coll, ("pure-xccl",), "quick")
        engine = self._by_point(run_collective_panel(*args))
        assert sorted(x for _, x in engine) == list(QUICK_SIZES)
        params = get_backend("nccl").params
        for point, t in engine.items():
            assert t == pytest.approx(
                self._charged(params, coll, int(point[1])), rel=1e-9), point

    def test_ucc_on_the_ccl(self):
        from repro.baselines.ucc import UCC_TABLE, UCCBackend
        from repro.experiments._common import run_collective_panel
        args = ("t", "thetagpu", 1, 8, "nccl", "allreduce", ("ucc",), "quick")
        engine = self._by_point(run_collective_panel(*args))
        on_ccl = [p for p in engine
                  if UCC_TABLE.choose("allreduce", int(p[1])) == "xccl"]
        assert on_ccl
        for point in on_ccl:
            assert engine[point] == pytest.approx(
                self._charged(UCCBackend.params, "allreduce", int(point[1])),
                rel=1e-9), point


class TestReport:
    def test_section_renders(self):
        exp = get_experiment("table1")
        text = experiment_report(exp, exp.run("quick"))
        assert "table1" in text
        assert "| anchor |" in text
        assert "yes" in text
