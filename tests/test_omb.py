"""OMB harness, pt2pt and collective benchmarks, stacks."""

import pytest

from repro.errors import ConfigError
from repro.omb.collective import COLLECTIVE_BENCHMARKS, osu_allreduce
from repro.omb.harness import OMBConfig, aggregate_latency, timed_loop
from repro.omb.pt2pt import osu_bibw, osu_bw, osu_latency
from repro.omb.stacks import STACK_NAMES, make_stack, series_label
from repro.sim.engine import Engine

CFG = OMBConfig(sizes=(64, 65536), warmup=1, iterations=2)


class TestHarness:
    def test_config_sized(self):
        cfg = OMBConfig(sizes=(4, 64, 1024, 65536)).sized(64, 1024)
        assert cfg.sizes == (64, 1024)

    def test_timed_loop_measures(self, thetagpu1, spmd):
        def body(ctx):
            def op():
                ctx.clock.advance(10.0)

            return timed_loop(ctx, OMBConfig(warmup=2, iterations=5),
                              lambda: None, op)

        assert spmd(thetagpu1, body, nranks=1)[0] == pytest.approx(10.0)

    def test_aggregate_latency(self, thetagpu1, spmd):
        def body(ctx):
            return aggregate_latency(ctx, "k", 64, float(ctx.rank + 1),
                                     ctx.size)

        stats = spmd(thetagpu1, body, nranks=4)[0]
        assert stats.avg_us == pytest.approx(2.5)
        assert stats.min_us == 1.0
        assert stats.max_us == 4.0


class TestPt2pt:
    def test_latency_increases_with_size(self, thetagpu1, spmd):
        out = spmd(thetagpu1,
                   lambda ctx: osu_latency(ctx, "nccl", CFG), nranks=2)[0]
        assert out[65536] > out[64]

    def test_idle_ranks_return_empty(self, thetagpu1, spmd):
        out = spmd(thetagpu1,
                   lambda ctx: osu_latency(ctx, "nccl", CFG), nranks=3)
        assert out[2] == {}

    def test_bw_below_link_capacity(self, thetagpu1, spmd):
        out = spmd(thetagpu1, lambda ctx: osu_bw(ctx, "nccl", CFG), nranks=2)[0]
        assert out[65536] < 146000  # cannot exceed raw NVSwitch

    def test_bibw_between_1x_and_2x(self, thetagpu1, spmd):
        bw = spmd(thetagpu1, lambda ctx: osu_bw(ctx, "nccl", CFG), nranks=2)[0]
        bibw = spmd(thetagpu1, lambda ctx: osu_bibw(ctx, "nccl", CFG),
                    nranks=2)[0]
        assert bw[65536] < bibw[65536] < 2 * bw[65536]

    def test_inter_node_latency_higher(self, thetagpu2, spmd):
        intra = spmd(thetagpu2, lambda ctx: osu_latency(ctx, "nccl", CFG),
                     nranks=2)[0]
        inter = spmd(thetagpu2, lambda ctx: osu_latency(ctx, "nccl", CFG),
                     nranks=2, ranks_per_node=1)[0]
        assert inter[65536] > intra[65536]


class TestCollectiveBenchmarks:
    @pytest.mark.parametrize("coll", sorted(COLLECTIVE_BENCHMARKS))
    def test_each_collective_runs_on_hybrid(self, thetagpu1, spmd, coll):
        bench = COLLECTIVE_BENCHMARKS[coll]

        def body(ctx):
            return bench(ctx, make_stack(ctx, "hybrid", "nccl"), CFG)

        stats = spmd(thetagpu1, body, nranks=4)[0]
        expected = {0} if coll == "barrier" else {64, 65536}
        assert set(stats) == expected
        assert all(s.avg_us > 0 for s in stats.values())

    def test_pure_ccl_stack(self, thetagpu1, spmd):
        def body(ctx):
            return osu_allreduce(ctx, make_stack(ctx, "ccl", "nccl"), CFG)

        stats = spmd(thetagpu1, body, nranks=4)[0]
        # CCL small-message latency floor ~ NCCL launch overhead
        assert stats[64].avg_us > 20.0

    def test_hybrid_small_beats_pure_ccl(self, thetagpu1, spmd):
        def body(ctx, stack):
            return osu_allreduce(ctx, make_stack(ctx, stack, "nccl"), CFG)

        hybrid = Engine(thetagpu1, nranks=4).run(body, "hybrid")[0]
        ccl = Engine(thetagpu1, nranks=4).run(body, "ccl")[0]
        assert hybrid[64].avg_us < ccl[64].avg_us

    def test_openmpi_slower_than_hybrid(self, thetagpu1):
        def body(ctx, stack):
            return osu_allreduce(ctx, make_stack(ctx, stack, "nccl"), CFG)

        hybrid = Engine(thetagpu1, nranks=4).run(body, "hybrid")[0]
        ucx = Engine(thetagpu1, nranks=4).run(body, "openmpi")[0]
        assert ucx[64].avg_us > hybrid[64].avg_us


class TestStacks:
    def test_all_names_buildable(self, thetagpu1, spmd):
        def body(ctx):
            return [type(make_stack(ctx, n, "nccl")).__name__
                    for n in STACK_NAMES]

        names = spmd(thetagpu1, body, nranks=2)[0]
        assert len(names) == len(STACK_NAMES)

    def test_unknown_stack(self, thetagpu1, spmd):
        def body(ctx):
            try:
                make_stack(ctx, "mvapich3")
            except ConfigError:
                return "rejected"

        assert spmd(thetagpu1, body, nranks=1) == ["rejected"]

    def test_series_labels(self):
        assert series_label("hybrid", "nccl") == "Proposed Hybrid xCCL"
        assert series_label("ccl", "msccl") == "Pure MSCCL"
        assert series_label("pure-xccl", "hccl") == \
            "Proposed xCCL w/ Pure HCCL"

    def test_default_backend_by_vendor(self, voyager1, spmd):
        def body(ctx):
            stack = make_stack(ctx, "ccl", None)
            return stack.comm.backend.name

        assert spmd(voyager1, body, nranks=2)[0] == "hccl"


class TestCLI:
    def test_collective_cli(self, capsys):
        from repro.omb.cli import main
        assert main(["allreduce", "--system", "thetagpu", "--sizes", "4:1K",
                     "--iterations", "2", "--warmup", "1"]) == 0
        out = capsys.readouterr().out
        assert "osu_allreduce" in out
        assert "1K" in out

    def test_pt2pt_cli(self, capsys):
        from repro.omb.cli import main
        assert main(["latency", "--system", "mri", "--sizes", "4:64",
                     "--iterations", "2"]) == 0
        assert "Latency" in capsys.readouterr().out

    def test_stats_flag_prints_and_resets(self, capsys):
        """--stats prints the engine's two options plus per-stage
        dispatch counters, zeroed by each sweep's new engine so runs
        don't bleed together."""
        from repro import fastpath
        from repro.omb.cli import main

        fastpath.STATS.dispatch_calls += 1  # stale pre-sweep noise
        assert main(["allreduce", "--system", "thetagpu", "--sizes", "4:1K",
                     "--iterations", "2", "--warmup", "1", "--stats"]) == 0
        out = capsys.readouterr().out
        options_line = next(line for line in out.splitlines()
                            if "Run options:" in line)
        shown = options_line.split(":", 1)[1].strip().split(", ")
        from repro.config import from_env
        from tests import frozen_reference
        env = from_env()   # the check-gates legs export one variable
        assert shown == [
            f"{name}={'on' if getattr(env, name) else 'off'}"
            for name in sorted(frozen_reference.OPTIONS)]
        assert "dispatch_calls" in out
        assert "route_xccl" in out
        # counters in the report come from this sweep only
        first = fastpath.STATS.snapshot()["dispatch_calls"]
        assert main(["allreduce", "--system", "thetagpu", "--sizes", "4:1K",
                     "--iterations", "2", "--warmup", "1", "--stats"]) == 0
        assert fastpath.STATS.snapshot()["dispatch_calls"] == first
        capsys.readouterr()

    @pytest.mark.parametrize("bench", ["alltoallv", "gather", "scatter"])
    def test_no_pure_ccl_variant_is_a_usage_error(self, bench, capsys,
                                                  monkeypatch):
        """The CCL APIs lack these collectives, so ``--stack ccl`` has
        nothing to run: a usage error naming the stacks that do, raised
        before an engine is built (it once crashed every rank with
        ``AttributeError`` from inside the run)."""
        from repro.omb import cli

        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built")
        monkeypatch.setattr(cli, "Engine", no_engine)
        with pytest.raises(SystemExit) as exc:
            cli.main([bench, "--stack", "ccl", "--sizes", "4:64"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{bench}: no pure-CCL variant" in err
        assert "hybrid / pure-xccl / mpi / openmpi / ucc" in err

    @staticmethod
    def _latency_64(capsys, *args):
        from repro.omb.cli import main
        assert main(["allreduce", "--sizes", "64:64", "--iterations", "2",
                     "--warmup", "1", *args]) == 0
        return capsys.readouterr().out.splitlines()[-1].split()[1]

    def test_hybrid_stack_routes_by_the_tuning_file(self, capsys,
                                                    monkeypatch, tmp_path):
        """``MPIX_TUNING_FILE`` reaches the hybrid stack: an all-xccl
        table reads the pure-xccl latency, an all-mpi one the MPI
        stack's."""
        from repro.core.tuning_table import TUNABLE_COLLECTIVES, TuningTable
        latency = {}
        for route in ("xccl", "mpi"):
            path = tmp_path / f"{route}.json"
            path.write_text(TuningTable("nccl", ("thetagpu", 8), {
                coll: [(-1, route)] for coll in TUNABLE_COLLECTIVES}).to_json())
            monkeypatch.setenv("MPIX_TUNING_FILE", str(path))
            latency[route] = self._latency_64(capsys)
        monkeypatch.delenv("MPIX_TUNING_FILE")
        assert latency["xccl"] == self._latency_64(capsys, "--stack",
                                                   "pure-xccl")
        assert latency["mpi"] == self._latency_64(capsys, "--stack", "mpi")
        assert latency["xccl"] != latency["mpi"]

    def test_backend_from_the_environment(self, capsys, monkeypatch):
        """``MPIX_BACKEND`` picks the CCL, and ``--backend`` wins."""
        from repro.omb.cli import main
        monkeypatch.setenv("MPIX_BACKEND", "msccl")
        for args, backend in (((), "msccl"), (("--backend", "nccl"), "nccl")):
            assert main(["allreduce", "--sizes", "64K:64K", "--iterations",
                         "1", "--warmup", "0", *args]) == 0
            assert f"Backend: {backend} " in capsys.readouterr().out

    def test_stats_off_by_default(self, capsys):
        from repro.omb.cli import main
        assert main(["allreduce", "--system", "thetagpu", "--sizes", "4:64",
                     "--iterations", "1", "--warmup", "0"]) == 0
        assert "Run options:" not in capsys.readouterr().out


class TestMultiPairBandwidth:
    CFG = OMBConfig(sizes=(1 << 20,), warmup=1, iterations=2)

    def test_intra_pairs_scale_linearly(self, thetagpu1):
        """Four pairs behind NVSwitch own private wires: aggregate
        equals four single-pair bandwidths."""
        from repro.omb.pt2pt import osu_mbw_mr
        agg = Engine(thetagpu1, nranks=8).run(
            lambda ctx: osu_mbw_mr(ctx, "nccl", self.CFG))[0]
        single = Engine(thetagpu1, nranks=2).run(
            lambda ctx: osu_bw(ctx, "nccl", self.CFG))[0]
        assert agg[1 << 20] == pytest.approx(4 * single[1 << 20], rel=0.05)

    def test_inter_pairs_share_the_nic(self, thetagpu2):
        """Four pairs across two nodes funnel through one NIC pair:
        aggregate is NIC-bound, far below 4x a single pair."""
        from repro.omb.pt2pt import osu_mbw_mr
        agg = Engine(thetagpu2, nranks=8, ranks_per_node=4).run(
            lambda ctx: osu_mbw_mr(ctx, "nccl", self.CFG))[0][1 << 20]
        single = Engine(thetagpu2, nranks=2, ranks_per_node=1).run(
            lambda ctx: osu_bw(ctx, "nccl", self.CFG))[0][1 << 20]
        assert agg < 1.5 * single
        assert agg == pytest.approx(single, rel=0.25)

    def test_odd_rank_count_rejected(self, thetagpu1, spmd):
        from repro.omb.pt2pt import osu_mbw_mr

        def body(ctx):
            try:
                osu_mbw_mr(ctx, "nccl", self.CFG)
            except ValueError:
                return "rejected"

        assert spmd(thetagpu1, body, nranks=3) == ["rejected"] * 3
