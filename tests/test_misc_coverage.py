"""Coverage for the smaller surfaces: errors, requests, configs,
new OMB benches, compression knob."""

import pytest

from repro import errors
from repro.dl import HorovodConfig, train
from repro.dl.models import tiny_mlp
from repro.hw.cluster import PathScope
from repro.hw.systems import make_system
from repro.mpi import Request, Status
from repro.mpi.config import host_staged, mvapich_gpu, openmpi_ucx
from repro.mpi.request import waitall, waitany
from repro.omb.collective import osu_barrier, osu_gather, osu_scatter
from repro.omb.harness import OMBConfig
from repro.omb.stacks import make_stack
from repro.sim.engine import Engine


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name

    def test_ccl_errors_carry_result_codes(self):
        assert errors.CCLUnsupportedDatatype.result == "xcclUnsupportedDatatype"
        assert errors.CCLInvalidUsage.result == "xcclInvalidUsage"

    def test_rank_failed_formats(self):
        err = errors.RankFailedError({1: ValueError("x"), 0: KeyError("y")})
        assert "0" in str(err) and "1" in str(err)
        assert err.failures[1].args == ("x",)


class TestRequestHelpers:
    def test_completed_request(self):
        status = Status(source=1, tag=2, count=3, nbytes=12)
        req = Request.completed(status)
        assert req.done
        assert req.wait() is status
        assert req.test() == (True, status)

    def test_waitall_order(self):
        statuses = [Status(source=i) for i in range(3)]
        reqs = [Request.completed(s) for s in statuses]
        assert waitall(reqs) == statuses

    def test_waitany_prefers_ready(self):
        ready = Request.completed(Status(source=7))
        calls = []

        def never(blocking):
            calls.append(blocking)
            return None if not blocking else Status(source=0)

        pending = Request(never)
        idx, status = waitany([pending, ready])
        assert idx == 1
        assert status.source == 7

    def test_waitany_empty(self):
        from repro.errors import MPIError
        with pytest.raises(MPIError):
            waitany([])


class TestMPIConfig:
    def test_effective_beta_scopes(self):
        cfg = mvapich_gpu()
        assert cfg.effective_beta(PathScope.LOCAL, 1000.0) == 1000.0
        assert cfg.effective_beta(PathScope.INTER, 21000.0) == \
            pytest.approx(21000.0 * cfg.inter_bw_eff)
        # intra channel cap binds on fat links
        assert cfg.effective_beta(PathScope.INTRA, 146000.0) == \
            cfg.intra_channel_cap_bpus

    def test_personality_names(self):
        assert mvapich_gpu().name == "mpix"
        assert openmpi_ucx().name == "openmpi+ucx"
        assert host_staged().gpu_direct is False

    def test_with_copies(self):
        cfg = mvapich_gpu().with_(send_overhead_us=9.0)
        assert cfg.send_overhead_us == 9.0
        assert mvapich_gpu().send_overhead_us != 9.0

    def test_eager_threshold_by_scope(self):
        cfg = mvapich_gpu().with_(eager_threshold_intra=1,
                                  eager_threshold_inter=2)
        assert cfg.eager_threshold(PathScope.INTRA) == 1
        assert cfg.eager_threshold(PathScope.INTER) == 2


class TestNewOMBBenches:
    CFG = OMBConfig(sizes=(64, 4096), warmup=1, iterations=2)

    def test_gather_sweep(self, thetagpu1, spmd):
        def body(ctx):
            return osu_gather(ctx, make_stack(ctx, "hybrid"), self.CFG)

        stats = spmd(thetagpu1, body, nranks=4)[0]
        assert all(s.avg_us > 0 for s in stats.values())

    def test_scatter_sweep(self, thetagpu1, spmd):
        def body(ctx):
            return osu_scatter(ctx, make_stack(ctx, "mpi"), self.CFG)

        stats = spmd(thetagpu1, body, nranks=4)[0]
        assert set(stats) == {64, 4096}

    def test_barrier_single_point(self, thetagpu1, spmd):
        def body(ctx):
            return osu_barrier(ctx, make_stack(ctx, "hybrid"), self.CFG)

        stats = spmd(thetagpu1, body, nranks=8)[0]
        assert list(stats) == [0]
        assert stats[0].avg_us > 0

    def test_barrier_on_pure_ccl(self, thetagpu1, spmd):
        def body(ctx):
            return osu_barrier(ctx, make_stack(ctx, "ccl"), self.CFG)

        stats = spmd(thetagpu1, body, nranks=4)[0]
        assert stats[0].avg_us > 20.0  # CCL launch floor


class TestCompressionKnob:
    def _run(self, cluster, ratio):
        def body(ctx):
            stack = make_stack(ctx, "hybrid")
            cfg = HorovodConfig(overlap=0.0, compression_ratio=ratio)
            return train(ctx, stack, tiny_mlp(), 32, steps=2, config=cfg)

        return Engine(cluster, nranks=4).run(body)[0]

    def test_compression_charges_engine_time(self, thetagpu1):
        off = self._run(thetagpu1, 1.0)
        on = self._run(thetagpu1, 8.0)
        # tiny model on a fat link: engine cost dominates, comm grows
        assert on.comm_time_us != off.comm_time_us

    def test_compression_shrinks_wire_on_slow_links(self):
        mri = make_system("mri", 2)
        from repro.dl.models import resnet50

        def body(ctx, ratio):
            stack = make_stack(ctx, "hybrid")
            cfg = HorovodConfig(overlap=0.0, compression_ratio=ratio)
            return train(ctx, stack, resnet50(), 32, steps=1, config=cfg)

        off = Engine(mri, nranks=4).run(body, 1.0)[0]
        on = Engine(mri, nranks=4).run(body, 4.0)[0]
        assert on.comm_time_us < off.comm_time_us


class TestEngineMisc:
    def test_run_spmd_forwards_args(self, thetagpu1):
        from repro.sim.engine import run_spmd

        def body(ctx, a, b=1):
            return ctx.rank + a + b

        assert run_spmd(thetagpu1, body, 2, None, False, 5, b=2) == \
            [7, 8]

    def test_next_sequence_unique(self, thetagpu1):
        engine = Engine(thetagpu1, nranks=1)
        seqs = {engine.next_sequence() for _ in range(100)}
        assert len(seqs) == 100
