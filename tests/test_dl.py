"""DL substrate: models, compute model, Horovod fusion, trainer."""

import pytest

from repro.dl.compute import compute_model_for
from repro.dl.horovod import HorovodConfig, build_buckets
from repro.dl.models import resnet50, tiny_mlp, vgg16
from repro.dl.presets import horovod_preset
from repro.dl.trainer import project_throughput, train
from repro.errors import ConfigError
from repro.hw.systems import make_system
from repro.omb.stacks import make_stack
from repro.perfmodel.shape import shape_of
from repro.sim.engine import Engine

MB = 1 << 20


class TestModels:
    def test_resnet50_exact_params(self):
        assert resnet50().total_params == 25_557_032

    def test_vgg16_exact_params(self):
        assert vgg16().total_params == 138_357_544

    def test_resnet50_has_small_tensor_tail(self):
        # the BN gradients the hybrid small-message path targets
        small = [l for l in resnet50().layers if l.grad_bytes <= 16384]
        assert len(small) > 100

    def test_flops_forward_backward_ratio(self):
        m = resnet50()
        assert m.flops_per_image == pytest.approx(3 * m.fwd_flops_per_image)

    def test_tiny_mlp_structure(self):
        m = tiny_mlp(hidden=32, depth=2)
        assert m.total_params > 0
        assert m.layers[-1].name == "out.bias"


class TestComputeModel:
    def test_efficiency_monotone_in_batch(self):
        cm = compute_model_for(make_system("thetagpu", 1).devices[0])
        assert cm.efficiency(16) < cm.efficiency(64) < cm.efficiency(128)

    def test_efficiency_clamps(self):
        cm = compute_model_for(make_system("thetagpu", 1).devices[0])
        assert cm.efficiency(8) == cm.efficiency(16)
        assert cm.efficiency(512) == cm.efficiency(128)

    def test_step_time_scales_with_model(self):
        cm = compute_model_for(make_system("thetagpu", 1).devices[0])
        assert cm.step_time_us(vgg16(), 32) > cm.step_time_us(resnet50(), 32)

    def test_invalid_batch(self):
        cm = compute_model_for(make_system("thetagpu", 1).devices[0])
        with pytest.raises(ConfigError):
            cm.efficiency(0)

    def test_per_vendor_models(self):
        a100 = compute_model_for(make_system("thetagpu", 1).devices[0])
        mi100 = compute_model_for(make_system("mri", 1).devices[0])
        gaudi = compute_model_for(make_system("voyager", 1).devices[0])
        assert a100.peak_img_per_sec > gaudi.peak_img_per_sec > \
            mi100.peak_img_per_sec

    def test_backward_is_two_thirds(self):
        cm = compute_model_for(make_system("thetagpu", 1).devices[0])
        assert cm.backward_time_us(resnet50(), 32) == pytest.approx(
            cm.step_time_us(resnet50(), 32) * 2 / 3)


class TestFusionBuckets:
    def test_buckets_cover_all_layers(self):
        m = resnet50()
        buckets = build_buckets(m, 64 * MB)
        assert sum(len(b.layers) for b in buckets) == len(m.layers)
        assert sum(b.nbytes for b in buckets) == m.total_grad_bytes

    def test_bucket_size_respected(self):
        buckets = build_buckets(resnet50(), 1 * MB)
        for b in buckets:
            assert b.nbytes <= 1 * MB or len(b.layers) == 1

    def test_reverse_order_packing(self):
        m = tiny_mlp()
        buckets = build_buckets(m, 1 << 30)
        assert buckets[0].layers[0].name == m.layers[-1].name

    def test_oversized_single_tensor_gets_own_bucket(self):
        m = vgg16()  # fc1 gradient is ~411 MB
        buckets = build_buckets(m, 64 * MB)
        big = [b for b in buckets if b.nbytes > 64 * MB]
        assert all(len(b.layers) == 1 for b in big)
        assert big  # exists

    def test_smaller_threshold_more_buckets(self):
        m = resnet50()
        assert len(build_buckets(m, MB // 2)) > len(build_buckets(m, 64 * MB))


class TestTrainer:
    def _train(self, cluster, stack, backend, batch=32, steps=2,
               nranks=None, config=None):
        def body(ctx):
            s = make_stack(ctx, stack, backend)
            return train(ctx, s, tiny_mlp(), batch, steps=steps,
                         config=config or HorovodConfig())

        return Engine(cluster, nranks=nranks).run(body)[0]

    def test_throughput_positive(self, thetagpu1):
        r = self._train(thetagpu1, "hybrid", "nccl")
        assert r.img_per_sec > 0
        assert r.world_size == 8

    def test_all_stacks_run(self, thetagpu1):
        for stack in ("hybrid", "pure-xccl", "mpi", "openmpi", "ucc", "ccl"):
            r = self._train(thetagpu1, stack, "nccl", nranks=4)
            assert r.img_per_sec > 0, stack

    def test_bigger_batch_more_throughput(self, thetagpu1):
        r32 = self._train(thetagpu1, "hybrid", "nccl", batch=32, nranks=4)
        r128 = self._train(thetagpu1, "hybrid", "nccl", batch=128, nranks=4)
        assert r128.img_per_sec > r32.img_per_sec

    def test_invalid_args(self, thetagpu1):
        from repro.errors import RankFailedError
        with pytest.raises(RankFailedError):
            self._train(thetagpu1, "hybrid", "nccl", batch=0, nranks=2)

    def test_overlap_reduces_step_time(self, thetagpu1):
        no_overlap = self._train(
            thetagpu1, "hybrid", "nccl", nranks=4,
            config=HorovodConfig(overlap=0.0))
        full_overlap = self._train(
            thetagpu1, "hybrid", "nccl", nranks=4,
            config=HorovodConfig(overlap=0.95))
        assert full_overlap.step_time_us < no_overlap.step_time_us

    def test_penalty_slows_comm(self, thetagpu1):
        plain = self._train(thetagpu1, "openmpi", "nccl", nranks=4,
                            config=HorovodConfig(
                                overlap=0.0, large_message_penalty=1.0,
                                penalty_threshold_bytes=0))
        penalized = self._train(thetagpu1, "openmpi", "nccl", nranks=4,
                                config=HorovodConfig(
                                    overlap=0.0, large_message_penalty=5.0,
                                    penalty_threshold_bytes=0))
        assert penalized.comm_time_us > plain.comm_time_us

    def test_penalty_does_not_compound(self, monkeypatch):
        """Each bucket's cycle lines the ranks up before its allreduce,
        so the large-message penalty scales that allreduce alone, not
        the wait for ranks it already slowed: on two nodes, where
        ranks leave an MPI-route allreduce at different times, the
        per-step communication is flat and every rank sees the same
        throughput."""
        from repro.dl.horovod import DistributedOptimizer
        per_step = {}
        reduce = DistributedOptimizer.reduce_gradients

        def recording(self):
            comm = reduce(self)
            per_step.setdefault(self.ctx.rank, []).append(comm)
            return comm

        monkeypatch.setattr(DistributedOptimizer, "reduce_gradients",
                            recording)

        def body(ctx):
            s = make_stack(ctx, "openmpi", "nccl")
            return train(ctx, s, resnet50(), 128, steps=3,
                         config=horovod_preset("openmpi", "nccl",
                                               multi_node=True))

        cluster = make_system("thetagpu", 2, payloads=False)
        out = Engine(cluster, nranks=8, ranks_per_node=4).run(body)
        for rank, comms in per_step.items():
            # flat: what varies is the first cycle's wait for the last
            # rank out of the previous step (8 % here); a compounding
            # penalty grew it 5x and then 45x
            assert max(comms) <= 1.1 * min(comms), (rank, comms)
        for r in out:
            assert r.img_per_sec == pytest.approx(out[0].img_per_sec,
                                                  rel=0.05)


class TestProjection:
    def test_matches_engine_roughly(self, thetagpu1):
        """Projection and engine paths must agree at engine scale."""
        shape = shape_of(thetagpu1, range(8))
        proj = project_throughput(shape, "hybrid", "nccl",
                                  model=resnet50(), batch_per_device=128)

        def body(ctx):
            s = make_stack(ctx, "hybrid", "nccl")
            return train(ctx, s, resnet50(), 128, steps=2,
                         config=horovod_preset("hybrid", "nccl"))

        eng = Engine(thetagpu1, nranks=8).run(body)[0]
        assert proj.img_per_sec == pytest.approx(eng.img_per_sec, rel=0.2)

    def test_scales_beyond_engine(self):
        cluster = make_system("thetagpu", 16)
        shape = shape_of(cluster, range(128))
        r = project_throughput(shape, "hybrid", "nccl", batch_per_device=128)
        assert r.world_size == 128
        assert r.img_per_sec > 50000


class TestPresets:
    def test_known_stacks(self):
        for stack in ("hybrid", "pure-xccl", "mpi", "openmpi", "ucc"):
            assert horovod_preset(stack, "nccl").fusion_threshold_bytes > 0

    def test_ccl_presets_per_backend(self):
        for be in ("nccl", "msccl", "rccl", "hccl"):
            assert horovod_preset("ccl", be) is not None

    def test_unknown_stack(self):
        with pytest.raises(ConfigError):
            horovod_preset("gloo", "nccl")

    def test_unknown_ccl_backend(self):
        with pytest.raises(ConfigError):
            horovod_preset("ccl", "gloo")

    def test_hccl_multi_node_regime(self):
        single = horovod_preset("ccl", "hccl", multi_node=False)
        multi = horovod_preset("ccl", "hccl", multi_node=True)
        assert multi.large_message_penalty > single.large_message_penalty
