"""The oneCCL/Intel extension (the paper's §6 future work).

Proves the plug-in claim: a new vendor, link technology, system, and
CCL drop in through the registries, and every layer — capability
checks, tuning, the hybrid dispatcher, the DL trainer — picks them up
without modification.
"""

import numpy as np
import pytest

from repro.core import run
from repro.dl import horovod_preset, train
from repro.hw.systems import make_system
from repro.hw.vendors import Vendor, default_ccl_for
from repro.mpi import DOUBLE_COMPLEX, FLOAT, SUM
from repro.omb.collective import osu_allreduce
from repro.omb.harness import OMBConfig
from repro.omb.stacks import make_stack
from repro.sim.engine import Engine
from repro.xccl.registry import backend_for_vendor, get_backend
from tests.dl_sgd import tiny_mlp


class TestVendorPlumbing:
    def test_vendor_enum(self):
        assert Vendor.INTEL.native_ccl == "oneccl"
        assert default_ccl_for(Vendor.INTEL) == "oneccl"

    def test_backend_registered(self):
        be = get_backend("oneccl")
        assert be.name == "oneccl"
        assert Vendor.INTEL in be.vendors
        assert backend_for_vendor(Vendor.INTEL) is be

    def test_datatype_table(self):
        caps = get_backend("oneccl").capabilities
        assert caps.allows_datatype(FLOAT)
        assert not caps.allows_datatype(DOUBLE_COMPLEX)

    def test_aurora_system(self):
        cluster = make_system("aurora", 2)
        assert cluster.device_count == 12
        assert cluster.devices[0].vendor is Vendor.INTEL
        assert cluster.devices[0].model == "Max1550"


class TestEndToEnd:
    def test_hybrid_runtime_on_aurora(self):
        def body(mpx):
            comm = mpx.COMM_WORLD
            small = mpx.device_array(16, fill=1.0)
            comm.Allreduce(small, mpx.device_array(16), SUM)
            big = mpx.device_array(1 << 20, fill=1.0)
            out = mpx.device_array(1 << 20)
            comm.Allreduce(big, out, SUM)
            stats = mpx.route_stats
            return (mpx.layer.backend_name, float(out.array[0]),
                    stats.mpi_calls, stats.xccl_calls)

        out = run(body, system="aurora", nodes=1)
        backend, value, mpi_calls, xccl_calls = out[0]
        assert backend == "oneccl"
        assert value == 6.0
        assert mpi_calls >= 1 and xccl_calls >= 1  # hybrid actually split

    def test_datatype_fallback_on_aurora(self):
        def body(mpx):
            z = mpx.device_array(1 << 16, dtype=np.complex128, fill=1j)
            out = mpx.device_array(1 << 16, dtype=np.complex128)
            mpx.COMM_WORLD.Allreduce(z, out, SUM)
            return (out.array[0], mpx.route_stats.total_fallbacks)

        value, fallbacks = run(body, system="aurora", nranks=4)[0]
        assert value == 4j
        assert fallbacks == 1

    def test_omb_runs_on_aurora(self):
        cluster = make_system("aurora", 1)
        cfg = OMBConfig(sizes=(64, 65536), warmup=1, iterations=2)

        def body(ctx):
            return osu_allreduce(ctx, make_stack(ctx, "pure-xccl"), cfg)

        stats = Engine(cluster, nranks=6).run(body)[0]
        # oneCCL launch floor shows in the small-message latency
        assert stats[64].avg_us >= get_backend("oneccl").params.launch_us

    def test_dl_training_on_aurora(self):
        cluster = make_system("aurora", 1)

        def body(ctx):
            stack = make_stack(ctx, "hybrid")
            return train(ctx, stack, tiny_mlp(), 32, steps=2,
                         config=horovod_preset("hybrid", "oneccl"))

        r = Engine(cluster, nranks=6).run(body)[0]
        assert r.img_per_sec > 0

    def test_pure_oneccl_horovod_preset(self):
        cluster = make_system("aurora", 1)

        def body(ctx):
            stack = make_stack(ctx, "ccl")
            return train(ctx, stack, tiny_mlp(), 32, steps=2,
                         config=horovod_preset("ccl", "oneccl"))

        assert Engine(cluster, nranks=4).run(body)[0].img_per_sec > 0

    def test_tuning_crossover_exists(self):
        from repro.core.tuning_table import tune_offline
        from repro.mpi.config import mvapich_gpu
        from repro.perfmodel import ccl_params
        from repro.perfmodel.shape import shape_of
        from tests.test_core_tuning_table import first_xccl

        shape = shape_of(make_system("aurora", 2), range(12))
        table = tune_offline(shape, ccl_params("oneccl"), mvapich_gpu())
        x = first_xccl(table, "allreduce")
        assert x is not None  # oneCCL wins somewhere

    def test_msccl_cannot_drive_intel(self):
        from repro.errors import CCLBackendUnavailable
        with pytest.raises(CCLBackendUnavailable):
            backend_for_vendor(Vendor.INTEL, "msccl")
