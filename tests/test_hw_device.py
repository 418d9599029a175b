"""Accelerator and HostCPU behaviour."""

import pytest

from repro.hw.device import HostCPU
from repro.hw.systems import mri, thetagpu, voyager
from repro.hw.vendors import COMPATIBLE_CCLS, Vendor, default_ccl_for


class TestHostCPU:
    def test_total_cores(self):
        cpu = HostCPU("x", sockets=2, cores_per_socket=64,
                      memory_bytes=1 << 40)
        assert cpu.total_cores == 128


class TestAccelerator:
    def test_unique_global_ids(self):
        c = thetagpu(2)
        ids = [d.global_id for d in c.devices]
        assert len(set(ids)) == len(ids)

    def test_local_indices(self):
        node = thetagpu(1).nodes[0]
        assert [d.local_index for d in node.devices] == list(range(8))

    def test_kernel_time_memory_bound(self):
        dev = thetagpu(1).devices[0]
        t_small = dev.kernel_time_us(1024)
        t_big = dev.kernel_time_us(1 << 30)
        assert t_big > t_small > dev.kernel_launch_us

    def test_kernel_time_compute_bound(self):
        dev = thetagpu(1).devices[0]
        t = dev.kernel_time_us(0, flops=dev.fp32_tflops * 1e12)  # 1 second
        assert t == pytest.approx(1e6 + dev.kernel_launch_us)

    @pytest.mark.parametrize("factory,vendor,model", [
        (thetagpu, Vendor.NVIDIA, "A100"),
        (mri, Vendor.AMD, "MI100"),
        (voyager, Vendor.HABANA, "Gaudi"),
    ])
    def test_system_device_identity(self, factory, vendor, model):
        dev = factory(1).devices[0]
        assert dev.vendor is vendor
        assert dev.model == model


class TestVendor:
    def test_parse(self):
        assert Vendor.parse("NVIDIA") is Vendor.NVIDIA
        assert Vendor.parse(" amd ") is Vendor.AMD

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            Vendor.parse("graphcore")

    def test_native_ccl(self):
        assert Vendor.NVIDIA.native_ccl == "nccl"
        assert Vendor.AMD.native_ccl == "rccl"
        assert Vendor.HABANA.native_ccl == "hccl"

    def test_device_label(self):
        assert Vendor.HABANA.device_label == "HPU"
        assert Vendor.NVIDIA.device_label == "GPU"

    def test_runtime_stack(self):
        assert Vendor.NVIDIA.runtime_stack == "cuda"
        assert Vendor.AMD.runtime_stack == "rocm"
        assert Vendor.HABANA.runtime_stack == "synapseai"

    def test_msccl_only_on_nvidia(self):
        assert "msccl" in COMPATIBLE_CCLS[Vendor.NVIDIA]
        assert "msccl" not in COMPATIBLE_CCLS[Vendor.AMD]

    def test_default_ccl(self):
        assert default_ccl_for(Vendor.NVIDIA) == "nccl"
        assert default_ccl_for(Vendor.HABANA) == "hccl"
