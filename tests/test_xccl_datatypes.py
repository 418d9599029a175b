"""CCL datatype tables (each backend's capability descriptor) and the
registry."""

import pytest

from repro.errors import CCLBackendUnavailable, CCLUnsupportedDatatype
from repro.hw.vendors import Vendor
from repro.mpi import datatypes as mdt
from repro.xccl.caps import CapabilityDescriptor
from repro.xccl.datatypes import ccl_dtype_name, require_support
from repro.xccl.registry import (
    available_backends,
    backend_for_vendor,
    get_backend,
    register_backend,
)
from repro.xccl.backend import CCLBackend


class TestDtypeTables:
    @pytest.mark.parametrize("dt,name", [
        (mdt.FLOAT, "xcclFloat32"),
        (mdt.DOUBLE, "xcclFloat64"),
        (mdt.BFLOAT16, "xcclBfloat16"),
        (mdt.INT64, "xcclInt64"),
        (mdt.BYTE, "xcclUint8"),
    ])
    def test_names(self, dt, name):
        assert ccl_dtype_name(dt) == name

    @pytest.mark.parametrize("dt", [mdt.DOUBLE_COMPLEX, mdt.COMPLEX,
                                    mdt.BOOL, mdt.INT16])
    def test_no_ccl_equivalent(self, dt):
        assert ccl_dtype_name(dt) is None

    def test_nccl_family_coverage(self):
        for be in ("nccl", "rccl", "msccl"):
            caps = get_backend(be).capabilities
            assert caps.allows_datatype(mdt.FLOAT)
            assert caps.allows_datatype(mdt.FLOAT16)
            assert caps.allows_datatype(mdt.INT64)
            assert not caps.allows_datatype(mdt.DOUBLE_COMPLEX)

    def test_hccl_float_only(self):
        caps = get_backend("hccl").capabilities
        assert caps.allows_datatype(mdt.FLOAT)
        for dt in (mdt.DOUBLE, mdt.INT32, mdt.FLOAT16, mdt.BFLOAT16):
            assert not caps.allows_datatype(dt)

    def test_require_support_raises(self):
        nccl = get_backend("nccl").capabilities
        with pytest.raises(CCLUnsupportedDatatype,
                           match="nccl has no datatype for MPI_DOUBLE_COMPLEX"):
            require_support(nccl, mdt.DOUBLE_COMPLEX)
        assert require_support(nccl, mdt.FLOAT) == "xcclFloat32"

    def test_unknown_backend_unsupported(self):
        # a name no backend registered answers nothing: there is no
        # capability lookup by name, only the backend's descriptor
        with pytest.raises(CCLBackendUnavailable):
            get_backend("onecll")


class TestRegistry:
    def test_builtin_backends(self):
        names = available_backends()
        for expected in ("nccl", "rccl", "hccl", "msccl", "nccl-2.11",
                         "nccl-2.12"):
            assert expected in names

    def test_instances_cached(self):
        assert get_backend("nccl") is get_backend("nccl")

    def test_unknown_backend(self):
        with pytest.raises(CCLBackendUnavailable):
            get_backend("onecll")

    def test_vendor_resolution(self):
        assert backend_for_vendor(Vendor.NVIDIA).name == "nccl"
        assert backend_for_vendor(Vendor.AMD).name == "rccl"
        assert backend_for_vendor(Vendor.HABANA).name == "hccl"

    def test_preferred_backend(self):
        assert backend_for_vendor(Vendor.NVIDIA, "msccl").name == "msccl"

    def test_preferred_incompatible(self):
        with pytest.raises(CCLBackendUnavailable):
            backend_for_vendor(Vendor.HABANA, "msccl")

    def test_plugin_registration(self):
        class OneCCL(CCLBackend):
            name = "onecclx"
            vendors = (Vendor.NVIDIA,)
            params = get_backend("nccl").params
            capabilities = CapabilityDescriptor(
                "onecclx", frozenset({"xcclFloat32"}))

        register_backend("onecclx", OneCCL)
        try:
            plugin = get_backend("onecclx")
            assert plugin.name == "onecclx"
            assert plugin.capabilities.allows_datatype(mdt.FLOAT)
            assert not plugin.capabilities.allows_datatype(mdt.DOUBLE)
        finally:
            # keep the global registry clean for other tests
            from repro.xccl import registry as reg
            reg._REGISTRY.pop("onecclx", None)
            reg._INSTANCES.pop("onecclx", None)
