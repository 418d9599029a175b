"""The MPIxCCL runtime facade (run / MPIxContext)."""

import numpy as np
import pytest

from repro.core import DispatchMode, run
from repro.core.fallback import RouteDecision, Route, FallbackReason, RouteStats
from repro.errors import ConfigError
from repro.hw.memory import is_device_buffer
from repro.hw.systems import make_system
from repro.mpi import SUM


class TestRun:
    def test_by_system_name(self):
        out = run(lambda mpx: mpx.size, system="mri", nodes=2)
        assert out == [4] * 4

    def test_by_prebuilt_cluster(self):
        cluster = make_system("voyager", 1)
        assert run(lambda mpx: mpx.layer.backend_name,
                   system=cluster, nranks=2) == ["hccl", "hccl"]

    def test_mode_as_string(self):
        out = run(lambda mpx: mpx.COMM_WORLD.coll.mode,
                  system="thetagpu", nranks=2, mode="pure_mpi")
        assert out == [DispatchMode.PURE_MPI] * 2

    def test_extra_args_forwarded(self):
        def body(mpx, a, b=0):
            return a + b + mpx.rank

        assert run(body, system="thetagpu", nranks=2, a=10, b=5) == [15, 16]

    def test_invalid_system(self):
        with pytest.raises(ConfigError):
            run(lambda mpx: None, system="summit")


class TestContext:
    def test_device_array(self):
        def body(mpx):
            buf = mpx.device_array(16, dtype=np.float64, fill=2.5)
            return (is_device_buffer(buf), buf.dtype == np.float64,
                    float(buf.array.sum()))

        assert run(body, system="thetagpu", nranks=1)[0] == (True, True, 40.0)

    def test_attach_derived_communicator(self):
        def body(mpx):
            sub = mpx.COMM_WORLD.Split(color=mpx.rank % 2)
            mpx.attach(sub)
            s = mpx.device_array(1 << 18, fill=1.0)
            r = mpx.device_array(1 << 18)
            sub.Allreduce(s, r, SUM)
            return (r.array[0], sub.coll.stats.xccl_calls)

        out = run(body, system="thetagpu")
        assert all(v == (4.0, 1) for v in out)

    def test_route_stats_property(self):
        def body(mpx):
            s = mpx.device_array(1 << 20, fill=1.0)
            mpx.COMM_WORLD.Allreduce(s, mpx.device_array(1 << 20), SUM)
            return mpx.route_stats.xccl_calls

        assert run(body, system="thetagpu", nranks=2) == [1, 1]


class TestRouteStats:
    def test_summary_format(self):
        stats = RouteStats()
        stats.record(RouteDecision(Route.XCCL), "allreduce")
        stats.record(RouteDecision(Route.MPI, FallbackReason.DATATYPE),
                     "allreduce")
        text = stats.summary()
        assert "xccl=1" in text
        assert "mpi=1" in text
        assert "datatype" in text

    def test_tuning_not_counted_as_fallback(self):
        stats = RouteStats()
        stats.record(RouteDecision(Route.MPI, FallbackReason.TUNING), "bcast")
        assert stats.total_fallbacks == 0
        assert stats.mpi_calls == 1

    def test_is_fallback_classification(self):
        assert RouteDecision(Route.MPI, FallbackReason.DATATYPE).is_fallback
        assert not RouteDecision(Route.MPI, FallbackReason.MODE).is_fallback
        assert not RouteDecision(Route.XCCL).is_fallback
