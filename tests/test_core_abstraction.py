"""The xCCL abstraction layer: caching, checks, mapped collectives."""

import numpy as np
import pytest

from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.dispatch import CollectiveCall, execute_ccl
from repro.mpi import DOUBLE_COMPLEX, FLOAT, SUM, Communicator
from repro.mpi.ops import user_op
from repro.xccl.api import xcclCommDestroy


class TestBackendResolution:
    @pytest.mark.parametrize("system,expected", [
        ("thetagpu", "nccl"), ("mri", "rccl"), ("voyager", "hccl"),
    ])
    def test_auto_by_vendor(self, spmd, system, expected):
        from repro.hw.systems import make_system

        def body(ctx):
            return XCCLAbstractionLayer(ctx).backend_name

        assert spmd(make_system(system, 1), body, nranks=1)[0] == expected

    def test_explicit_backend(self, thetagpu1, spmd):
        def body(ctx):
            return XCCLAbstractionLayer(ctx, "msccl").backend_name

        assert spmd(thetagpu1, body, nranks=1)[0] == "msccl"


class TestChecks:
    def test_identify_device_buffer(self, thetagpu1, spmd):
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            dev = ctx.device.zeros(4)
            host = np.zeros(4)
            return (layer.identify_device_buffer(dev),
                    layer.identify_device_buffer(dev, host),
                    layer.identify_device_buffer(dev, None))

        assert spmd(thetagpu1, body, nranks=1)[0] == (True, False, True)

    def test_datatype_and_op_support(self, thetagpu1, spmd):
        def body(ctx):
            caps = XCCLAbstractionLayer(ctx).backend.capabilities
            return (caps.allows_datatype(FLOAT),
                    caps.allows_datatype(DOUBLE_COMPLEX),
                    caps.allows_op(SUM),
                    caps.allows_op(user_op(lambda a, b: a)))

        assert spmd(thetagpu1, body, nranks=1)[0] == (True, False, True, False)


class TestCommCache:
    def test_one_ccl_comm_per_mpi_comm(self, thetagpu1, spmd):
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            comm = Communicator.world(ctx)
            a = layer.ccl_comm(comm)
            b = layer.ccl_comm(comm)
            dup = comm.Dup()
            c = layer.ccl_comm(dup)
            return (a is b, c is a, c.uid != a.uid)

        assert spmd(thetagpu1, body, nranks=2) == [(True, False, True)] * 2

    def test_uids_agree_across_ranks(self, thetagpu1, spmd):
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            comm = Communicator.world(ctx)
            return layer.ccl_comm(comm).uid

        uids = spmd(thetagpu1, body, nranks=4)
        assert len(set(uids)) == 1

    def test_destroyed_ccl_comm_is_rebuilt(self, thetagpu1, spmd):
        """A CCL communicator destroyed under the ledger is bootstrapped
        again — a fresh uid rendezvous, not the first one's."""
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            comm = Communicator.world(ctx)
            a = layer.ccl_comm(comm)
            xcclCommDestroy(a)
            b = layer.ccl_comm(comm)
            return (a.aborted, b is not a and not b.aborted,
                    comm.routing_cache["nccl"] is b, b.uid != a.uid)

        assert spmd(thetagpu1, body, nranks=4) == [(True,) * 4] * 4


class TestMappedCollectives:
    def test_layer_allreduce(self, thetagpu1, spmd):
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            comm = Communicator.world(ctx)
            s = ctx.device.zeros(64)
            s.fill(2.0)
            r = ctx.device.zeros(64)
            execute_ccl(layer, CollectiveCall(
                "allreduce", comm, s, r, 64, dt=FLOAT, op=SUM))
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [8.0] * 4

    def test_layer_alltoallv_matches_mpi(self, thetagpu1, spmd):
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            comm = Communicator.world(ctx)
            p = comm.size
            counts = [2] * p
            displs = [2 * i for i in range(p)]
            s = ctx.device.zeros(2 * p)
            s.array[:] = np.repeat(ctx.rank * 10.0 + np.arange(p), 2)
            r_ccl = ctx.device.zeros(2 * p)
            execute_ccl(layer, CollectiveCall(
                "alltoallv", comm, s, r_ccl, sendcounts=counts,
                sdispls=displs, recvcounts=counts, rdispls=displs, dt=FLOAT))
            r_mpi = ctx.device.zeros(2 * p)
            comm.Alltoallv(s, counts, r_mpi, counts)
            return np.array_equal(r_ccl.array, r_mpi.array)

        assert all(spmd(thetagpu1, body, nranks=4))

    def test_layer_gatherv(self, thetagpu1, spmd):
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            comm = Communicator.world(ctx)
            p = comm.size
            counts = [r + 1 for r in range(p)]
            displs = list(np.concatenate([[0], np.cumsum(counts)[:-1]]))
            s = ctx.device.zeros(counts[ctx.rank])
            s.fill(float(ctx.rank))
            r = ctx.device.zeros(sum(counts))
            execute_ccl(layer, CollectiveCall(
                "gatherv", comm, s, r, recvcounts=counts, rdispls=displs,
                dt=FLOAT, root=1))
            if ctx.rank != 1:
                return True
            expect = np.concatenate(
                [np.full(c, float(i)) for i, c in enumerate(counts)])
            return np.array_equal(r.array, expect)

        assert all(spmd(thetagpu1, body, nranks=4))

    def test_layer_scatterv(self, thetagpu1, spmd):
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            comm = Communicator.world(ctx)
            p = comm.size
            counts = [3] * p
            displs = [3 * i for i in range(p)]
            s = ctx.device.zeros(3 * p)
            if ctx.rank == 0:
                s.array[:] = np.repeat(np.arange(p, dtype=float), 3)
            r = ctx.device.zeros(3)
            execute_ccl(layer, CollectiveCall(
                "scatterv", comm, s, r, sendcounts=counts, sdispls=displs,
                dt=FLOAT, root=0))
            return r.array[0] == float(ctx.rank)

        assert all(spmd(thetagpu1, body, nranks=3))

    def test_layer_allgatherv(self, thetagpu1, spmd):
        def body(ctx):
            layer = XCCLAbstractionLayer(ctx)
            comm = Communicator.world(ctx)
            p = comm.size
            counts = [2 * (r + 1) for r in range(p)]
            displs = list(np.concatenate([[0], np.cumsum(counts)[:-1]]))
            s = ctx.device.zeros(counts[ctx.rank])
            s.fill(float(ctx.rank))
            r = ctx.device.zeros(sum(counts))
            execute_ccl(layer, CollectiveCall(
                "allgatherv", comm, s, r, recvcounts=counts, rdispls=displs,
                dt=FLOAT))
            expect = np.concatenate(
                [np.full(c, float(i)) for i, c in enumerate(counts)])
            return np.array_equal(r.array, expect)

        assert all(spmd(thetagpu1, body, nranks=3))
