"""Baselines: Open MPI + UCX, UCC, pure-CCL harness."""

import numpy as np

from repro.baselines.openmpi import openmpi_communicator
from repro.baselines.pure_ccl import PureCCLHarness
from repro.baselines.ucc import UCC_TABLE, UCCBackend, ucc_communicator
from repro.mpi import SUM
from repro.xccl.registry import get_backend


class TestOpenMPI:
    def test_personality(self, thetagpu1, spmd):
        def body(ctx):
            return openmpi_communicator(ctx).config.name

        assert spmd(thetagpu1, body, nranks=2)[0] == "openmpi+ucx"

    def test_collectives_work(self, thetagpu1, spmd):
        def body(ctx):
            comm = openmpi_communicator(ctx)
            s = ctx.device.zeros(64)
            s.fill(1.0)
            r = ctx.device.zeros(64)
            comm.Allreduce(s, r, SUM)
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [4.0] * 4

    def test_slower_small_messages_than_mvapich(self, thetagpu1, spmd):
        from repro.mpi import Communicator

        def body(ctx):
            s = ctx.device.zeros(16)
            r = ctx.device.zeros(16)
            comm_a = Communicator.world(ctx)
            comm_a.Barrier()
            t0 = ctx.now
            comm_a.Allreduce(s, r, SUM)
            t_mvapich = ctx.now - t0
            comm_b = openmpi_communicator(ctx)
            comm_b.Barrier()
            t1 = ctx.now
            comm_b.Allreduce(s, r, SUM)
            return t_mvapich, ctx.now - t1

        a, b = spmd(thetagpu1, body, nranks=4)[0]
        assert b > a


class TestUCC:
    def test_static_table_routes(self):
        assert UCC_TABLE.choose("allreduce", 64) == "mpi"
        assert UCC_TABLE.choose("allreduce", 65536) == "xccl"
        assert UCC_TABLE.choose("alltoall", 64) == "xccl"   # always NCCL tl
        assert UCC_TABLE.choose("gather", 1 << 20) == "mpi"

    def test_backend_heavier_than_nccl(self):
        nccl = get_backend("nccl").params
        assert UCCBackend.params.launch_us > nccl.launch_us
        assert UCCBackend.params.bw_eff_intra < nccl.bw_eff_intra

    def test_correctness(self, thetagpu1, spmd):
        def body(ctx):
            comm = ucc_communicator(ctx)
            s = ctx.device.zeros(1 << 18)
            s.fill(2.0)
            r = ctx.device.zeros(1 << 18)
            comm.Allreduce(s, r, SUM)
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [8.0] * 4

    def test_large_allreduce_takes_ccl_route(self, thetagpu1, spmd):
        def body(ctx):
            comm = ucc_communicator(ctx)
            s = ctx.device.zeros(1 << 18)
            comm.Allreduce(s, ctx.device.zeros(1 << 18), SUM)
            return comm.coll.stats.xccl_calls

        assert spmd(thetagpu1, body, nranks=4)[0] == 1


class TestPureCCL:
    def test_all_collectives(self, thetagpu1, spmd):
        def body(ctx):
            h = PureCCLHarness(ctx, "nccl")
            p = h.size
            n = 32
            s = ctx.device.zeros(n)
            s.fill(1.0)
            r = ctx.device.zeros(n)
            h.Allreduce(s, r, count=n)
            ok = r.array[0] == p
            rg = ctx.device.zeros(n * p)
            h.Allgather(s, rg, count=n)
            ok &= rg.array.sum() == n * p
            h.Bcast(s, root=0, count=n)
            h.Reduce(s, r, root=0, count=n)
            sa = ctx.device.zeros(n * p)
            sa.array[:] = np.repeat(ctx.rank * 10.0 + np.arange(p), n)
            ra = ctx.device.zeros(n * p)
            h.Alltoall(sa, ra, count=n)
            ok &= bool(np.array_equal(
                ra.array, np.repeat(np.arange(p) * 10.0 + ctx.rank, n)))
            return bool(ok)

        assert all(spmd(thetagpu1, body, nranks=4))

    def test_sync_aligns_clocks(self, thetagpu1, spmd):
        def body(ctx):
            ctx.clock.advance(float(ctx.rank) * 50)
            h = PureCCLHarness(ctx, "nccl")
            h.Barrier()
            return ctx.now

        times = spmd(thetagpu1, body, nranks=4)
        assert len(set(times)) == 1

    def test_msccl_harness(self, thetagpu1, spmd):
        def body(ctx):
            h = PureCCLHarness(ctx, "msccl")
            s = ctx.device.zeros(16)
            s.fill(1.0)
            r = ctx.device.zeros(16)
            h.Allreduce(s, r, count=16)
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=2) == [2.0, 2.0]
