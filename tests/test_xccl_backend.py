"""CCL backends: collectives, p2p groups, capability checks, timing."""

import numpy as np
import pytest

from repro.baselines.pure_ccl import PureCCLHarness
from repro.errors import (CCLInvalidUsage, CCLUnsupportedDatatype, CCLUnsupportedOperation)
from repro.mpi import DOUBLE_COMPLEX, FLOAT, INT32, MAX, SUM
from repro.mpi.ops import LAND, user_op
from repro.xccl import api as xapi
from repro.xccl.registry import get_backend


def make_comm(ctx, backend=None):
    uid = xapi.xcclGetUniqueId(ctx, ctx.size, "test")
    return xapi.xcclCommInitRank(ctx, list(range(ctx.size)), ctx.rank, uid,
                                 backend)


class TestBuiltinCollectives:
    def test_allreduce_sum(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            n = 256
            s = ctx.device.zeros(n)
            s.fill(float(ctx.rank + 1))
            r = ctx.device.zeros(n)
            xapi.xcclAllReduce(s, r, n, FLOAT, SUM, comm)
            xapi.xcclStreamSynchronize(comm)
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [10.0] * 4

    def test_allreduce_in_place(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            buf = ctx.device.zeros(8)
            buf.fill(1.0)
            xapi.xcclAllReduce(None, buf, 8, FLOAT, SUM, comm)
            return buf.array[0]

        assert spmd(thetagpu1, body, nranks=3) == [3.0] * 3

    def test_allreduce_max(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            s = ctx.device.zeros(4)
            s.fill(float(ctx.rank))
            r = ctx.device.zeros(4)
            xapi.xcclAllReduce(s, r, 4, FLOAT, MAX, comm)
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=5) == [4.0] * 5

    def test_broadcast(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            buf = ctx.device.zeros(16)
            if ctx.rank == 2:
                buf.fill(9.0)
            xapi.xcclBroadcast(buf, 16, FLOAT, 2, comm)
            return buf.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [9.0] * 4

    def test_reduce_lands_at_root_only(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            s = ctx.device.zeros(4)
            s.fill(1.0)
            r = ctx.device.zeros(4)
            r.fill(-1.0)
            xapi.xcclReduce(s, r, 4, FLOAT, SUM, 1, comm)
            return r.array[0]

        out = spmd(thetagpu1, body, nranks=3)
        assert out[1] == 3.0
        assert out[0] == -1.0 and out[2] == -1.0

    def test_allgather(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            s = ctx.device.zeros(4)
            s.fill(float(ctx.rank))
            r = ctx.device.zeros(4 * ctx.size)
            xapi.xcclAllGather(s, r, 4, FLOAT, comm)
            return np.array_equal(r.array,
                                  np.repeat(np.arange(ctx.size, dtype=float), 4))

        assert all(spmd(thetagpu1, body, nranks=4))

    def test_reduce_scatter(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            p = ctx.size
            s = ctx.device.zeros(4 * p)
            s.array[:] = np.repeat(np.arange(p, dtype=float), 4)
            r = ctx.device.zeros(4)
            xapi.xcclReduceScatter(s, r, 4, FLOAT, SUM, comm)
            return r.array[0]

        out = spmd(thetagpu1, body, nranks=4)
        assert out == [0.0, 4.0, 8.0, 12.0]

    def test_collective_advances_clock_uniformly(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            b = ctx.device.zeros(1024)
            xapi.xcclAllReduce(None, b, 1024, FLOAT, SUM, comm)
            xapi.xcclStreamSynchronize(comm)
            return ctx.now

        times = spmd(thetagpu1, body, nranks=4)
        assert len(set(times)) == 1  # CCL completion is synchronized
        assert times[0] > 20.0       # at least the NCCL launch floor


class TestCapabilityChecks:
    def test_dtype_unsupported(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            z = ctx.device.zeros(4, dtype=np.complex128)
            try:
                xapi.xcclAllReduce(z, z, 4, DOUBLE_COMPLEX, SUM, comm)
            except CCLUnsupportedDatatype:
                return "rejected"
            return "accepted"

        assert spmd(thetagpu1, body, nranks=2) == ["rejected"] * 2

    def test_hccl_rejects_int(self, voyager1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            b = ctx.device.zeros(4, dtype=np.int32)
            try:
                xapi.xcclAllReduce(b, b, 4, INT32, SUM, comm)
            except CCLUnsupportedDatatype:
                return "rejected"
            return "accepted"

        assert spmd(voyager1, body, nranks=2) == ["rejected"] * 2

    def test_hccl_accepts_float(self, voyager1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            b = ctx.device.zeros(4)
            b.fill(1.0)
            xapi.xcclAllReduce(None, b, 4, FLOAT, SUM, comm)
            return b.array[0]

        assert spmd(voyager1, body, nranks=2) == [2.0, 2.0]

    def test_user_op_rejected(self, thetagpu1, spmd):
        op = user_op(lambda a, b: a + b)

        def body(ctx):
            comm = make_comm(ctx)
            b = ctx.device.zeros(4)
            try:
                xapi.xcclAllReduce(None, b, 4, FLOAT, op, comm)
            except CCLUnsupportedOperation:
                return "rejected"
            return "accepted"

        assert spmd(thetagpu1, body, nranks=2) == ["rejected"] * 2

    def test_logical_op_rejected(self):
        assert not get_backend("nccl").capabilities.allows_op(LAND)

    def test_vendor_mismatch(self, voyager1, spmd):
        def body(ctx):
            try:
                make_comm(ctx, "nccl")  # NCCL cannot drive Gaudi
            except CCLInvalidUsage:
                return "rejected"
            return "accepted"

        assert spmd(voyager1, body, nranks=2) == ["rejected"] * 2

    def test_destroyed_comm_rejected(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            xapi.xcclCommDestroy(comm)
            b = ctx.device.zeros(4)
            try:
                xapi.xcclAllReduce(None, b, 4, FLOAT, SUM, comm)
            except CCLInvalidUsage:
                return "rejected"
            return "accepted"

        assert spmd(thetagpu1, body, nranks=2) == ["rejected"] * 2

    #: every xCCL entry point that takes a count, on one 4-element
    #: buffer per rank (``send`` / ``recv`` to the other of two ranks)
    CALLS = {
        "allreduce": lambda b, n, c: xapi.xcclAllReduce(b, b, n, FLOAT, SUM,
                                                        c),
        "broadcast": lambda b, n, c: xapi.xcclBroadcast(b, n, FLOAT, 0, c),
        "reduce": lambda b, n, c: xapi.xcclReduce(b, b, n, FLOAT, SUM, 0, c),
        "allgather": lambda b, n, c: xapi.xcclAllGather(b, b, n, FLOAT, c),
        "reduce_scatter": lambda b, n, c: xapi.xcclReduceScatter(
            b, b, n, FLOAT, SUM, c),
        "send": lambda b, n, c: xapi.xcclSend(b, n, FLOAT, 1 - c.rank, c),
        "recv": lambda b, n, c: xapi.xcclRecv(b, n, FLOAT, 1 - c.rank, c),
    }

    @pytest.mark.parametrize("count", [1 << 20, -1])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_count_must_fit_the_buffer(self, call, count, thetagpu1, spmd):
        """``ncclInvalidArgument``: a negative count, or one beyond the
        buffer, is refused before the call queues or meets another rank
        (it used to price 4 MiB while reducing 4 elements, or reach the
        wire tracker as a negative size), and moves no clock."""
        def body(ctx):
            comm = PureCCLHarness(ctx, "nccl").comm
            buf = ctx.device.zeros(4)
            before = ctx.now
            with pytest.raises(CCLInvalidUsage, match="count"):
                self.CALLS[call](buf, count, comm)
            return ctx.now == before

        assert spmd(thetagpu1, body, nranks=2) == [True, True]

    @pytest.mark.parametrize("count,fits", [(2, True), (3, False)])
    @pytest.mark.parametrize("call", ["allgather", "reduce_scatter"])
    def test_block_per_rank_buffer_holds_count_times_size(
            self, call, count, fits, thetagpu1, spmd):
        """The buffer that holds one block per rank must hold ``count *
        size`` elements: on two ranks, 3 fits the 4-element per-rank
        side but not the other."""
        def body(ctx):
            comm = PureCCLHarness(ctx, "nccl").comm
            mine, blocks = ctx.device.zeros(4), ctx.device.zeros(4)
            if call == "allgather":
                def run():
                    xapi.xcclAllGather(mine, blocks, count, FLOAT, comm)
            else:
                def run():
                    xapi.xcclReduceScatter(blocks, mine, count, FLOAT, SUM,
                                           comm)
            if fits:
                run()
                return "ran"
            with pytest.raises(CCLInvalidUsage, match="count"):
                run()
            return "refused"

        assert spmd(thetagpu1, body, nranks=2) == \
            ["ran" if fits else "refused"] * 2


class TestGroupedP2P:
    def test_sendrecv_pair(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            peer = 1 - ctx.rank
            s = ctx.device.zeros(8)
            s.fill(float(ctx.rank + 5))
            r = ctx.device.zeros(8)
            xapi.xcclGroupStart()
            xapi.xcclSend(s, 8, FLOAT, peer, comm)
            xapi.xcclRecv(r, 8, FLOAT, peer, comm)
            xapi.xcclGroupEnd()
            xapi.xcclStreamSynchronize(comm)
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=2) == [6.0, 5.0]

    def test_alltoallv_listing1(self, thetagpu1, spmd):
        """Listing 1 of the paper, verbatim structure."""

        def body(ctx):
            comm = make_comm(ctx)
            p = ctx.size
            sendcnts = [(ctx.rank + d) % 3 + 1 for d in range(p)]
            recvcnts = [(s + ctx.rank) % 3 + 1 for s in range(p)]
            sdispls = np.concatenate([[0], np.cumsum(sendcnts)[:-1]]).tolist()
            rdispls = np.concatenate([[0], np.cumsum(recvcnts)[:-1]]).tolist()
            sendbuf = ctx.device.zeros(sum(sendcnts))
            for d in range(p):
                sendbuf.array[sdispls[d]:sdispls[d] + sendcnts[d]] = \
                    ctx.rank * 10 + d
            recvbuf = ctx.device.zeros(sum(recvcnts))
            xapi.xcclGroupStart()
            for r in range(p):
                xapi.xcclSend(sendbuf.view(sdispls[r], sendcnts[r]),
                              sendcnts[r], FLOAT, r, comm)
                xapi.xcclRecv(recvbuf.view(rdispls[r], recvcnts[r]),
                              recvcnts[r], FLOAT, r, comm)
            xapi.xcclGroupEnd()
            xapi.xcclStreamSynchronize(comm)
            for s in range(p):
                got = recvbuf.array[rdispls[s]:rdispls[s] + recvcnts[s]]
                if not np.all(got == s * 10 + ctx.rank):
                    return False
            return True

        assert all(spmd(thetagpu1, body, nranks=4))

    def test_self_send(self, thetagpu1, spmd):
        def body(ctx):
            comm = make_comm(ctx)
            s = ctx.device.zeros(4)
            s.fill(7.0)
            r = ctx.device.zeros(4)
            xapi.xcclGroupStart()
            xapi.xcclSend(s, 4, FLOAT, ctx.rank, comm)
            xapi.xcclRecv(r, 4, FLOAT, ctx.rank, comm)
            xapi.xcclGroupEnd()
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=2) == [7.0, 7.0]

    def test_group_end_without_start(self, thetagpu1, spmd):
        def body(ctx):
            try:
                xapi.xcclGroupEnd()
            except CCLInvalidUsage:
                return "rejected"
            return "accepted"

        assert spmd(thetagpu1, body, nranks=1) == ["rejected"]

    def test_group_amortizes_launch(self, thetagpu1, spmd):
        """One group of k sends pays one launch; k groups pay k."""

        def body(ctx):
            comm = make_comm(ctx)
            peer = 1 - ctx.rank
            bufs = [ctx.device.zeros(16) for _ in range(4)]
            t0 = ctx.now
            xapi.xcclGroupStart()
            for b in bufs:
                if ctx.rank == 0:
                    xapi.xcclSend(b, 16, FLOAT, peer, comm)
                else:
                    xapi.xcclRecv(b, 16, FLOAT, peer, comm)
            xapi.xcclGroupEnd()
            grouped = ctx.now - t0
            t1 = ctx.now
            for b in bufs:
                if ctx.rank == 0:
                    xapi.xcclSend(b, 16, FLOAT, peer, comm)
                else:
                    xapi.xcclRecv(b, 16, FLOAT, peer, comm)
            ungrouped = ctx.now - t1
            return grouped < ungrouped

        assert all(spmd(thetagpu1, body, nranks=2))

    def test_ordering_across_groups(self, thetagpu1, spmd):
        """Sends to the same peer match receives in program order."""

        def body(ctx):
            comm = make_comm(ctx)
            if ctx.rank == 0:
                for value in (1.0, 2.0, 3.0):
                    b = ctx.device.zeros(4)
                    b.fill(value)
                    xapi.xcclSend(b, 4, FLOAT, 1, comm)
                return None
            got = []
            for _ in range(3):
                b = ctx.device.zeros(4)
                xapi.xcclRecv(b, 4, FLOAT, 0, comm)
                got.append(b.array[0])
            return got

        assert spmd(thetagpu1, body, nranks=2)[1] == [1.0, 2.0, 3.0]


class TestBackendIdentity:
    def test_versions(self):
        assert get_backend("nccl").version.startswith("2.18")
        assert get_backend("nccl-2.11").version == "2.11.4"
        assert "2.12.12" in get_backend("msccl").version

    def test_params_names(self):
        for name in ("nccl", "rccl", "hccl", "msccl"):
            assert get_backend(name).params.name in (name, "nccl")

    def test_launch_floor_ordering(self):
        # HCCL's launch overhead dwarfs the others (paper: 270 vs 20-28)
        assert get_backend("hccl").params.launch_us > \
            10 * get_backend("nccl").params.launch_us
