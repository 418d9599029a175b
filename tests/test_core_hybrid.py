"""The hybrid dispatcher: routing decisions, fallbacks, data paths."""

import numpy as np
import pytest

from repro.core import DispatchMode, run
from repro.core.fallback import FallbackReason, Route
from repro.mpi import SUM
from repro.mpi.communicator import IN_PLACE
from repro.mpi.datatypes import FLOAT
from repro.mpi.ops import user_op

KIB = 1024


class TestRouting:
    def test_small_goes_mpi_large_goes_ccl(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            d = comm.coll
            small = d.decide(comm, "allreduce", 64,
                             None, SUM, mpx.device_array(16))
            large = d.decide(comm, "allreduce", 4 << 20,
                             None, SUM, mpx.device_array(16))
            return (small.route, small.reason, large.route)

        out = run(body, system=thetagpu1)[0]
        assert out[0] == Route.MPI
        assert out[1] == FallbackReason.TUNING
        assert out[2] == Route.XCCL

    def test_host_buffer_falls_back(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            host = np.zeros(1 << 20, dtype=np.float32)
            d = comm.coll.decide(comm, "allreduce", 4 << 20, None, SUM, host)
            return d.reason

        assert run(body, system=thetagpu1)[0] == FallbackReason.HOST_BUFFER

    def test_datatype_fallback(self, thetagpu1):
        from repro.mpi.datatypes import DOUBLE_COMPLEX as DC

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(16, dtype=np.complex128)
            d = comm.coll.decide(comm, "allreduce", 4 << 20, DC, SUM, buf)
            return d.reason

        assert run(body, system=thetagpu1)[0] == FallbackReason.DATATYPE

    def test_user_op_fallback(self, thetagpu1):
        op = user_op(lambda a, b: a + b)

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(1 << 20)
            from repro.mpi.datatypes import FLOAT
            d = comm.coll.decide(comm, "allreduce", 4 << 20, FLOAT, op, buf)
            return d.reason

        assert run(body, system=thetagpu1)[0] == FallbackReason.REDUCE_OP

    def test_scan_always_mpi(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            d = comm.coll.decide(comm, "scan", 4 << 20, None, SUM,
                                 mpx.device_array(16))
            return d.reason

        assert run(body, system=thetagpu1)[0] == FallbackReason.UNSUPPORTED_COLL

    def test_pure_mpi_mode_pins(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            d = comm.coll.decide(comm, "allreduce", 4 << 20, None, SUM,
                                 mpx.device_array(16))
            return d.reason

        out = run(body, system=thetagpu1, mode=DispatchMode.PURE_MPI)[0]
        assert out == FallbackReason.MODE

    def test_pure_xccl_ignores_table(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            d = comm.coll.decide(comm, "allreduce", 4, None, SUM,
                                 mpx.device_array(16))
            return d.route

        out = run(body, system=thetagpu1, mode=DispatchMode.PURE_XCCL)[0]
        assert out == Route.XCCL


class TestEndToEnd:
    def test_results_identical_across_modes(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            outs = []
            for count in (64, 1 << 18):
                s = mpx.device_array(count, fill=float(mpx.rank + 1))
                r = mpx.device_array(count)
                comm.Allreduce(s, r, SUM)
                outs.append(float(r.array[0]))
            return outs

        expected = [sum(x + 1 for x in range(8))] * 2
        for mode in DispatchMode:
            out = run(body, system=thetagpu1, mode=mode)[0]
            assert out == expected, mode

    def test_fallback_produces_correct_result(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            z = mpx.device_array(1 << 18, dtype=np.complex128,
                                 fill=1 + 1j)
            out = mpx.device_array(1 << 18, dtype=np.complex128)
            comm.Allreduce(z, out, SUM)
            stats = mpx.route_stats
            return (out.array[0], stats.total_fallbacks)

        value, fallbacks = run(body, system=thetagpu1)[0]
        assert value == 8 * (1 + 1j)
        assert fallbacks == 1

    def test_stats_counting(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            small = mpx.device_array(16, fill=0.0)
            big = mpx.device_array(1 << 20, fill=0.0)
            comm.Allreduce(small, mpx.device_array(16), SUM)   # mpi
            comm.Allreduce(big, mpx.device_array(1 << 20), SUM)  # xccl
            comm.Bcast(big, root=0)                            # xccl
            s = mpx.route_stats
            return (s.mpi_calls, s.xccl_calls)

        assert run(body, system=thetagpu1)[0] == (1, 2)

    def test_hybrid_beats_or_matches_both_pures(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            times = []
            for count in (64, 1 << 20):
                s = mpx.device_array(count, fill=1.0)
                r = mpx.device_array(count)
                comm.Barrier()
                t0 = mpx.now
                comm.Allreduce(s, r, SUM)
                times.append(mpx.now - t0)
            return times

        hybrid = run(body, system=thetagpu1)[0]
        pure_mpi = run(body, system=thetagpu1, mode=DispatchMode.PURE_MPI)[0]
        pure_ccl = run(body, system=thetagpu1, mode=DispatchMode.PURE_XCCL)[0]
        # small: hybrid ~ MPI (beats CCL); large: hybrid ~ CCL (beats MPI)
        assert hybrid[0] <= pure_ccl[0]
        assert hybrid[1] <= pure_mpi[1] * 1.05

    def test_sendrecv_collectives_route_through_ccl(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            p = comm.size
            n = 1 << 16
            s = mpx.device_array(n * p)
            s.array[:] = np.repeat(mpx.rank * 100.0 + np.arange(p), n)
            r = mpx.device_array(n * p)
            comm.Alltoall(s, r)
            ok = np.array_equal(
                r.array, np.repeat(mpx.rank + np.arange(p) * 100.0, n))
            return ok and mpx.route_stats.xccl_calls == 1

        assert all(run(body, system=thetagpu1))

    def test_gather_scatter_ccl_route(self, thetagpu1):
        def body(mpx):
            comm = mpx.COMM_WORLD
            p = comm.size
            n = 1 << 17
            s = mpx.device_array(n, fill=float(mpx.rank))
            r = mpx.device_array(n * p)
            comm.Gather(s, r, root=0)
            if mpx.rank == 0:
                assert np.array_equal(
                    r.array, np.repeat(np.arange(p, dtype=float), n))
            out = mpx.device_array(n)
            comm.Scatter(r, out, root=0)
            return float(out.array[0]) == float(mpx.rank)

        assert all(run(body, system=thetagpu1, mode=DispatchMode.PURE_XCCL))

    @pytest.mark.parametrize("mode", ["pure_mpi", "pure_xccl", "hybrid"])
    @pytest.mark.parametrize("coll", ["gather", "gatherv", "scatter",
                                      "scatterv"])
    def test_in_place_root_on_every_route(self, thetagpu1, coll, mode):
        """The root's ``MPI_IN_PLACE`` spelling of each rooted collective
        gives every rank the numpy answer on every route: at 1, 4 096
        and 16 384 elements a block (on the MPI route the binomial tree
        takes the first two, the linear algorithm the last), spelled
        with ``count=`` / ``datatype=`` and without."""
        p, root = 4, 1
        vector = coll.endswith("v")

        def block(r, n):
            return np.arange(n, dtype=np.float32) % 7 + 10 * r

        def body(mpx):
            comm = mpx.COMM_WORLD
            rank, dev = comm.rank, comm.ctx.device
            wrong = []
            for n in (1, 4096, 16384):
                counts = [n + r if vector else n for r in range(p)]
                displs = [sum(counts[:r]) for r in range(p)]
                whole = np.concatenate([block(r, counts[r])
                                        for r in range(p)])
                for spelled in (True, False):
                    kw = {"datatype": FLOAT} if spelled else {}
                    if spelled and not vector:
                        kw["count"] = n
                    if coll.startswith("gather"):
                        mine = dev.zeros(counts[rank], dtype=np.float32)
                        mine.array[:] = block(rank, counts[rank])
                        out = dev.zeros(sum(counts), dtype=np.float32)
                        out.array[:] = -1
                        send = mine
                        if rank == root:
                            out.array[displs[root]:displs[root]
                                      + counts[root]] = mine.array
                            send = IN_PLACE
                        if vector:
                            comm.Gatherv(send, out, counts, root=root, **kw)
                        else:
                            comm.Gather(send, out, root=root, **kw)
                        got = out if rank == root else mine
                    else:
                        whole_buf = dev.zeros(sum(counts), dtype=np.float32)
                        if rank == root:
                            whole_buf.array[:] = whole
                        out = dev.zeros(counts[rank], dtype=np.float32)
                        out.array[:] = -1
                        recv = IN_PLACE if rank == root else out
                        if vector:
                            comm.Scatterv(whole_buf, counts, recv, root=root,
                                          **kw)
                        else:
                            comm.Scatter(whole_buf, recv, root=root, **kw)
                        got = whole_buf if rank == root else out
                    want = whole if rank == root \
                        else block(rank, counts[rank])
                    if not np.array_equal(got.array, want):
                        wrong.append((n, spelled))
            return wrong

        assert run(body, system=thetagpu1, nranks=4, mode=mode) == \
            [[]] * 4
