"""Correctness of every MPI collective algorithm, all rank counts.

Each algorithm is pinned via the dispatcher's ``force`` knob and
validated against a numpy-computed reference, for power-of-two and
awkward rank counts, small and large payloads.
"""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import MAX, PROD, SUM, Communicator
from repro.mpi.coll import MPICollDispatcher, tuning
from repro.mpi.coll._util import is_pof2
from repro.mpi.communicator import IN_PLACE
from repro.mpi.ops import user_op

RANK_COUNTS = [2, 3, 4, 7, 8]


def comm_with(ctx, force=None):
    comm = Communicator.world(ctx)
    comm.coll = MPICollDispatcher(force=force)
    return comm


def _values(p, n, rank):
    return (np.arange(n, dtype=np.float64) % 13) + rank * 100.0


class TestBcast:
    @pytest.mark.parametrize("algo", ["binomial", "scatter_ring_allgather"])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_correct(self, thetagpu1, spmd, algo, p):
        n = 1000

        def body(ctx):
            comm = comm_with(ctx, algo)
            buf = ctx.device.zeros(n, dtype=np.float64)
            root = p - 1
            if ctx.rank == root:
                buf.array[:] = _values(p, n, root)
            comm.Bcast(buf, root=root)
            return np.array_equal(buf.array, _values(p, n, root))

        assert all(spmd(thetagpu1, body, nranks=p))

    def test_small_count_degenerate(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx, "scatter_ring_allgather")
            buf = ctx.device.zeros(3)  # count < p
            if ctx.rank == 0:
                buf.array[:] = [1, 2, 3]
            comm.Bcast(buf, root=0)
            return list(buf.array)

        assert spmd(thetagpu1, body, nranks=8) == [[1, 2, 3]] * 8


class TestReduce:
    @pytest.mark.parametrize("algo", ["binomial", "linear",
                                      "reduce_scatter_gather"])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_sum(self, thetagpu1, spmd, algo, p):
        n = 600

        def body(ctx):
            comm = comm_with(ctx, algo)
            send = ctx.device.zeros(n, dtype=np.float64)
            send.array[:] = _values(p, n, ctx.rank)
            recv = ctx.device.zeros(n, dtype=np.float64)
            comm.Reduce(send, recv, SUM, root=0)
            if ctx.rank != 0:
                return True
            expect = sum(_values(p, n, r) for r in range(p))
            return np.allclose(recv.array, expect)

        assert all(spmd(thetagpu1, body, nranks=p))

    def test_max_op(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx, "binomial")
            send = ctx.device.zeros(8)
            send.fill(float(ctx.rank))
            recv = ctx.device.zeros(8)
            comm.Reduce(send, recv, MAX, root=2)
            return recv.array[0] if ctx.rank == 2 else None

        assert spmd(thetagpu1, body, nranks=5)[2] == 4.0

    def test_noncommutative_user_op_rank_ordered(self, thetagpu1, spmd):
        # f(a, b) = a*2 + b is associative but NOT commutative: the
        # result depends on operand order, which must be rank order
        op = user_op(lambda a, b: a * 2 + b, commutative=False)

        def body(ctx):
            comm = comm_with(ctx)
            send = np.full(4, float(ctx.rank + 1))
            recv = np.zeros(4)
            comm.Reduce(send, recv, op, root=0)
            return recv[0] if ctx.rank == 0 else None

        # left-assoc rank order: ((2*1+2)=4, 2*4+3=11, 2*11+4=26)
        assert spmd(thetagpu1, body, nranks=4)[0] == 26.0


class TestAllreduce:
    @pytest.mark.parametrize("algo", ["recursive_doubling", "ring"])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_sum(self, thetagpu1, spmd, algo, p):
        n = 800

        def body(ctx):
            comm = comm_with(ctx, algo)
            send = ctx.device.zeros(n, dtype=np.float64)
            send.array[:] = _values(p, n, ctx.rank)
            recv = ctx.device.zeros(n, dtype=np.float64)
            comm.Allreduce(send, recv, SUM)
            expect = sum(_values(p, n, r) for r in range(p))
            return np.allclose(recv.array, expect)

        assert all(spmd(thetagpu1, body, nranks=p))

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_rabenseifner_pof2(self, thetagpu1, spmd, p):
        n = 1024

        def body(ctx):
            comm = comm_with(ctx, "rabenseifner")
            send = ctx.device.zeros(n, dtype=np.float64)
            send.array[:] = _values(p, n, ctx.rank)
            recv = ctx.device.zeros(n, dtype=np.float64)
            comm.Allreduce(send, recv, SUM)
            expect = sum(_values(p, n, r) for r in range(p))
            return np.allclose(recv.array, expect)

        assert all(spmd(thetagpu1, body, nranks=p))

    def test_in_place(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            buf = ctx.device.zeros(16)
            buf.fill(float(ctx.rank + 1))
            comm.Allreduce(IN_PLACE, buf, SUM)
            return buf.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [10.0] * 4

    def test_prod(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            send = ctx.device.zeros(4)
            send.fill(2.0)
            recv = ctx.device.zeros(4)
            comm.Allreduce(send, recv, PROD)
            return recv.array[0]

        assert spmd(thetagpu1, body, nranks=3) == [8.0] * 3

    def test_count_1_edge(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx, "ring")
            send = ctx.device.zeros(1)
            send.fill(1.0)
            recv = ctx.device.zeros(1)
            comm.Allreduce(send, recv, SUM)
            return recv.array[0]

        assert spmd(thetagpu1, body, nranks=5) == [5.0] * 5


class TestAllgather:
    @pytest.mark.parametrize("algo", ["ring", "bruck"])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_correct(self, thetagpu1, spmd, algo, p):
        n = 50

        def body(ctx):
            comm = comm_with(ctx, algo)
            send = ctx.device.zeros(n, dtype=np.float64)
            send.array[:] = _values(p, n, ctx.rank)
            recv = ctx.device.zeros(n * p, dtype=np.float64)
            comm.Allgather(send, recv)
            expect = np.concatenate([_values(p, n, r) for r in range(p)])
            return np.array_equal(recv.array, expect)

        assert all(spmd(thetagpu1, body, nranks=p))

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_recursive_doubling_pof2(self, thetagpu1, spmd, p):
        def body(ctx):
            comm = comm_with(ctx, "recursive_doubling")
            send = ctx.device.zeros(16)
            send.fill(float(ctx.rank))
            recv = ctx.device.zeros(16 * p)
            comm.Allgather(send, recv)
            return np.array_equal(recv.array,
                                  np.repeat(np.arange(p, dtype=float), 16))

        assert all(spmd(thetagpu1, body, nranks=p))

    def test_allgatherv(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            p = comm.size
            counts = [r + 1 for r in range(p)]
            mine = counts[ctx.rank]
            send = ctx.device.zeros(mine)
            send.fill(float(ctx.rank))
            recv = ctx.device.zeros(sum(counts))
            comm.Allgatherv(send, recv, counts)
            expect = np.concatenate(
                [np.full(c, float(r)) for r, c in enumerate(counts)])
            return np.array_equal(recv.array, expect)

        assert all(spmd(thetagpu1, body, nranks=5))


class TestAlltoall:
    @pytest.mark.parametrize("algo", ["scattered", "pairwise", "bruck"])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    def test_correct(self, thetagpu1, spmd, algo, p):
        n = 16

        def body(ctx):
            comm = comm_with(ctx, algo)
            send = ctx.device.zeros(n * p, dtype=np.int64)
            send.array[:] = np.repeat(ctx.rank * 1000 + np.arange(p), n)
            recv = ctx.device.zeros(n * p, dtype=np.int64)
            comm.Alltoall(send, recv)
            expect = np.repeat(np.arange(p) * 1000 + ctx.rank, n)
            return np.array_equal(recv.array, expect)

        assert all(spmd(thetagpu1, body, nranks=p))

    def test_alltoallv_ragged(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            p = comm.size
            scounts = [(ctx.rank + d) % 3 + 1 for d in range(p)]
            rcounts = [(s + ctx.rank) % 3 + 1 for s in range(p)]
            send = np.concatenate(
                [np.full(c, ctx.rank * 10 + d, dtype=np.int32)
                 for d, c in enumerate(scounts)])
            recv = np.zeros(sum(rcounts), dtype=np.int32)
            comm.Alltoallv(send, scounts, recv, rcounts)
            off = 0
            for s, c in enumerate(rcounts):
                if not np.all(recv[off:off + c] == s * 10 + ctx.rank):
                    return False
                off += c
            return True

        assert all(spmd(thetagpu1, body, nranks=4))

    def test_alltoallv_zero_counts(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            p = comm.size
            scounts = [1 if d != ctx.rank else 0 for d in range(p)]
            rcounts = [1 if s != ctx.rank else 0 for s in range(p)]
            send = np.full(sum(scounts), float(ctx.rank))
            recv = np.zeros(sum(rcounts))
            comm.Alltoallv(send, scounts, recv, rcounts)
            expect = [float(s) for s in range(p) if s != ctx.rank]
            return list(recv) == expect

        assert all(spmd(thetagpu1, body, nranks=4))


class TestGatherScatter:
    @pytest.mark.parametrize("algo", ["linear", "binomial"])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    @pytest.mark.parametrize("root", [0, 1])
    def test_gather(self, thetagpu1, spmd, algo, p, root):
        if root >= p:
            pytest.skip("root outside comm")

        def body(ctx):
            comm = comm_with(ctx, algo)
            send = ctx.device.zeros(8, dtype=np.int64)
            send.array[:] = ctx.rank
            recv = ctx.device.zeros(8 * p, dtype=np.int64)
            comm.Gather(send, recv, root=root)
            if ctx.rank != root:
                return True
            return np.array_equal(recv.array,
                                  np.repeat(np.arange(p), 8))

        assert all(spmd(thetagpu1, body, nranks=p))

    @pytest.mark.parametrize("algo", ["linear", "binomial"])
    @pytest.mark.parametrize("p", RANK_COUNTS)
    @pytest.mark.parametrize("root", [0, 1])
    def test_scatter(self, thetagpu1, spmd, algo, p, root):
        if root >= p:
            pytest.skip("root outside comm")

        def body(ctx):
            comm = comm_with(ctx, algo)
            send = ctx.device.zeros(8 * p, dtype=np.int64)
            if ctx.rank == root:
                send.array[:] = np.repeat(np.arange(p) + 50, 8)
            recv = ctx.device.zeros(8, dtype=np.int64)
            comm.Scatter(send, recv, root=root)
            return np.all(recv.array == ctx.rank + 50)

        assert all(spmd(thetagpu1, body, nranks=p))

    def test_gatherv_scatterv(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            p = comm.size
            counts = [r + 1 for r in range(p)]
            send = np.full(counts[ctx.rank], float(ctx.rank))
            recv = np.zeros(sum(counts))
            comm.Gatherv(send, recv, counts, root=0)
            ok = True
            if ctx.rank == 0:
                expect = np.concatenate(
                    [np.full(c, float(r)) for r, c in enumerate(counts)])
                ok = np.array_equal(recv, expect)
            # scatterv it back
            out = np.zeros(counts[ctx.rank])
            comm.Scatterv(recv, counts, out, root=0)
            return ok and np.all(out == float(ctx.rank))

        assert all(spmd(thetagpu1, body, nranks=4))


class TestReduceScatterScanBarrier:
    @pytest.mark.parametrize("algo,p", [("recursive_halving", 4),
                                        ("recursive_halving", 8),
                                        ("pairwise", 3),
                                        ("pairwise", 5),
                                        ("pairwise", 8)])
    def test_reduce_scatter_block(self, thetagpu1, spmd, algo, p):
        n = 32

        def body(ctx):
            comm = comm_with(ctx, algo)
            send = ctx.device.zeros(n * p, dtype=np.float64)
            send.array[:] = np.tile(_values(p, n, ctx.rank), p) + \
                np.repeat(np.arange(p), n)
            recv = ctx.device.zeros(n, dtype=np.float64)
            comm.Reduce_scatter_block(send, recv, SUM)
            expect = sum(_values(p, n, r) + ctx.rank for r in range(p))
            return np.allclose(recv.array, expect)

        assert all(spmd(thetagpu1, body, nranks=p))

    def test_reduce_scatter_block_in_place_default_count(self, thetagpu1,
                                                         spmd):
        """In place, the buffer holds every rank's input: the default
        count is its size over the ranks."""
        p, n = 4, 4

        def body(ctx):
            comm = comm_with(ctx)
            buf = ctx.device.zeros(n * p, dtype=np.float64)
            buf.array[:] = np.arange(n * p) + ctx.rank
            comm.Reduce_scatter_block(IN_PLACE, buf, SUM)
            mine = np.arange(n) + ctx.rank * n
            return np.array_equal(buf.array[:n], p * mine + sum(range(p)))

        assert all(spmd(thetagpu1, body, nranks=p))

    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    def test_scan(self, thetagpu1, spmd, p):
        def body(ctx):
            comm = comm_with(ctx)
            send = np.full(6, float(ctx.rank + 1))
            recv = np.zeros(6)
            comm.Scan(send, recv, SUM)
            return recv[0]

        out = spmd(thetagpu1, body, nranks=p)
        assert out == [sum(range(1, r + 2)) for r in range(p)]

    @pytest.mark.parametrize("p", [2, 5, 8])
    def test_exscan(self, thetagpu1, spmd, p):
        def body(ctx):
            comm = comm_with(ctx)
            send = np.full(4, float(ctx.rank + 1))
            recv = np.full(4, -1.0)
            comm.Exscan(send, recv, SUM)
            return recv[0]

        out = spmd(thetagpu1, body, nranks=p)
        assert out[0] == -1.0  # rank 0 untouched
        assert out[1:] == [sum(range(1, r + 1)) for r in range(1, p)]

    @pytest.mark.parametrize("p", [1, 2, 3, 8])
    def test_barrier_synchronizes_clocks(self, thetagpu1, spmd, p):
        def body(ctx):
            ctx.clock.advance(float(ctx.rank * 100))
            comm = comm_with(ctx)
            comm.Barrier()
            return ctx.now

        out = spmd(thetagpu1, body, nranks=p)
        slowest = (p - 1) * 100
        assert all(t >= slowest for t in out)


class TestForcedPowerOfTwo:
    """A forced algorithm that pairs ranks by bit is refused, on every
    rank and before any round, on a communicator whose size is not a
    power of two (it used to deadlock or index out of range)."""

    @staticmethod
    def _call(ctx, coll, algo):
        comm = comm_with(ctx, algo)
        p, n = comm.size, 16
        if coll == "allgather":
            send = ctx.device.zeros(n)
            send.fill(float(ctx.rank))
            recv = ctx.device.zeros(n * p)
            comm.Allgather(send, recv)
            return np.array_equal(recv.array,
                                  np.repeat(np.arange(p, dtype=float), n))
        send = ctx.device.zeros(n * p)
        send.array[:] = np.repeat(np.arange(p, dtype=float), n)
        recv = ctx.device.zeros(n)
        comm.Reduce_scatter_block(send, recv, SUM)
        return bool((recv.array == p * ctx.rank).all())

    @pytest.mark.parametrize("coll,algo", [
        ("reduce_scatter", "recursive_halving"),
        ("allgather", "recursive_doubling")])
    def test_refused_on_two_nodes_of_three(self, thetagpu2, spmd, coll,
                                           algo):
        def body(ctx):
            try:
                self._call(ctx, coll, algo)
            except MPIError as exc:
                return str(exc)
            return None

        out = spmd(thetagpu2, body, nranks=6, ranks_per_node=3)
        assert out == [f"{coll} algorithm {algo!r} needs a power-of-two "
                       "communicator; this one has 6 ranks"] * 6

    @pytest.mark.parametrize("coll,algo", [
        ("reduce_scatter", "recursive_halving"),
        ("allgather", "recursive_doubling")])
    def test_runs_on_two_nodes_of_two(self, thetagpu2, spmd, coll, algo):
        out = spmd(thetagpu2, lambda ctx: self._call(ctx, coll, algo),
                   nranks=4, ranks_per_node=2)
        assert out == [True] * 4

    def test_select_keeps_the_same_precondition(self):
        # the table's own picks fall back where a forced pick is refused
        for (coll, algo), fallback in tuning.POF2_ONLY.items():
            for p in range(1, 33):
                picks = {tuning.select(coll, nbytes, p)
                         for nbytes in (0, 1 << 10, 1 << 20)}
                assert (algo in picks) == is_pof2(p)
                assert is_pof2(p) or fallback in picks
