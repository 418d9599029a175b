"""Property-based collective tests (hypothesis).

Random counts, rank counts, values, ops, and dtypes against numpy
references — one engine run per example, so examples are capped low
but each exercises a full SPMD execution.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.hw.systems import make_system
from repro.mpi import MAX, MIN, SUM, Communicator
from repro.mpi.coll import MPICollDispatcher
from repro.sim.engine import Engine

SETTINGS = dict(max_examples=12, deadline=None)

OPS = {
    "sum": (SUM, lambda vs: np.sum(vs, axis=0)),
    "max": (MAX, lambda vs: np.max(vs, axis=0)),
    "min": (MIN, lambda vs: np.min(vs, axis=0)),
}


def _comm(ctx, force=None):
    comm = Communicator.world(ctx)
    comm.coll = MPICollDispatcher(force=force)
    return comm


@st.composite
def allreduce_case(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=1, max_value=300))
    op_name = draw(st.sampled_from(sorted(OPS)))
    algo = draw(st.sampled_from(["recursive_doubling", "ring"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    return p, count, op_name, algo, seed


class TestAllreduceProperty:
    @settings(**SETTINGS)
    @given(allreduce_case())
    def test_matches_numpy(self, case):
        p, count, op_name, algo, seed = case
        op, ref = OPS[op_name]
        rng = np.random.default_rng(seed)
        inputs = rng.integers(-50, 50, size=(p, count)).astype(np.float64)
        cluster = make_system("thetagpu", 1)

        def body(ctx):
            comm = _comm(ctx, algo)
            send = ctx.device.from_numpy(inputs[ctx.rank])
            recv = ctx.device.zeros(count, dtype=np.float64)
            comm.Allreduce(send, recv, op)
            return recv.to_numpy()

        outs = Engine(cluster, nranks=p).run(body)
        expect = ref(inputs)
        for out in outs:
            assert np.allclose(out, expect)


@st.composite
def alltoall_case(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    block = draw(st.integers(min_value=1, max_value=64))
    algo = draw(st.sampled_from(["scattered", "pairwise", "bruck"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    return p, block, algo, seed


class TestAlltoallProperty:
    @settings(**SETTINGS)
    @given(alltoall_case())
    def test_transpose_identity(self, case):
        p, block, algo, seed = case
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 1000, size=(p, p, block)).astype(np.int64)
        cluster = make_system("thetagpu", 1)

        def body(ctx):
            comm = _comm(ctx, algo)
            send = ctx.device.from_numpy(data[ctx.rank].reshape(-1))
            recv = ctx.device.zeros(p * block, dtype=np.int64)
            comm.Alltoall(send, recv)
            return recv.to_numpy().reshape(p, block)

        outs = Engine(cluster, nranks=p).run(body)
        # out[dst][src] must equal data[src][dst] (global transpose)
        for dst, out in enumerate(outs):
            for src in range(p):
                assert np.array_equal(out[src], data[src][dst])


@st.composite
def gather_case(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=1, max_value=100))
    root = draw(st.integers(min_value=0, max_value=5))
    algo = draw(st.sampled_from(["linear", "binomial"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    return p, count, root % p, algo, seed


class TestGatherProperty:
    @settings(**SETTINGS)
    @given(gather_case())
    def test_concatenation(self, case):
        p, count, root, algo, seed = case
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((p, count))
        cluster = make_system("thetagpu", 1)

        def body(ctx):
            comm = _comm(ctx, algo)
            send = ctx.device.from_numpy(data[ctx.rank])
            recv = ctx.device.zeros(count * p, dtype=np.float64)
            comm.Gather(send, recv, root=root)
            return recv.to_numpy() if ctx.rank == root else None

        outs = Engine(cluster, nranks=p).run(body)
        assert np.allclose(outs[root], data.reshape(-1))


@st.composite
def bcast_case(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    count = draw(st.integers(min_value=1, max_value=400))
    root = draw(st.integers(min_value=0, max_value=5))
    algo = draw(st.sampled_from(["binomial", "scatter_ring_allgather"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    return p, count, root % p, algo, seed


class TestBcastProperty:
    @settings(**SETTINGS)
    @given(bcast_case())
    def test_everyone_gets_roots_data(self, case):
        p, count, root, algo, seed = case
        rng = np.random.default_rng(seed)
        payload = rng.standard_normal(count)
        cluster = make_system("thetagpu", 1)

        def body(ctx):
            comm = _comm(ctx, algo)
            buf = ctx.device.zeros(count, dtype=np.float64)
            if ctx.rank == root:
                buf.copy_from(payload)
            comm.Bcast(buf, root=root)
            return buf.to_numpy()

        for out in Engine(cluster, nranks=p).run(body):
            assert np.array_equal(out, payload)


class TestVirtualTimeInvariants:
    @settings(**SETTINGS)
    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=5000))
    def test_collective_time_positive_and_uniform_finish(self, p, count):
        cluster = make_system("thetagpu", 1)

        def body(ctx):
            comm = _comm(ctx)
            send = ctx.device.zeros(count)
            recv = ctx.device.zeros(count)
            t0 = ctx.now
            comm.Allreduce(send, recv, SUM)
            return ctx.now - t0

        times = Engine(cluster, nranks=p).run(body)
        assert all(t > 0 for t in times)

    @settings(**SETTINGS)
    @given(st.integers(min_value=2, max_value=5))
    def test_larger_messages_cost_more(self, p):
        cluster = make_system("thetagpu", 1)

        def body(ctx):
            comm = _comm(ctx, "ring")
            out = []
            for count in (256, 262144):
                send = ctx.device.zeros(count)
                recv = ctx.device.zeros(count)
                comm.Barrier()
                t0 = ctx.now
                comm.Allreduce(send, recv, SUM)
                out.append(ctx.now - t0)
            return out

        small, large = Engine(cluster, nranks=p).run(body)[0]
        assert large > small
