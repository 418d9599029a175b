"""Derived datatypes: layouts, pack/unpack, and on-the-wire use."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MPITypeError
from repro.mpi import FLOAT, DOUBLE, Communicator
from repro.mpi.derived import contiguous, indexed, vector


class TestLayouts:
    def test_contiguous(self):
        dt = contiguous(4, FLOAT)
        assert dt.elements_per_instance == 4
        assert dt.extent == 4
        assert dt.wire_itemsize == 16

    def test_vector(self):
        dt = vector(3, 2, 4, FLOAT)  # 3 blocks of 2, stride 4
        assert dt.elements_per_instance == 6
        assert dt.extent == 10          # 2*4 + 2
        assert dt.span(1) == 10
        assert dt.span(2) == 20

    def test_indexed_sorted(self):
        dt = indexed([2, 1], [5, 0], FLOAT)  # given out of order
        assert dt.blocks == ((0, 1), (5, 2))
        assert dt.extent == 7

    @pytest.mark.parametrize("bad", [
        lambda: contiguous(0, FLOAT),
        lambda: vector(0, 1, 1, FLOAT),
        lambda: vector(2, 3, 2, FLOAT),       # stride < blocklength
        lambda: indexed([], [], FLOAT),
        lambda: indexed([2, 2], [0, 1], FLOAT),  # overlap
        lambda: indexed([1], [0, 1], FLOAT),     # length mismatch
    ])
    def test_invalid_layouts(self, bad):
        with pytest.raises(MPITypeError):
            bad()


class TestPackUnpack:
    def test_vector_pack(self):
        dt = vector(2, 2, 3, FLOAT)  # [0,1] and [3,4]
        arr = np.arange(10, dtype=np.float32)
        assert list(dt.pack(arr, 1)) == [0, 1, 3, 4]

    def test_multi_instance_pack(self):
        dt = vector(2, 1, 2, FLOAT)  # extent 3: picks 0 and 2
        arr = np.arange(8, dtype=np.float32)
        assert list(dt.pack(arr, 2)) == [0, 2, 3, 5]

    def test_unpack_inverse(self):
        dt = indexed([1, 2], [0, 3], DOUBLE)
        src = np.arange(10, dtype=np.float64)
        packed = dt.pack(src, 2)
        dst = np.zeros(10)
        dt.unpack(packed, dst, 2)
        idx = dt._indices(2)
        assert np.array_equal(dst[idx], src[idx])
        untouched = np.setdiff1d(np.arange(10), idx)
        assert np.all(dst[untouched] == 0)

    def test_pack_buffer_too_small(self):
        dt = vector(3, 2, 4, FLOAT)
        with pytest.raises(MPITypeError):
            dt.pack(np.zeros(5, dtype=np.float32), 1)

    def test_unpack_size_mismatch(self):
        dt = contiguous(4, FLOAT)
        with pytest.raises(MPITypeError):
            dt.unpack(np.zeros(3, dtype=np.float32), np.zeros(8), 1)

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(1, 5), blocklength=st.integers(1, 4),
           gap=st.integers(0, 4), instances=st.integers(1, 3))
    def test_pack_unpack_roundtrip_property(self, count, blocklength, gap,
                                            instances):
        dt = vector(count, blocklength, blocklength + gap, FLOAT)
        n = dt.span(instances) + 3
        rng = np.random.default_rng(count * 100 + gap)
        src = rng.standard_normal(n).astype(np.float32)
        packed = dt.pack(src, instances)
        assert packed.size == instances * dt.elements_per_instance
        dst = np.zeros(n, dtype=np.float32)
        dt.unpack(packed, dst, instances)
        assert np.array_equal(dt.pack(dst, instances), packed)


class TestOnTheWire:
    def test_send_recv_matrix_column(self, thetagpu1, spmd):
        """The classic use: send a column of a row-major matrix."""
        rows = cols = 8

        def body(ctx):
            comm = Communicator.world(ctx)
            column = vector(rows, 1, cols, DOUBLE)
            if ctx.rank == 0:
                m = ctx.device.empty(rows * cols, dtype=np.float64)
                m.array[:] = np.arange(rows * cols)
                comm.Send(m, 1, tag=0, count=1, datatype=column)
                return None
            m = ctx.device.zeros(rows * cols, dtype=np.float64)
            comm.Recv(m, source=0, tag=0, count=1, datatype=column)
            got = m.array.reshape(rows, cols)[:, 0]
            return list(got)

        out = spmd(thetagpu1, body, nranks=2)
        assert out[1] == [i * cols for i in range(rows)]

    def test_isend_irecv_derived(self, thetagpu1, spmd):
        def body(ctx):
            comm = Communicator.world(ctx)
            dt = indexed([2, 2], [0, 6], FLOAT)
            if ctx.rank == 0:
                src = ctx.device.empty(8, dtype=np.float32)
                src.array[:] = np.arange(8)
                comm.Isend(src, 1, tag=1, count=1, datatype=dt).wait()
                return None
            dst = ctx.device.zeros(8, dtype=np.float32)
            req = comm.Irecv(dst, source=0, tag=1, count=1, datatype=dt)
            status = req.wait()
            return (list(dst.array), status.count)

        values, count = spmd(thetagpu1, body, nranks=2)[1]
        assert values == [0, 1, 0, 0, 0, 0, 6, 7]
        assert count == 1

    def test_derived_transfer_charges_time(self, thetagpu1, spmd):
        """Packing costs must appear in virtual time."""

        def body(ctx):
            comm = Communicator.world(ctx)
            dt = vector(1024, 1, 2, FLOAT)
            big = ctx.device.zeros(2048)
            if ctx.rank == 0:
                t0 = ctx.now
                comm.Send(big, 1, count=1, datatype=dt)
                return ctx.now - t0
            comm.Recv(big, source=0, count=1, datatype=dt)
            return None

        t_send = spmd(thetagpu1, body, nranks=2)[0]
        assert t_send > 0.2  # pack charge visible

    def test_contiguous_equals_plain(self, thetagpu1, spmd):
        def body(ctx):
            comm = Communicator.world(ctx)
            dt = contiguous(16, FLOAT)
            buf = ctx.device.zeros(16)
            if ctx.rank == 0:
                buf.fill(5.0)
                comm.Send(buf, 1, count=1, datatype=dt)
                return None
            comm.Recv(buf, source=0, count=1, datatype=dt)
            return float(buf.array.sum())

        assert spmd(thetagpu1, body, nranks=2)[1] == 80.0
