"""Reduction ops and validity rules."""

import numpy as np
import pytest

from repro.errors import MPIOpError
from repro.mpi import datatypes as dt
from repro.mpi.ops import (
    BAND, BOR, BXOR, LAND, LOR, LXOR, MAX, MIN, PREDEFINED_OPS, PROD, SUM,
    user_op,
)


class TestArithmetic:
    def test_sum(self):
        a = np.array([1.0, 2.0])
        assert np.all(SUM.fn(a, a) == [2.0, 4.0])

    def test_prod(self):
        assert np.all(PROD.fn(np.array([2, 3]), np.array([4, 5])) == [8, 15])

    def test_min_max(self):
        a, b = np.array([1, 9]), np.array([5, 5])
        assert np.all(MIN.fn(a, b) == [1, 5])
        assert np.all(MAX.fn(a, b) == [5, 9])


class TestLogicalAndBitwise:
    def test_land_preserves_dtype(self):
        a = np.array([2, 0], dtype=np.int32)
        out = LAND.fn(a, np.array([1, 1], dtype=np.int32))
        assert out.dtype == np.int32
        assert np.all(out == [1, 0])

    def test_lor_lxor(self):
        a, b = np.array([1, 0, 1]), np.array([0, 0, 1])
        assert np.all(LOR.fn(a, b) == [1, 0, 1])
        assert np.all(LXOR.fn(a, b) == [1, 0, 0])

    def test_bitwise(self):
        a, b = np.array([0b1100]), np.array([0b1010])
        assert BAND.fn(a, b)[0] == 0b1000
        assert BOR.fn(a, b)[0] == 0b1110
        assert BXOR.fn(a, b)[0] == 0b0110


class TestValidation:
    def test_min_on_complex_rejected(self):
        with pytest.raises(MPIOpError):
            MIN.validate(dt.DOUBLE_COMPLEX)

    def test_sum_on_complex_allowed(self):
        SUM.validate(dt.DOUBLE_COMPLEX)

    def test_bitwise_on_float_rejected(self):
        with pytest.raises(MPIOpError):
            BAND.validate(dt.FLOAT)

    def test_bitwise_on_int_allowed(self):
        BXOR.validate(dt.INT32)

    def test_sum_on_logical_rejected(self):
        with pytest.raises(MPIOpError):
            SUM.validate(dt.BOOL)

    def test_user_op_takes_anything(self):
        op = user_op(lambda a, b: a + b)
        op.validate(dt.DOUBLE_COMPLEX)
        op.validate(dt.BOOL)


class TestUserOp:
    def test_not_predefined(self):
        assert not user_op(lambda a, b: a).predefined

    def test_commutativity_flag(self):
        assert not user_op(lambda a, b: a, commutative=False).commutative

    def test_registry(self):
        assert PREDEFINED_OPS["MPI_SUM"] is SUM
        assert len(PREDEFINED_OPS) == 10
