"""Tuning tables: offline tuner, lookup, serialization."""

import pytest

from repro.core.tuning_table import (
    TUNABLE_COLLECTIVES,
    TuningTable,
    cached_table,
    tune_offline,
    with_route,
)
from repro.errors import TuningTableError
from repro.hw.systems import make_system
from repro.mpi.config import mvapich_gpu
from repro.perfmodel import ccl_params
from repro.perfmodel.shape import shape_of

KIB = 1024


def first_xccl(table, coll):
    """The first byte count ``table`` routes ``coll`` to xccl (None if
    never)."""
    prev_max = 0
    for max_bytes, route in table.entries[coll]:
        if route == "xccl":
            return prev_max + 1
        prev_max = max_bytes
    return None


@pytest.fixture
def nccl_table():
    cluster = make_system("thetagpu", 1)
    shape = shape_of(cluster, range(8))
    return tune_offline(shape, ccl_params("nccl"), mvapich_gpu())


class TestTuner:
    def test_all_collectives_tuned(self, nccl_table):
        assert set(nccl_table.entries) == set(TUNABLE_COLLECTIVES)

    def test_mpi_wins_small_allreduce(self, nccl_table):
        assert nccl_table.choose("allreduce", 64) == "mpi"

    def test_ccl_wins_large_allreduce(self, nccl_table):
        assert nccl_table.choose("allreduce", 4 << 20) == "xccl"

    def test_crossover_monotone(self, nccl_table):
        """Once the CCL wins, it keeps winning (per compressed runs)."""
        routes = [nccl_table.choose("allreduce", 1 << k) for k in range(2, 23)]
        if "xccl" in routes:
            first = routes.index("xccl")
            assert all(r == "xccl" for r in routes[first:])

    def test_crossover_reported(self, nccl_table):
        x = first_xccl(nccl_table, "allreduce")
        assert x is not None
        assert 4 * KIB <= x <= 256 * KIB  # paper ballpark: ~16 KB

    def test_hccl_crossover_higher_than_nccl(self):
        """The 270 us HCCL launch floor pushes its crossover far right."""
        theta = shape_of(make_system("thetagpu", 2), range(16))
        voy = shape_of(make_system("voyager", 2), range(16))
        t_n = tune_offline(theta, ccl_params("nccl"), mvapich_gpu())
        t_h = tune_offline(voy, ccl_params("hccl"), mvapich_gpu())
        xn = first_xccl(t_n, "allreduce") or 1 << 40
        xh = first_xccl(t_h, "allreduce") or 1 << 40
        assert xh > xn


class TestLookup:
    def test_unknown_collective(self, nccl_table):
        with pytest.raises(TuningTableError):
            nccl_table.choose("scan", 64)

    def test_malformed_thresholds(self):
        t = TuningTable("nccl", ("x",), entries={"allreduce": [(10, "mpi")]})
        with pytest.raises(TuningTableError):
            t.choose("allreduce", 100)  # no unbounded terminal entry

    def test_crossover_none_when_mpi_always(self):
        t = TuningTable("nccl", ("x",), entries={"bcast": [(-1, "mpi")]})
        assert first_xccl(t, "bcast") is None


class TestSerialization:
    def test_roundtrip(self, nccl_table):
        restored = TuningTable.from_json(nccl_table.to_json())
        assert restored.backend == nccl_table.backend
        assert restored.entries == nccl_table.entries
        assert restored.shape_key == nccl_table.shape_key

    def test_from_dict_malformed(self):
        with pytest.raises(TuningTableError):
            TuningTable.from_dict({"backend": "x"})

    @staticmethod
    def _load(rows):
        return TuningTable.from_dict({"backend": "nccl", "shape_key": [8],
                                      "entries": {"allreduce": rows}})

    def test_from_dict_rejects_an_unknown_route(self):
        with pytest.raises(TuningTableError, match="allreduce.*'xcl'"):
            self._load([[1024, "mpi"], [-1, "xcl"]])

    def test_from_dict_rejects_descending_bounds(self):
        with pytest.raises(TuningTableError, match="allreduce.*ascend"):
            self._load([[4096, "xccl"], [1024, "mpi"], [-1, "mpi"]])

    def test_from_dict_rejects_rows_without_the_open_row(self):
        with pytest.raises(TuningTableError, match="allreduce.*-1"):
            self._load([[1024, "mpi"], [4096, "xccl"]])
        with pytest.raises(TuningTableError, match="allreduce.*-1"):
            self._load([[-1, "mpi"], [4096, "xccl"], [-1, "mpi"]])
        with pytest.raises(TuningTableError, match="allreduce.*-1"):
            self._load([])

    def test_from_dict_takes_every_route(self):
        rows = [[64, "mpi"], [4096, "xccl"], [1 << 20, "bridge"],
                [-1, "hier"]]
        table = self._load(rows)
        assert table.choose("allreduce", 1 << 20) == "bridge"
        assert table.describe("allreduce") == \
            "<= 64 mpi, <= 4K xccl, <= 1M bridge, above hier"


class TestSiteRows:
    def test_with_route_splices_above_the_threshold(self, nccl_table):
        """Rows below the threshold are the table's, cut at it; the
        rest is the new route; other collectives keep theirs."""
        base = TuningTable("nccl", ("x",), entries={
            "allreduce": [(8 * KIB, "mpi"), (-1, "xccl")],
            "bcast": [(-1, "mpi")]})
        hier = with_route(base, "hier", {"allreduce": 2 << 20})
        assert hier.entries == {
            "allreduce": [(8 * KIB, "mpi"), ((2 << 20) - 1, "xccl"),
                          (-1, "hier")],
            "bcast": [(-1, "mpi")]}
        assert hier.describe("allreduce") == "<= 8K mpi, < 2M xccl, above hier"
        low = with_route(base, "hier", {"allreduce": 4 * KIB})
        assert low.entries["allreduce"] == [(4 * KIB - 1, "mpi"),
                                            (-1, "hier")]
        assert with_route(base, "bridge", {"allreduce": 0}).entries[
            "allreduce"] == [(-1, "bridge")]
        assert base.entries["allreduce"] == [(8 * KIB, "mpi"), (-1, "xccl")]
        table = with_route(nccl_table, "hier", {"allreduce": 1 << 20})
        assert TuningTable.from_json(table.to_json()) == table


class TestCache:
    def test_cached_identity(self):
        cluster = make_system("thetagpu", 1)
        shape = shape_of(cluster, range(8))
        a = cached_table(shape, ccl_params("nccl"), mvapich_gpu())
        b = cached_table(shape, ccl_params("nccl"), mvapich_gpu())
        assert a is b

    def test_cache_keys_differ_by_backend(self):
        cluster = make_system("thetagpu", 1)
        shape = shape_of(cluster, range(8))
        a = cached_table(shape, ccl_params("nccl"), mvapich_gpu())
        b = cached_table(shape, ccl_params("msccl"), mvapich_gpu())
        assert a is not b
