"""Property-based invariants on core data structures (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tuning_table import _compress, tune_offline
from repro.hw.systems import make_system
from repro.mpi.config import mvapich_gpu
from repro.perfmodel import ccl_params
from repro.perfmodel.shape import shape_of
from repro.sim.wire import WireTracker
from repro.util.records import ResultRecord, ResultSet
from tests.test_core_tuning_table import first_xccl

SETTINGS = dict(max_examples=40, deadline=None)


class TestWireTrackerProperties:
    @settings(**SETTINGS)
    @given(st.lists(st.tuples(
        st.floats(0, 1e4),          # depart
        st.integers(0, 1 << 20),    # nbytes
        st.floats(0, 10),           # alpha
    ), min_size=1, max_size=30))
    def test_arrival_never_before_physics(self, transfers):
        """arrival >= depart + wire + alpha for every booking."""
        w = WireTracker()
        beta = 1000.0
        for depart, nbytes, alpha in transfers:
            arrival = w.book([("l", "fwd")], depart, nbytes, beta, alpha)
            assert arrival >= depart + nbytes / beta + alpha - 1e-9

    @settings(**SETTINGS)
    @given(st.lists(st.integers(1, 1 << 16), min_size=1, max_size=40))
    def test_serialization_conserves_wire_time(self, sizes):
        """Back-to-back transfers occupy exactly sum(nbytes)/beta."""
        w = WireTracker()
        beta = 500.0
        last = 0.0
        for n in sizes:
            last = w.book([("l", "fwd")], 0.0, n, beta, 0.0)
        assert last == pytest.approx(sum(sizes) / beta)

    @settings(**SETTINGS)
    @given(st.lists(st.integers(1, 1 << 16), min_size=2, max_size=20))
    def test_disjoint_resources_independent(self, sizes):
        w = WireTracker()
        arrivals = [w.book([(f"l{i}", "fwd")], 0.0, n, 100.0, 0.0)
                    for i, n in enumerate(sizes)]
        for n, arrival in zip(sizes, arrivals):
            assert arrival == pytest.approx(n / 100.0)


#: a few directed resources, so drawn batches repeat them
_RESOURCES = [("a", "fwd"), ("b", "fwd"), ("nic", 0, "out"),
              ("nic", 1, "in")]

#: one booking: no resource (a local copy), or some distinct ones;
#: zero beta (no wire time) drawn often
_BOOKING = st.tuples(
    st.lists(st.sampled_from(_RESOURCES), max_size=3, unique=True),
    st.floats(0, 1e3),                      # depart
    st.integers(0, 1 << 20),                # nbytes
    st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),     # beta
    st.floats(0, 10),                       # alpha
)


class TestBookManyProperties:
    @settings(**SETTINGS)
    @given(prior=st.lists(_BOOKING, max_size=4),
           batch=st.lists(_BOOKING, max_size=30))
    def test_book_many_is_book_element_wise(self, prior, batch):
        """On wires some earlier bookings already occupy, ``book_many``
        gives the arrivals of ``book`` called element by element —
        exact floats — and leaves the same ``free_at`` everywhere."""
        many, each = WireTracker(), WireTracker()
        for booking in prior:
            many.book(*booking)
            each.book(*booking)
        assert many.book_many(batch) == [each.book(*b) for b in batch]
        assert [many.free_at(r) for r in _RESOURCES] \
            == [each.free_at(r) for r in _RESOURCES]


class TestTuningTableProperties:
    @settings(**SETTINGS)
    @given(st.lists(st.sampled_from(["mpi", "xccl"]), min_size=1,
                    max_size=30))
    def test_compress_preserves_choice_sequence(self, routes):
        sizes = [4 * (2 ** i) for i in range(len(routes))]
        compressed = _compress(list(zip(sizes, routes)))
        # terminal entry is unbounded
        assert compressed[-1][0] == -1
        # lookup reproduces the original winner at every point

        def lookup(nbytes):
            for max_bytes, route in compressed:
                if max_bytes < 0 or nbytes <= max_bytes:
                    return route
            raise AssertionError

        for size, route in zip(sizes, routes):
            assert lookup(size) == route

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(["nccl", "rccl", "hccl", "msccl"]),
           st.floats(1.0, 3.0))
    def test_hysteresis_monotone(self, backend, hysteresis):
        """More hysteresis can only delay (never advance) the xccl
        crossover."""
        system = {"nccl": "thetagpu", "msccl": "thetagpu",
                  "rccl": "mri", "hccl": "voyager"}[backend]
        shape = shape_of(make_system(system, 2),
                         range(make_system(system, 2).device_count))
        plain = tune_offline(shape, ccl_params(backend), mvapich_gpu())
        biased = tune_offline(shape, ccl_params(backend), mvapich_gpu(),
                              hysteresis=hysteresis)
        for coll in plain.entries:
            a = first_xccl(plain, coll) or float("inf")
            b = first_xccl(biased, coll) or float("inf")
            assert b >= a


class TestResultSetProperties:
    @settings(**SETTINGS)
    @given(st.lists(st.tuples(st.integers(0, 20), st.floats(0.1, 100)),
                    min_size=1, max_size=40, unique_by=lambda t: t[0]))
    def test_crossover_is_first_win(self, points):
        rs = ResultSet()
        for x, v in points:
            rs.add(ResultRecord("e", "a", float(2 ** x), 10.0, "us"))
            rs.add(ResultRecord("e", "b", float(2 ** x), float(v), "us"))
        crossing = rs.crossover("a", "b")
        wins = sorted(2 ** x for x, v in points if v <= 10.0)
        if wins:
            assert crossing == wins[0]
        else:
            assert crossing is None


class TestVirtualTimeDeterminism:
    @settings(max_examples=6, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 4096))
    def test_identical_runs_identical_times(self, p, count):
        """The whole stack is deterministic: two separate engine runs
        of the same program produce bit-identical virtual times."""
        from repro.mpi import SUM, Communicator
        from repro.sim.engine import run_spmd

        cluster = make_system("thetagpu", 1)

        def body(ctx):
            comm = Communicator.world(ctx)
            s = ctx.device.zeros(count)
            r = ctx.device.zeros(count)
            comm.Allreduce(s, r, SUM)
            comm.Alltoall(ctx.device.zeros(count * comm.size),
                          ctx.device.zeros(count * comm.size), count=count)
            return ctx.now

        a = run_spmd(cluster, body, nranks=p)
        b = run_spmd(cluster, body, nranks=p)
        assert a == b
