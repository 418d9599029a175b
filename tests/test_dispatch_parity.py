"""Dispatch-pipeline parity: every collective, backend, and option combo.

The staged pipeline (`repro.core.dispatch`) replaced the hand-written
per-collective method triplets; these tests pin the refactor's
contract:

* all 12 collectives × {NCCL, RCCL, HCCL, MSCCL} produce payloads AND
  virtual times bit-identical to the frozen reference — what the
  direct, unoptimized path (uncached, unfused, copying) computed at the
  last commit that had one (``tests/frozen_reference.py``) — with the
  four run options all off and all on;
* the MPI-algorithm fallback route (PURE_MPI mode) holds the same
  invariant;
* the §3.2 capability checks live in exactly one place
  (``CollectivePipeline.capability``) and still produce the paper's
  fallbacks: HCCL is float-only, no CCL does double-complex;
* the ``hier_pipe`` option is provably inert on one node (payloads
  and times), changes only *times* across nodes, and gives the same
  times in every fresh engine there.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools

import numpy as np
import pytest

from repro import fastpath
from repro.core import DispatchMode, runtime
from repro.core.dispatch import REGISTRY, CollectivePipeline, CollectiveSpec
from repro.core.fallback import FallbackReason, Route
from repro.mpi.coll import MPICollDispatcher
from repro.mpi.ops import SUM
from tests import frozen_reference
from tests.test_zero_copy import _program_body_factory, _random_program

#: (system, backend, ranks) — one per CCL the paper ports.  Single-node,
#: so no wire is contended and virtual times are equal *across* option
#: arms, not just run to run.
STACKS = [
    ("thetagpu", None, 4),      # NCCL
    ("mri", None, 2),           # RCCL
    ("voyager", None, 4),       # HCCL
    ("thetagpu", "msccl", 4),   # MSCCL
]

#: the four run options: 2^4 = 16 combinations.
ALL_GATES = frozen_reference.OPTIONS

N = 13  # odd per-rank count exercises uneven chunk geometry


def _vec_geometry(p):
    counts = [r + 1 for r in range(p)]
    displs = [sum(counts[:r]) for r in range(p)]
    return counts, displs


def _twelve_collectives_body(mpx):
    """Run all 12 registry collectives once; record payload bytes and
    the virtual clock after each."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, rank = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    base = np.arange(N * p, dtype=np.float32) + rank
    send = ctx.device.zeros(N * p, dtype=np.float32)
    send.array[:] = base
    recv = ctx.device.zeros(N * p, dtype=np.float32)

    comm.Allreduce(send.view(0, N), recv.view(0, N), SUM)
    snap(recv)
    comm.Bcast(recv.view(0, N), root=0)
    snap(recv)
    comm.Reduce(send.view(0, N), recv.view(0, N), SUM, 0)
    snap(recv)
    comm.Allgather(send.view(0, N), recv.view(0, N * p))
    snap(recv)
    comm.Alltoall(send, recv)
    snap(recv)
    comm.Reduce_scatter_block(send, recv.view(0, N), SUM)
    snap(recv)
    comm.Gather(send.view(0, N), recv.view(0, N * p), root=0)
    snap(recv)
    comm.Scatter(send, recv.view(0, N), root=0)
    snap(recv)

    counts, displs = _vec_geometry(p)
    total = sum(counts)
    vsend = ctx.device.zeros(counts[rank], dtype=np.float32)
    vsend.array[:] = rank * 10.0 + np.arange(counts[rank])
    vrecv = ctx.device.zeros(total, dtype=np.float32)
    comm.Allgatherv(vsend, vrecv, counts)
    snap(vrecv)
    comm.Gatherv(vsend, vrecv, counts, root=0)
    snap(vrecv)
    vroot = ctx.device.zeros(total, dtype=np.float32)
    vroot.array[:] = np.arange(total, dtype=np.float32)
    comm.Scatterv(vroot, counts, vrecv.view(0, counts[rank]), root=0)
    snap(vrecv)

    a2a_counts = [((rank + r) % 3) + 1 for r in range(p)]
    a2a_displs = [sum(a2a_counts[:r]) for r in range(p)]
    asend = ctx.device.zeros(sum(a2a_counts), dtype=np.float32)
    asend.array[:] = rank * 100.0 + np.arange(sum(a2a_counts))
    arecv = ctx.device.zeros(sum(a2a_counts), dtype=np.float32)
    comm.Alltoallv(asend, a2a_counts, arecv, a2a_counts)
    snap(arecv)

    return log


def _run_under_gates(combo):
    """The twelve collectives on one 4-rank thetagpu node, hybrid
    dispatch, with the four options set to ``combo`` (:data:`ALL_GATES`
    order)."""
    return runtime.run(_twelve_collectives_body, system="thetagpu",
                       nodes=1, ranks_per_node=4,
                       **dict(zip(ALL_GATES, combo)))


def _assert_bit_identical(baseline, candidate, combo, nranks):
    assert len(baseline) == len(candidate) == nranks
    for rank, (a, b) in enumerate(zip(baseline, candidate)):
        assert len(a) == len(b) == 12
        for i, ((data_a, t_a), (data_b, t_b)) in enumerate(zip(a, b)):
            assert data_a == data_b, \
                f"gates={combo}: rank {rank} payload {i} differs"
            assert t_a == t_b, \
                f"gates={combo}: rank {rank} clock after op {i} differs"


def test_registry_covers_all_twelve():
    """The dispatch registry is exactly the 12 routed collectives."""
    assert sorted(REGISTRY) == sorted([
        "allgather", "allgatherv", "allreduce", "alltoall", "alltoallv",
        "bcast", "gather", "gatherv", "reduce", "reduce_scatter_block",
        "scatter", "scatterv"])
    for name, spec in REGISTRY.items():
        assert spec.name == name
        assert callable(spec.ccl)
    # the MPI leg is the descriptor handed to MPICollDispatcher: no
    # executor field, one method per collective defined by that class
    # itself (the end-to-end benchmark's span table wraps them by name)
    assert "mpi" not in {f.name for f in dataclasses.fields(CollectiveSpec)}
    for name in sorted(REGISTRY) + ["barrier"]:
        assert inspect.isfunction(MPICollDispatcher.__dict__.get(name)), name


@pytest.mark.parametrize("system,backend,nranks", STACKS,
                         ids=[f"{s}-{b or 'native'}" for s, b, _ in STACKS])
def test_all_collectives_all_gates_bit_identical_ccl(system, backend, nranks):
    """12 collectives through the CCL route: payloads and virtual times
    bit-identical to the frozen reference (the pre-refactor direct
    path) with the options all off and all on."""
    frozen_reference.assert_matches_all_gates(
        f"twelve:{system}-{backend or 'native'}:pure_xccl",
        lambda **options: runtime.run(
            _twelve_collectives_body, system=system, nodes=1,
            ranks_per_node=nranks, backend=backend,
            mode=DispatchMode.PURE_XCCL, **options))


def test_all_collectives_all_gates_bit_identical_mpi_fallback():
    """The same invariant on the MPI-algorithm fallback route."""
    frozen_reference.assert_matches_all_gates(
        "twelve:thetagpu-native:pure_mpi",
        lambda **options: runtime.run(
            _twelve_collectives_body, system="thetagpu", nodes=1,
            ranks_per_node=4, mode=DispatchMode.PURE_MPI, **options))


def test_ccl_and_mpi_routes_agree_on_payloads():
    """Both execute routes compute the same collectives — two
    independent implementations, each the other's oracle: payload
    bytes (not times) must agree between PURE_XCCL and PURE_MPI, on
    the twelve collectives and on the randomized programs."""
    for name, body in [
            ("twelve", _twelve_collectives_body),
            ("random-7", _program_body_factory(_random_program(7))),
            ("random-23", _program_body_factory(_random_program(23)))]:
        xccl = runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=4, mode=DispatchMode.PURE_XCCL)
        mpi = runtime.run(body, system="thetagpu", nodes=1,
                          ranks_per_node=4, mode=DispatchMode.PURE_MPI)
        for rank, (a, b) in enumerate(zip(xccl, mpi)):
            for i, ((data_a, _), (data_b, _)) in enumerate(zip(a, b)):
                assert data_a == data_b, \
                    f"{name}: rank {rank} payload {i} differs"


class TestCapabilityChecksInOnePlace:
    """§3.2 regressions: the datatype/op gate is asserted once, in
    ``CollectivePipeline.capability``, for every backend."""

    @pytest.mark.parametrize("system,backend", [
        ("thetagpu", None),     # NCCL
        ("mri", None),          # RCCL
        ("voyager", None),      # HCCL
        ("thetagpu", "msccl"),  # MSCCL
    ], ids=["nccl", "rccl", "hccl", "msccl"])
    def test_double_complex_falls_back_everywhere(self, system, backend):
        """No CCL has complex support: DOUBLE_COMPLEX must fall back on
        every backend (heFFTe's case in the paper)."""
        from repro.mpi.datatypes import DOUBLE_COMPLEX

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(8, dtype=np.complex128)
            d = comm.coll.decide(comm, "allreduce", 4 << 20, DOUBLE_COMPLEX,
                                 SUM, buf)
            return (d.route, d.reason)

        out = runtime.run(body, system=system, nodes=1, ranks_per_node=2,
                          backend=backend)[0]
        assert out == (Route.MPI, FallbackReason.DATATYPE)

    def test_hccl_is_float_only(self):
        """HCCL supports only float32 (paper §3.2): float64 falls back
        on HCCL but stays on the CCL route for the NCCL family."""
        from repro.mpi.datatypes import DOUBLE

        def body(mpx):
            comm = mpx.COMM_WORLD
            buf = mpx.device_array(8, dtype=np.float64)
            d = comm.coll.decide(comm, "allreduce", 4 << 20, DOUBLE, SUM, buf)
            return (d.route, d.reason)

        hccl = runtime.run(body, system="voyager", nodes=1,
                           ranks_per_node=2)[0]
        assert hccl == (Route.MPI, FallbackReason.DATATYPE)
        nccl = runtime.run(body, system="thetagpu", nodes=1,
                           ranks_per_node=2)[0]
        assert nccl == (Route.XCCL, FallbackReason.NONE)

    def test_fallback_still_computes_correctly(self):
        """A capability fallback runs the MPI algorithms and produces
        the right numbers (silent fallback, §1.2 advantage 3)."""
        def body(mpx):
            comm = mpx.COMM_WORLD
            z = mpx.device_array(64, dtype=np.complex128, fill=1 + 1j)
            out = mpx.device_array(64, dtype=np.complex128)
            comm.Allreduce(z, out, SUM)
            return (out.array[0], mpx.route_stats.total_fallbacks)

        value, fallbacks = runtime.run(body, system="voyager", nodes=1,
                                       ranks_per_node=4)[0]
        assert value == 4 * (1 + 1j)
        assert fallbacks == 1

    def test_capability_is_the_single_choke_point(self):
        """Structural pin: the capability questions (a descriptor's
        ``allows_*``) are asked on the routing path only in
        ``CollectivePipeline.capability``, and nothing restates them —
        neither the layer nor a backend has a ``supports_*`` of its
        own."""
        from repro.core import abstraction, dispatch
        from repro.xccl.backend import CCLBackend
        cap = inspect.getsource(CollectivePipeline.capability)
        whole = inspect.getsource(dispatch)
        for name in ("allows_datatype", "allows_op"):
            assert f".{name}(" in cap
            assert whole.count(name) == cap.count(name), \
                f"{name} is consulted outside capability()"
            assert f"{name}(" not in inspect.getsource(abstraction)
        for cls in (abstraction.XCCLAbstractionLayer, CCLBackend):
            assert not [n for n in dir(cls) if n.startswith("supports_")]


def test_dispatch_stage_counters():
    """The execute stage reports route decisions into fastpath.STATS."""
    def body(mpx):
        comm = mpx.COMM_WORLD
        # filled: ``device_array`` is ``empty`` without ``fill=``, and a
        # reduction over recycled memory can warn about invalid values
        small = mpx.device_array(16, fill=1.0)
        big = mpx.device_array(1 << 20, fill=1.0)
        comm.Allreduce(small, mpx.device_array(16), SUM)     # mpi (tuning)
        comm.Allreduce(big, mpx.device_array(1 << 20), SUM)  # xccl
        z = mpx.device_array(16, dtype=np.complex128, fill=1.0)
        comm.Allreduce(z, mpx.device_array(16, dtype=np.complex128),
                       SUM)                                  # mpi (datatype)
        return True

    runtime.run(body, system="thetagpu", nodes=1, ranks_per_node=4)
    snap = fastpath.snapshot()
    assert set(snap) == {"counters"}
    counters = snap["counters"]
    assert counters["dispatch_calls"] == 3 * 4
    assert counters["route_xccl"] == 4
    assert counters["route_mpi"] == 2 * 4
    assert counters["route_fallbacks"] == 4
    assert counters["ccl_errors"] == 0


#: the four uniform collectives the hierarchy executor covers, at a
#: payload at the reduction-collective routing crossover (2 MiB);
#: bcast's higher crossover keeps it on the flat route here, which the
#: parity pins cover too — the route stage must decline identically on
#: every rank
HIER_N = (2 << 20) // 4


def _hier_collectives_body(mpx):
    """The four hierarchy-eligible collectives at an inter-node payload
    size; returns (payload bytes, virtual clock) after each."""
    comm = mpx.COMM_WORLD
    ctx = comm.ctx
    p, rank = comm.size, comm.rank
    log = []

    def snap(buf):
        log.append((buf.array.tobytes(), ctx.now))

    rng = np.random.default_rng(41 + rank)
    send = mpx.device_array(HIER_N)
    send.array[:] = rng.integers(0, 5, HIER_N)  # exact under reassociation
    recv = mpx.device_array(HIER_N, fill=0.0)
    comm.Allreduce(send, recv, SUM)
    snap(recv)
    buf = mpx.device_array(HIER_N, fill=0.0)
    if rank == 1:
        buf.array[:] = rng.integers(0, 5, HIER_N)
    comm.Bcast(buf, root=1)
    snap(buf)
    ag = mpx.device_array(HIER_N * p, fill=0.0)
    comm.Allgather(send, ag)
    snap(ag)
    rs_in = mpx.device_array(HIER_N * p)
    rs_in.array[:] = rng.integers(0, 5, HIER_N * p)
    rs_out = mpx.device_array(HIER_N, fill=0.0)
    comm.Reduce_scatter_block(rs_in, rs_out, SUM)
    snap(rs_out)
    return log


def _run_hier(hier):
    from repro.hw.systems import make_system
    cluster = make_system("thetagpu", 2, nics=4)
    out = runtime.run(_hier_collectives_body, system=cluster,
                      nranks=8, ranks_per_node=4, hier_pipe=hier)
    return out, fastpath.STATS.snapshot()


def test_hier_gate_inert_single_node():
    """On one node ``hier_pipe`` must be provably inert: payloads AND
    virtual times bit-identical to the option-off run, and the
    hierarchical route never taken."""
    off = (False,) * len(ALL_GATES)
    hier = tuple(name == "hier_pipe" for name in ALL_GATES)
    baseline = _run_under_gates(off)
    candidate = _run_under_gates(hier)
    assert fastpath.STATS.snapshot()["route_hier"] == 0
    _assert_bit_identical(baseline, candidate, "hier_pipe", 4)


def test_hier_multi_node_payload_parity():
    """Across nodes the hierarchy route must change *times only*:
    payloads stay bit-identical to the flat route, and the route
    counters prove the hierarchy actually ran."""
    off, snap_off = _run_hier(hier=False)
    on, snap_on = _run_hier(hier=True)
    assert snap_off["route_hier"] == 0
    assert snap_on["route_hier"] > 0
    assert snap_on["hier_stripe_ops"] > 0
    for rank, (a, b) in enumerate(zip(off, on)):
        for i, ((data_a, _), (data_b, _)) in enumerate(zip(a, b)):
            assert data_a == data_b, \
                f"hier: rank {rank} payload {i} differs from flat"


def test_hier_multi_node_reproducible():
    """With ``hier_pipe`` on, two fresh multi-node engines agree to the
    bit — payloads and virtual times."""
    first, _ = _run_hier(hier=True)
    second, _ = _run_hier(hier=True)
    for rank, (a, b) in enumerate(zip(first, second)):
        for i, ((da, ta), (db, tb)) in enumerate(zip(a, b)):
            assert da == db, f"rank {rank} payload {i} differs"
            assert ta == tb, f"rank {rank} clock after op {i} differs"


def _assert_all_gate_parity(combos):
    """Every combo of :data:`ALL_GATES` reproduces the all-off run of
    the single-node hybrid job."""
    baseline = _run_under_gates((False,) * len(ALL_GATES))
    for combo in combos:
        candidate = _run_under_gates(combo)
        _assert_bit_identical(baseline, candidate,
                              dict(zip(ALL_GATES, combo)), 4)


def test_new_gates_inert_fast():
    """Fast leg of the matrix: the online tuner (below its warm-up —
    each collective runs once per size here) and tracing (observation
    only) must be provably inert, alone and together.  Payloads AND
    virtual times."""
    _assert_all_gate_parity([
        (trace, False, False, tune)
        for trace in (False, True)
        for tune in (False, True)])


def test_all_four_options_bit_identical_full():
    """The full 2^4 matrix (the 15 combinations with an option on):
    every combination of the four run options produces payloads and
    virtual times bit-identical to the all-off run on a single-node
    hybrid job.  Every option is either observational (trace) or inert
    off its trigger (hier_pipe: one node; hetero: one vendor; online
    tuner: below warm-up) — so the whole product is inert."""
    _assert_all_gate_parity(
        [c for c in itertools.product([False, True], repeat=len(ALL_GATES))
         if any(c)])


def test_configure_restores():
    """There is nothing to configure and nothing to restore: options
    belong to one engine and do not outlive it, explicit arguments beat
    the environment, and a retired or unknown name is a ``TypeError``
    like any unexpected keyword."""
    from repro.hw.systems import make_system
    from repro.sim.engine import Engine
    cluster = make_system("thetagpu", 1)
    on = Engine(cluster, nranks=2, **dict.fromkeys(ALL_GATES, True))
    assert on.options == dict.fromkeys(ALL_GATES, True)
    off = Engine(cluster, nranks=2, **dict.fromkeys(ALL_GATES, False))
    assert off.options == dict.fromkeys(ALL_GATES, False)
    assert off.online_tuner is None and on.online_tuner is not None
    assert on.options == dict.fromkeys(ALL_GATES, True)  # untouched
    with pytest.raises(TypeError):
        on.options["hier_pipe"] = False  # read-only for the engine's life
    for retired in ("elastic", "coop_sched", "plan_cache", "group_fusion",
                    "zero_copy"):
        with pytest.raises(TypeError):
            Engine(cluster, nranks=2, **{retired: False})
