"""Dispatch-pipeline parity: every collective, backend, and option combo.

The staged pipeline (`repro.core.dispatch`) replaced the hand-written
per-collective method triplets; these tests pin the refactor's
contract:

* all 12 collectives × {NCCL, RCCL, HCCL, MSCCL}, and the MPI-algorithm
  fallback route (PURE_MPI mode), reproduce the frozen reference with
  the two run options all off and all on — cases of the conformance
  suite (``tests/test_conformance.py``), checked here by name;
* the §3.2 capability checks live in exactly one place
  (``CollectivePipeline.capability``) and still produce the paper's
  fallbacks: HCCL is float-only, no CCL does double-complex;
* a table's ``hier`` rows are inert below their threshold and degrade
  to the flat CCL route on one node, change only *times* across nodes,
  and give the same times in every fresh engine there.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro import fastpath
from repro.core import runtime
from repro.core.dispatch import REGISTRY, CollectivePipeline, CollectiveSpec
from repro.core.fallback import FallbackReason, Route
from repro.core.plan import PlanCache
from repro.hw.systems import make_system
from repro.mpi.coll import MPICollDispatcher
from repro.mpi.ops import SUM
from tests import frozen_reference
from tests.test_conformance import (ALL_ON, MATRIX, REAL, STACKS, TRACED,
                                    conforms, conforms_as_variant,
                                    launch, oracle_conforms, summarize)
from tools.site_tables import HIER_FROM, hier_table

ALL_GATES = frozen_reference.OPTIONS
#: the hybrid single-node program the option matrix runs on
HYBRID = "plan_cache:thetagpu-native"


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
    # itself; the pipeline's stages stay class attributes too (the
    # end-to-end benchmark's span table wraps them by name)
    assert "mpi" not in {f.name for f in dataclasses.fields(CollectiveSpec)}
    for name in sorted(REGISTRY) + ["barrier"]:
        assert inspect.isfunction(MPICollDispatcher.__dict__.get(name)), name
    for stage in ("run", "decide", "execute"):
        assert inspect.isfunction(CollectivePipeline.__dict__.get(stage)), \
            stage
    assert inspect.isfunction(PlanCache.__dict__.get("lookup"))


@pytest.mark.parametrize("stack", list(STACKS))
def test_all_collectives_all_gates_bit_identical_ccl(stack):
    """12 collectives through the CCL route equal the frozen reference,
    options all off and all on."""
    for arm in (REAL, ALL_ON):
        conforms(f"twelve:{stack}:pure_xccl", arm)


def test_all_collectives_all_gates_bit_identical_mpi_fallback():
    """The same invariant on the MPI-algorithm fallback route."""
    for arm in (REAL, ALL_ON):
        conforms("twelve:thetagpu-native:pure_mpi", arm)


def test_ccl_and_mpi_routes_agree_on_payloads():
    """The CCL route's frozen payloads are the ``pure_mpi`` run's."""
    for key in ("twelve:thetagpu-native:pure_xccl", "random:7", "random:23"):
        oracle_conforms(key)


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


def test_hier_gate_inert_single_node():
    """On one node a table's ``hier`` rows never take the hierarchy:
    below their threshold the program runs on the shape's own rows,
    and above it the row degrades to the flat CCL route."""
    got = conforms(HYBRID)

    def hier_rows(start):
        return hier_table(make_system("thetagpu", 1), 4,
                          from_bytes=dict.fromkeys(HIER_FROM, start))

    below = summarize(*launch(HYBRID, table=hier_rows(2 << 20)))
    assert below == got
    above = summarize(*launch(HYBRID, table=hier_rows(0)))
    assert above.digests == got.digests
    assert above.counters["route_hier"] == 0
    assert above.counters["route_xccl"] > got.counters["route_xccl"]


def test_hier_multi_node_payload_parity():
    """Across nodes the hierarchy changes times only: its payloads are
    the closed form's; it ran; the flat route never takes it."""
    oracle_conforms("hier:aligned")
    got = conforms("hier:aligned")
    assert got.counters["route_hier"] > 0
    assert got.counters["hier_stripe_ops"] > 0
    flat = conforms_as_variant("hetero:nvidia:2,amd:2", "homogeneous")
    assert flat.counters["route_hier"] == 0


def test_hier_multi_node_reproducible():
    """Two fresh multi-node engines on the ``hier`` table give the
    frozen run."""
    conforms("hier:aligned", REAL)
    conforms("hier:aligned", TRACED)


def test_new_gates_inert_fast():
    """The online tuner (below its warm-up) and tracing are inert, alone
    and together."""
    for arm in MATRIX:
        if arm.on <= {"trace", "online_tune"}:
            conforms(HYBRID, arm)


def test_all_four_options_bit_identical_full():
    """Every combination of the two options and the two site tables
    reproduces the frozen single-node hybrid run: each is observational
    (trace) or inert off its trigger (the tuner's warm-up, a second
    node for ``hier`` rows, a second vendor for ``bridge`` rows, where
    the program's calls ran the MPI algorithms already)."""
    for arm in MATRIX:
        conforms(HYBRID, arm)


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
        on.options["trace"] = False  # read-only for the engine's life
    for retired in ("elastic", "coop_sched", "plan_cache", "group_fusion",
                    "zero_copy"):
        with pytest.raises(TypeError):
            Engine(cluster, nranks=2, **{retired: False})
