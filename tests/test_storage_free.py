"""Virtual time never reads payload values: the frozen reference, replayed
storage-free.

Every case of ``tests/frozen_reference.py`` runs here with its own body
and options on a cluster built with ``payloads=False``, whose device
buffers are zero-stride views of one element (``repro.hw.memory``).
What a payload step would have computed is then undefined, so digests
are not compared; everything the simulated cluster *did* must be what
it did with real payloads:

* every clock ``==`` the frozen value (or its :data:`MOVED_DOWN` one);
* for the multi-level legs, the six route counters and the traced
  label census ``==`` :data:`FROZEN_SURFACE`;
* for the MPI point-to-point legs, all 29 counters ``==``
  :data:`FROZEN_COUNTERS` but the two copy counters: every view of one
  storage-free root shares its one element, so an alias check can force
  an (O(1)) snapshot that disjoint real windows would have elided.

A difference here is a data dependence of the timing path: fixed, or
refused with ``InvalidBufferError``.  A new route passes this replay
before anything runs storage-free on it.

The OMB sweeps that do run storage-free are then held to O(1) memory:
every stack and route at 16 to 64 MiB windows, under ``tracemalloc``.
A payload step that forgets its stride test copies or folds O(n)
bytes there — or raises, landing storage-free data in real scratch.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import fastpath
from repro.core import runtime
from repro.hw.systems import make_mixed_system, make_system
from repro.mpi.coll import levels
from repro.omb.collective import COLLECTIVE_BENCHMARKS
from repro.omb.harness import OMBConfig
from repro.omb.pt2pt import osu_bibw, osu_latency
from repro.omb.stacks import make_stack
from repro.sim.engine import Engine
from tests import (frozen_reference, test_dispatch_parity, test_group_fusion,
                   test_group_staging, test_hetero_bridge, test_hier_exec,
                   test_hierarchical, test_mpi_p2p, test_plan_cache,
                   test_zero_copy)

OFF = dict.fromkeys(frozen_reference.OPTIONS, False)
ON = dict.fromkeys(frozen_reference.OPTIONS, True)

#: single-node cases: family -> (body, mode, {stack: (system, backend,
#: ranks)}); each runs with its four options off (and ``twelve`` /
#: ``random``, whose references hold under all four on too, also on)
_STACKS = {f"{s}-{b or 'native'}": (s, b, n)
           for s, b, n in test_plan_cache.STACKS}
SINGLE_NODE = {
    "twelve": (test_dispatch_parity._twelve_collectives_body, None, _STACKS),
    "plan_cache": (test_plan_cache._collective_body, None, _STACKS),
    "group_fusion": (test_group_fusion._sendrecv_body, "pure_xccl", _STACKS),
    "zero_copy": (test_zero_copy._datapath_body, "pure_xccl", _STACKS),
}

#: the p2p legs' counters that aliasing may move (see the module doc)
COPY_COUNTERS = ("copies_elided", "copies_forced")


def _single_node(case):
    family, stack = case.split(":", 1)
    if family == "random":
        seed = int(stack)
        body = test_zero_copy._program_body_factory(
            test_zero_copy._random_program(seed))
        system, backend, nranks, mode = "thetagpu", None, 4, "pure_xccl"
        arms = (OFF, ON)
    else:
        body, mode, stacks = SINGLE_NODE[family]
        if family == "twelve":
            stack, mode = stack.rsplit(":", 1)
        system, backend, nranks = stacks[stack]
        arms = (OFF, ON) if family == "twelve" else (OFF,)
    for options in arms:
        yield runtime.run(body, system=make_system(system, payloads=False),
                          ranks_per_node=nranks, backend=backend, mode=mode,
                          **options)


def test_every_frozen_case_is_replayed():
    """The replay below covers the whole reference, family by family."""
    families = {case.split(":", 1)[0] for case in frozen_reference.FROZEN}
    assert families == set(SINGLE_NODE) | {
        "random", "multinode", "hier", "hetero", "legacy", "p2p"}


@pytest.mark.parametrize("case", sorted(
    c for c in frozen_reference.FROZEN
    if c.split(":", 1)[0] in set(SINGLE_NODE) | {"random"}))
def test_single_node_clocks(case):
    for result in _single_node(case):
        frozen_reference.assert_clocks(case, result, " (storage-free)")


@pytest.mark.parametrize("nodes", [2, 8])
def test_multinode_clocks(nodes):
    result = runtime.run(test_group_staging._multinode_body,
                         system=make_system("thetagpu", nodes, payloads=False),
                         ranks_per_node=8, mode="pure_xccl", **OFF)
    frozen_reference.assert_clocks(f"multinode:{nodes}x8", result)


def _assert_surface_case(case, logs, labels):
    """Clocks of ``logs`` (``[(data, clock)]`` per rank), then the
    run's route counters and traced labels."""
    frozen_reference.assert_clocks(case, logs)
    frozen_reference.assert_surface(case, fastpath.STATS.snapshot(), labels,
                                    traced=True)


def _named(out):
    """A multi-level body's ``(name, data, clock, routed)`` logs as
    ``[(data, clock)]``, and its labels."""
    return ([[(data, clock) for _, data, clock, _ in log] for log, _ in out],
            [labels for _, labels in out])


@pytest.mark.parametrize("shape", list(test_hier_exec.SHAPES))
def test_hier_clocks_and_surface(shape, monkeypatch):
    monkeypatch.setitem(levels.MIN_BYTES, "bcast", 2 << 20)
    nodes, nranks, rpn, nics = test_hier_exec.SHAPES[shape]
    out = runtime.run(test_hier_exec._collectives_body,
                      system=make_system("thetagpu", nodes, nics=nics,
                                         payloads=False),
                      nranks=nranks, ranks_per_node=rpn,
                      **dict(OFF, hier_pipe=True, trace=True))
    _assert_surface_case(f"hier:{shape}", *_named(out))


@pytest.mark.parametrize("vendors", list(test_hetero_bridge.FROZEN_SHAPES))
def test_hetero_clocks_and_surface(vendors):
    out = runtime.run(test_hetero_bridge._collectives_body,
                      system=make_mixed_system(vendors, payloads=False),
                      nranks=test_hetero_bridge.FROZEN_SHAPES[vendors],
                      ranks_per_node=2,
                      **dict(OFF, hetero=True, trace=True))
    _assert_surface_case(f"hetero:{vendors}", *_named(out))


@pytest.mark.parametrize("shape,nranks", [("2x8", 16), ("8+4", 12)])
def test_legacy_clocks_and_surface(shape, nranks):
    engine = Engine(make_system("thetagpu", 2, payloads=False), nranks=nranks,
                    **dict(OFF, trace=True))
    out = engine.run(test_hierarchical.TestFrozenReference._body)
    _assert_surface_case(f"legacy:{shape}", [log for log, _ in out],
                         [labels for _, labels in out])


@pytest.mark.parametrize("shape", sorted(test_mpi_p2p.P2P_SHAPES))
def test_p2p_clocks_and_counters(shape):
    nodes, rpn = test_mpi_p2p.P2P_SHAPES[shape]
    result = runtime.run(test_mpi_p2p._p2p_body,
                         system=make_system("thetagpu", nodes, payloads=False),
                         ranks_per_node=rpn, mode="pure_mpi", **OFF)
    frozen_reference.assert_clocks(f"p2p:{shape}", result)
    expect = frozen_reference.FROZEN_COUNTERS[f"p2p:{shape}"]
    got = fastpath.STATS.snapshot()
    assert {k: v for k, v in got.items() if k not in COPY_COUNTERS} == \
        {k: v for k, v in expect.items() if k not in COPY_COUNTERS}


def _thetagpu2(nics=None):
    return make_system("thetagpu", 2, nics=nics, payloads=False)


#: OMB sweeps as the storage-free drivers run them, at 16 MiB per
#: window: name -> (stack, cluster factory, ranks per node, run
#: options, benchmarks)
_COLLECTIVES = tuple(sorted(COLLECTIVE_BENCHMARKS))
_LEVELED = ("allreduce", "bcast", "allgather", "reduce_scatter")
OMB_SWEEPS = {
    **{stack: (stack, _thetagpu2, 8, {}, _COLLECTIVES)
       for stack in ("hybrid", "pure-xccl", "mpi", "openmpi", "ucc")},
    # the CCL APIs have no alltoallv, gather or scatter
    "ccl": ("ccl", _thetagpu2, 8, {},
            tuple(b for b in _COLLECTIVES
                  if b not in ("alltoallv", "gather", "scatter"))),
    "hier": ("hybrid", lambda: _thetagpu2(nics=4), 8, {"hier_pipe": True},
             _LEVELED),
    "bridge": ("hybrid",
               lambda: make_mixed_system("nvidia:2,amd:2", payloads=False),
               2, {"hetero": True}, _LEVELED),
}


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sweep", sorted(OMB_SWEEPS))
def test_omb_sweep_moves_no_payload_bytes(sweep):
    """Every payload step on the OMB paths is O(1) storage-free: 16 MiB
    windows a rank (a block per peer for the vector collectives) on 8
    to 16 ranks, traced by ``tracemalloc``, peak well under one
    window."""
    stack, cluster, rpn, options, benchmarks = OMB_SWEEPS[sweep]
    config = OMBConfig(sizes=(16 << 20,), warmup=0, iterations=1)

    def body(ctx):
        comm = make_stack(ctx, stack)
        return [COLLECTIVE_BENCHMARKS[b](ctx, comm, config)
                for b in benchmarks]

    engine = Engine(cluster(), ranks_per_node=rpn, **dict(OFF, **options))
    assert _traced_peak(lambda: engine.run(body)) < 4 << 20


@pytest.mark.parametrize("bench", [osu_latency, osu_bibw])
def test_pt2pt_sweep_moves_no_payload_bytes(bench):
    """The fig3/fig4 benchmarks, at 64 MiB a message across nodes."""
    config = OMBConfig(sizes=(64 << 20,), warmup=0, iterations=1)
    engine = Engine(_thetagpu2(), nranks=2, ranks_per_node=1)
    assert _traced_peak(
        lambda: engine.run(lambda ctx: bench(ctx, "nccl", config))) < 4 << 20
