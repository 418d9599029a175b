"""Virtual time never reads payload values: the frozen reference, replayed
storage-free.

Every case of ``tests/frozen_reference.py`` has storage-free arms in
the conformance suite (``tests/test_conformance.py``): its own body and
options on a cluster built with ``payloads=False``, whose device
buffers are zero-stride views of one element (``repro.hw.memory``).
Digests are not compared; clocks, surface counters and traced labels
are, ``==``.  A difference there is a data dependence of the timing
path: fixed, or refused with ``InvalidBufferError``.  The first tests
below name the replay's cases.

The OMB sweeps that do run storage-free are then held to O(1) memory:
every stack and route at 16 to 64 MiB windows, under ``tracemalloc``.
A payload step that forgets its stride test copies or folds O(n)
bytes there — or raises, landing storage-free data in real scratch.

The Horovod trainer behind Figs 7-10 (``experiments._tf_common.tf_panel``)
runs storage-free too: each of its stacks gives the same throughput and
communication time on a real and on a storage-free cluster.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.dl import horovod_preset, train
from repro.dl.horovod import build_buckets
from repro.dl.models import Layer, ModelSpec
from repro.hw.systems import make_mixed_system, make_system
from repro.omb.collective import COLLECTIVE_BENCHMARKS
from repro.omb.harness import OMBConfig
from repro.omb.pt2pt import osu_bibw, osu_latency
from repro.omb.stacks import make_stack
from repro.sim.engine import Engine
from tests import frozen_reference
from tests.test_conformance import (HIER_SHAPES, PROGRAMS, STORAGE_FREE,
                                    STORAGE_FREE_ALL_ON, STORAGE_FREE_TRACED,
                                    _arms, conforms)
from tools.site_tables import bridge_table, hier_table

OFF = dict.fromkeys(frozen_reference.OPTIONS, False)
SINGLE_NODE = ("twelve", "plan_cache", "group_fusion", "zero_copy", "random")


def test_every_frozen_case_is_replayed():
    """The replay covers the whole reference, family by family: every
    frozen case has at least one storage-free arm."""
    families = {case.split(":", 1)[0] for case in frozen_reference.FROZEN}
    assert families == set(SINGLE_NODE) | {
        "random", "multinode", "hier", "hetero", "legacy", "p2p", "replay"}
    for case in frozen_reference.FROZEN:
        program = PROGRAMS[case.split(":", 1)[0]]
        assert case in program.shapes, case
        assert any(not arm.payloads for arm in _arms(program, case)), case


@pytest.mark.parametrize("case", sorted(
    key for family in SINGLE_NODE for key in PROGRAMS[family].shapes))
def test_single_node_clocks(case):
    for arm in (STORAGE_FREE, STORAGE_FREE_ALL_ON):
        if arm in PROGRAMS[case.split(":", 1)[0]].arms:
            conforms(case, arm)


@pytest.mark.parametrize("nodes", [2, 8])
def test_multinode_clocks(nodes):
    conforms(f"multinode:{nodes}x8", STORAGE_FREE)


@pytest.mark.parametrize("shape", list(HIER_SHAPES))
def test_hier_clocks_and_surface(shape):
    conforms(f"hier:{shape}", STORAGE_FREE_TRACED)


@pytest.mark.parametrize("vendors", ["nvidia:2,amd:2", "nvidia:1,amd:2"])
def test_hetero_clocks_and_surface(vendors):
    conforms(f"hetero:{vendors}", STORAGE_FREE_TRACED)


@pytest.mark.parametrize("shape,nranks", [("2x8", 16), ("8+4", 12)])
def test_legacy_clocks_and_surface(shape, nranks):
    conforms(f"legacy:{shape}", STORAGE_FREE_TRACED)


@pytest.mark.parametrize("shape", ["2x8", "4x32"])
def test_p2p_clocks_and_counters(shape):
    conforms(f"p2p:{shape}", STORAGE_FREE)


def _thetagpu2(nics=None):
    return make_system("thetagpu", 2, nics=nics, payloads=False)


#: OMB sweeps as the storage-free drivers run them, at 16 MiB per
#: window: name -> (stack, cluster factory, ranks per node, pinned
#: table's builder, benchmarks)
_COLLECTIVES = tuple(sorted(COLLECTIVE_BENCHMARKS))
_LEVELED = ("allreduce", "bcast", "allgather", "reduce_scatter")
OMB_SWEEPS = {
    **{stack: (stack, _thetagpu2, 8, None, _COLLECTIVES)
       for stack in ("hybrid", "pure-xccl", "mpi", "openmpi", "ucc")},
    # the CCL APIs have no alltoallv, gather or scatter
    "ccl": ("ccl", _thetagpu2, 8, None,
            tuple(b for b in _COLLECTIVES
                  if b not in ("alltoallv", "gather", "scatter"))),
    "hier": ("hybrid", lambda: _thetagpu2(nics=4), 8, hier_table, _LEVELED),
    "bridge": ("hybrid",
               lambda: make_mixed_system("nvidia:2,amd:2", payloads=False),
               2, bridge_table, _LEVELED),
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
    stack, cluster, rpn, rows, benchmarks = OMB_SWEEPS[sweep]
    config = OMBConfig(sizes=(16 << 20,), warmup=0, iterations=1)
    cluster = cluster()
    table = rows(cluster, None, rpn) if rows else None

    def body(ctx):
        comm = make_stack(ctx, stack, table=table)
        return [COLLECTIVE_BENCHMARKS[b](ctx, comm, config)
                for b in benchmarks]

    engine = Engine(cluster, ranks_per_node=rpn, **OFF)
    assert _traced_peak(lambda: engine.run(body)) < 4 << 20


@pytest.mark.parametrize("bench", [osu_latency, osu_bibw])
def test_pt2pt_sweep_moves_no_payload_bytes(bench):
    """The fig3/fig4 benchmarks, at 64 MiB a message across nodes."""
    config = OMBConfig(sizes=(64 << 20,), warmup=0, iterations=1)
    engine = Engine(_thetagpu2(), nranks=2, ranks_per_node=1)
    assert _traced_peak(
        lambda: engine.run(lambda ctx: bench(ctx, "nccl", config))) < 4 << 20


#: one 12 MiB bucket under 64 MiB fusion (past the openmpi / ucc penalty
#: threshold), one bucket a tensor under pure NCCL's 512 KiB
TF_MODEL = ModelSpec("two_fc", (Layer("fc0.weight", 3 << 19),
                                Layer("fc1.weight", 3 << 19),
                                Layer("fc1.bias", 1024)),
                     fwd_flops_per_image=1e9)


@pytest.mark.parametrize("nodes", [1, 2])
@pytest.mark.parametrize("stack", ["hybrid", "ccl", "openmpi", "ucc"])
def test_trainer_throughput_is_storage_free(stack, nodes):
    """``dl.trainer.train`` through each ``tf_panel`` stack, as the
    panel drives it, on 4 ThetaGPU ranks: ``img_per_sec`` and
    ``comm_time_us`` are ``==`` on a real and on a ``payloads=False``
    cluster."""
    config = horovod_preset(stack, "nccl", multi_node=nodes > 1)
    assert any(b.nbytes > config.penalty_threshold_bytes
               for b in build_buckets(TF_MODEL, config.fusion_threshold_bytes))

    def body(ctx):
        result = train(ctx, make_stack(ctx, stack, "nccl"), TF_MODEL, 32,
                       steps=2, config=config)
        return result.img_per_sec, result.comm_time_us

    runs = [Engine(make_system("thetagpu", nodes, payloads=payloads),
                   nranks=4, ranks_per_node=4 // nodes, **OFF).run(body)
            for payloads in (True, False)]
    assert runs[0] == runs[1]
