"""Topology-aware (hierarchical) collectives."""

import numpy as np
import pytest

from repro.errors import DeadlockError
from repro.hw.systems import make_mixed_system
from repro.mpi import MAX, SUM, Communicator
from repro.mpi.coll import MPICollDispatcher, levels
from repro.sim.engine import Engine
from repro.sim.faults import FaultPlan, with_faults
from tests.test_conformance import REAL, TRACED, conforms


def comm_with(ctx, force=None):
    comm = Communicator.world(ctx)
    comm.coll = MPICollDispatcher(force=force)
    return comm


def node_comms(comm):
    """(node-local comm, leader comm or None) of the node-leader
    algorithms' levels."""
    lv = levels.levels(None, comm, levels.LEADER)
    return lv.inner, lv.outer.comm


class TestNodeComms:
    def test_partitioning(self, thetagpu2, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            local, leaders = node_comms(comm)
            return (local.size, leaders is not None and leaders.size or 0)

        out = spmd(thetagpu2, body, nranks=16)
        assert out[0] == (8, 2)       # leader on node 0
        assert out[1] == (8, 0)       # non-leader
        assert out[8] == (8, 2)       # leader on node 1

    def test_cached(self, thetagpu2, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            a = levels.levels(None, comm, levels.LEADER)
            b = levels.levels(None, comm, levels.LEADER)
            return a is b

        assert all(spmd(thetagpu2, body, nranks=4))

    @pytest.mark.parametrize("by", ["vendor", "node"])
    def test_group_of_matches_scan_on_uneven_islands(self, spmd, by):
        """``group_of`` reads the shared rank -> group index; it answers
        what scanning every group tuple answers, on islands of unequal
        size (three NVIDIA nodes, one AMD) and on a communicator whose
        rank order interleaves them."""
        def scan(fact, rank):
            return next(j for j, ranks in enumerate(fact.groups)
                        if rank in ranks)

        def body(ctx):
            world = comm_with(ctx)
            # reversed, so comm rank order no longer follows placement
            flipped = world.Split(color=0, key=-ctx.rank)
            out = []
            for comm in (world, flipped):
                fact = levels.factorize(comm, by)
                assert fact.mine == scan(fact, comm.rank)
                out.append([fact.group_of(r) == scan(fact, r)
                            for r in range(comm.size)])
            return out

        cluster = make_mixed_system("nvidia:3,amd:1")
        out = spmd(cluster, body, nranks=cluster.device_count)
        assert all(all(row) for rows in out for row in rows)

    def test_factorization_shared_by_every_member(self, thetagpu2, spmd):
        """The rank-independent half of a factorization is computed once
        per communicator: every member's groups and index are the same
        objects, only ``mine`` is per rank."""
        def body(ctx):
            fact = levels.factorize(comm_with(ctx), "node")
            return fact.groups, fact.index, fact.mine

        out = spmd(thetagpu2, body, nranks=16)
        assert all(groups is out[0][0] and index is out[0][1]
                   for groups, index, _ in out)
        assert [mine for *_, mine in out] == [0] * 8 + [1] * 8

    def test_uneven_nodes(self, thetagpu2, spmd):
        def body(ctx):
            comm = comm_with(ctx)
            local, leaders = node_comms(comm)
            return local.size

        out = spmd(thetagpu2, body, nranks=10)  # 8 + 2
        assert out[0] == 8 and out[9] == 2


    @pytest.mark.parametrize("inst", [levels.LEADER, levels.HIER],
                             ids=lambda inst: inst.name)
    def test_failed_second_split_frees_the_first(self, thetagpu2, inst):
        """The one builder's one failure path, whichever instance it
        builds for: rank 3 dies as it leaves the first ``Split``, so the
        survivors' second one raises — the inner communicator they had
        built is freed again and no levels are cached (the placement
        facts, which are still true, are)."""
        def body(ctx):
            comm = comm_with(ctx)
            built = []
            split = comm.Split

            def recording_split(color, key=0):
                built.append(split(color, key))
                return built[-1]

            comm.Split = recording_split
            try:
                levels.levels(None, comm, inst)
            except DeadlockError:
                return [sub._freed for sub in built], sorted(comm.routing_cache)

        engine = Engine(thetagpu2, nranks=4, ranks_per_node=2)
        with_faults(engine, FaultPlan().kill(3, after_us=1.0))
        assert engine.run(body) == [([True], ["node"])] * 3 + [None]


class TestHierarchicalCorrectness:
    @pytest.mark.parametrize("nranks", [16, 12, 9])
    def test_allreduce(self, thetagpu2, spmd, nranks):
        def body(ctx):
            comm = comm_with(ctx, "hierarchical")
            n = 512
            s = ctx.device.zeros(n, dtype=np.float64)
            s.array[:] = np.arange(n) + ctx.rank
            r = ctx.device.zeros(n, dtype=np.float64)
            comm.Allreduce(s, r, SUM)
            expect = sum(np.arange(n) + k for k in range(comm.size))
            return np.allclose(r.array, expect)

        assert all(spmd(thetagpu2, body, nranks=nranks))

    @pytest.mark.parametrize("root", [0, 3, 9])
    def test_bcast_any_root(self, thetagpu2, spmd, root):
        def body(ctx):
            comm = comm_with(ctx, "hierarchical")
            buf = ctx.device.zeros(256)
            if ctx.rank == root:
                buf.array[:] = 42.0
            comm.Bcast(buf, root=root)
            return bool(np.all(buf.array == 42.0))

        assert all(spmd(thetagpu2, body, nranks=12))

    @pytest.mark.parametrize("root", [0, 5, 11])
    def test_reduce_any_root(self, thetagpu2, spmd, root):
        def body(ctx):
            comm = comm_with(ctx, "hierarchical")
            s = ctx.device.zeros(128)
            s.fill(float(ctx.rank))
            r = ctx.device.zeros(128)
            comm.Reduce(s, r, MAX, root=root)
            if ctx.rank != root:
                return True
            return bool(np.all(r.array == comm.size - 1))

        assert all(spmd(thetagpu2, body, nranks=12))

    def test_single_node_degenerates(self, thetagpu1, spmd):
        def body(ctx):
            comm = comm_with(ctx, "hierarchical")
            s = ctx.device.zeros(64)
            s.fill(1.0)
            r = ctx.device.zeros(64)
            comm.Allreduce(s, r, SUM)
            return r.array[0]

        assert spmd(thetagpu1, body, nranks=4) == [4.0] * 4


class TestHierarchicalPerformance:
    def test_beats_flat_ring_for_medium_multi_node(self, thetagpu2, spmd):
        """8 ranks/node over 2 nodes at 64 KB: the leader design pays
        one fabric exchange instead of a 30-step cross-node ring.
        (Flat recursive doubling with block placement is already
        near-optimal in fabric rounds, so the honest comparison for
        the leader design is the bandwidth algorithms.)"""
        n = 16384  # 64 KB of floats

        def body(ctx):
            comm_ring = comm_with(ctx, "ring")
            comm_hier = comm_with(ctx, "hierarchical")
            s = ctx.device.zeros(n)
            r = ctx.device.zeros(n)
            comm_ring.Barrier()
            t0 = ctx.now
            comm_ring.Allreduce(s, r, SUM)
            t_ring = ctx.now - t0
            # warm the cached sub-communicators outside the timing
            node_comms(comm_hier)
            comm_hier.Barrier()
            t1 = ctx.now
            comm_hier.Allreduce(s, r, SUM)
            return t_ring, ctx.now - t1

        t_ring, t_hier = spmd(thetagpu2, body, nranks=16)[0]
        assert t_hier < t_ring


class TestFrozenReference:
    """``force="hierarchical"`` keeps the node-leader algorithms'
    payloads and exact clocks (``legacy:<shape>`` of the conformance
    suite, ``tests/test_conformance.py``, recorded at the parent
    commit)."""

    @pytest.mark.parametrize("trace", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("shape,nranks", [("2x8", 16), ("8+4", 12)])
    def test_matches_frozen_reference(self, shape, nranks, trace):
        conforms(f"legacy:{shape}", TRACED if trace else REAL)
