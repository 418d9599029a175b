"""Ablation: flat vs node-leader vs pipelined hierarchy, staged pipeline.

All three arms run through the staged dispatch pipeline on a
multi-rail ThetaGPU model, swept over rank counts the way
``mpix-omb --ranks`` sweeps scale:

* ``flat``   — the shape's offline table: its flat algorithms carry
  the whole message across the fabric.
* ``leader`` — the whole-message node-leader algorithm
  (``repro.mpi.coll.algorithm("allreduce", "hierarchical")``): one
  leader, one NIC per node.
* ``hier``   — the same table with ``hier`` rows from 2 MiB:
  chunk-pipelined, NIC-striped level decomposition
  (:data:`repro.mpi.coll.levels.HIER`).

The smallest size sits *below* the 2 MiB row bound
(``tools/site_tables.HIER_FROM``), so the hier arm must match flat
exactly there — the crossover is part of what this ablation pins.  Above it, the striped
hierarchy must beat the node-leader design everywhere and the flat
algorithms at scale.
"""

from repro.core import runtime
from repro.core.tuning_table import site_table, with_route
from repro.hw.systems import make_system
from repro.mpi.coll import algorithm
from repro.mpi.datatypes import FLOAT
from repro.mpi.ops import SUM

SIZES = (1 << 20, 4 << 20, 16 << 20)
#: (nranks, nodes) sweep, one rank per device
RANKS = ((16, 2), (64, 8))
NICS = 8
ARMS = ("flat", "leader", "hier")


def _body(arm):
    def body(mpx):
        comm = mpx.COMM_WORLD
        out = {}
        for size in SIZES:
            count = size // 4
            s = mpx.device_array(count, fill=1.0)
            r = mpx.device_array(count, fill=0.0)

            def once():
                if arm == "leader":
                    algorithm("allreduce", "hierarchical")(
                        comm, s, r, count, FLOAT, SUM)
                else:
                    comm.Allreduce(s, r)

            once()  # warmup: CCL init, plan compile, sub-comm builds
            comm.Barrier()
            t0 = comm.now
            once()
            out[size] = comm.now - t0
        return out
    return body


def _sweep():
    out = {}
    for nranks, nodes in RANKS:
        cluster = make_system("thetagpu", nodes, nics=NICS)
        hier = with_route(site_table(cluster, nranks), "hier",
                          {"allreduce": 2 << 20})
        for arm in ARMS:
            per_rank = runtime.run(_body(arm), system=cluster,
                                   nranks=nranks,
                                   table=hier if arm == "hier" else None)
            for size in SIZES:
                out[(arm, nranks, size)] = max(p[size] for p in per_rank)
    return out


def test_flat_vs_leader_vs_hier(benchmark):
    out = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print("\n=== ablation: flat vs node-leader vs pipelined hier "
          f"allreduce ({NICS} NIC rails) ===")
    for nranks, nodes in RANKS:
        print(f"-- {nranks} ranks ({nodes} nodes x 8 GPUs)")
        print(f"{'size':>10} " + " ".join(f"{a:>12}" for a in ARMS))
        for size in SIZES:
            print(f"{size:>10} " + " ".join(
                f"{out[(a, nranks, size)]:>12.2f}" for a in ARMS))
    below = min(SIZES)
    assert below < 2 << 20, "smallest size must sit below the threshold"
    for nranks, _ in RANKS:
        # below the routing threshold the gate must be inert: the hier
        # arm re-runs the identical flat schedule (rank scheduling is
        # deterministic, so the virtual times agree exactly)
        assert out[("hier", nranks, below)] == out[("flat", nranks, below)]
        for size in SIZES:
            if size < 2 << 20:
                continue
            # striping must beat the single-NIC node-leader design
            assert (out[("hier", nranks, size)]
                    < out[("leader", nranks, size)])
    # and the flat algorithms at scale, where the fabric dominates
    for size in (4 << 20, 16 << 20):
        assert out[("hier", 64, size)] < out[("flat", 64, size)]
