"""Ablation: tuning-table granularity (DESIGN.md §5).

The offline tuner emits per-size-class thresholds.  A degenerate table
with a single global crossover (one threshold for every collective)
misroutes the collectives whose curves cross elsewhere — this bench
measures how much that costs against the properly tuned table.
"""

from repro.core.dispatch import CollectivePipeline, DispatchMode
from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.tuning_table import TUNABLE_COLLECTIVES, TuningTable, tune_offline
from repro.hw.systems import make_system
from repro.mpi import SUM, Communicator
from repro.mpi.config import mvapich_gpu
from repro.perfmodel import ccl_params
from repro.perfmodel.shape import shape_of
from repro.sim.engine import Engine

SIZES = (64, 4096, 65536, 1 << 20)
GLOBAL_CROSSOVER = 65536  # one-size-fits-all threshold


def _degenerate_table() -> TuningTable:
    entries = {c: [(GLOBAL_CROSSOVER, "mpi"), (-1, "xccl")]
               for c in TUNABLE_COLLECTIVES}
    return TuningTable("nccl", ("degenerate",), entries)


def _sweep(table):
    cluster = make_system("thetagpu", 1)

    def body(ctx):
        comm = Communicator.world(ctx)
        comm.coll = CollectivePipeline(XCCLAbstractionLayer(ctx, "nccl"),
                                       DispatchMode.HYBRID, table)
        total = 0.0
        for coll in ("allreduce", "bcast", "alltoall"):
            for size in SIZES:
                count = size // 4
                s = ctx.device.zeros(count * (comm.size if coll == "alltoall"
                                              else 1))
                r = ctx.device.zeros(count * comm.size)
                comm.Barrier()
                t0 = ctx.now
                if coll == "allreduce":
                    comm.Allreduce(s, r.view(0, count), SUM, count=count)
                elif coll == "bcast":
                    comm.Bcast(s, root=0, count=count)
                else:
                    comm.Alltoall(s, r, count=count)
                total += ctx.now - t0
        return total

    return Engine(cluster, nranks=8).run(body)[0]


def test_tuned_vs_single_crossover(benchmark):
    shape = shape_of(make_system("thetagpu", 1), range(8))
    tuned = tune_offline(shape, ccl_params("nccl"), mvapich_gpu())

    def both():
        return _sweep(tuned), _sweep(_degenerate_table())

    t_tuned, t_degenerate = benchmark.pedantic(both, rounds=1, iterations=1)
    print("\n=== ablation: tuning granularity ===")
    print(f"  per-collective tuned table: {t_tuned:10.1f} us total")
    print(f"  single global crossover:    {t_degenerate:10.1f} us total")
    print(f"  penalty: {t_degenerate / t_tuned - 1:+.1%}")
    assert t_tuned <= t_degenerate * 1.02
