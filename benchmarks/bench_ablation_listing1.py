"""Ablation: Listing 1's grouped-CCL AlltoAllv vs the MPI algorithms.

§3.3 builds AlltoAllv from one group of xcclSend/xcclRecv pairs.  This
bench compares that construction against the MPI alltoallv across
message sizes — the send-recv-based collectives only pay off once
payloads amortize the CCL launch, which is exactly why they sit behind
the hybrid tuning table.
"""

import numpy as np

from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.dispatch import CollectiveCall, execute_ccl
from repro.hw.systems import make_system
from repro.mpi import FLOAT, Communicator
from repro.sim.engine import Engine

SIZES = (256, 4096, 65536, 1 << 20)


def _sweep():
    cluster = make_system("thetagpu", 1)

    def body(ctx):
        comm = Communicator.world(ctx)
        layer = XCCLAbstractionLayer(ctx)
        p = comm.size
        out = {}
        for size in SIZES:
            count = size // 4
            counts = [count] * p
            displs = [count * i for i in range(p)]
            s = ctx.device.zeros(count * p)
            s.array[:] = np.repeat(ctx.rank * 100.0 + np.arange(p), count)
            r = ctx.device.zeros(count * p)
            comm.Barrier()
            t0 = ctx.now
            comm.Alltoallv(s, counts, r, counts)         # MPI algorithms
            t_mpi = ctx.now - t0
            expect = np.repeat(np.arange(p) * 100.0 + ctx.rank, count)
            assert np.array_equal(r.array, expect)
            r.fill(0)
            comm.Barrier()
            t1 = ctx.now
            execute_ccl(layer, CollectiveCall(            # Listing 1
                "alltoallv", comm, s, r, sendcounts=counts,
                sdispls=displs, recvcounts=counts, rdispls=displs, dt=FLOAT))
            t_ccl = ctx.now - t1
            assert np.array_equal(r.array, expect)
            out[size] = (t_mpi, t_ccl)
        return out

    return Engine(cluster, nranks=8).run(body)[0]


def test_listing1_vs_mpi(benchmark):
    out = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    print("\n=== ablation: AlltoAllv — MPI algorithms vs Listing 1 ===")
    print(f"{'size':>9} {'MPI (us)':>10} {'xCCL group (us)':>16}")
    for size, (t_mpi, t_ccl) in out.items():
        print(f"{size:>9} {t_mpi:>10.2f} {t_ccl:>16.2f}")
    # small: MPI's cheap eager path wins (CCL pays the launch floor)
    assert out[256][0] < out[256][1]
    # large: the grouped CCL construction wins on bandwidth
    assert out[1 << 20][1] < out[1 << 20][0]
