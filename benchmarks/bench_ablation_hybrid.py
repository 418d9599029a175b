"""Ablation: hybrid dispatch on/off (DESIGN.md §5).

Quantifies §3.4: pure-MPI wins small, pure-xCCL wins large, and the
hybrid table tracks whichever is better across the whole sweep.
"""


from repro.core import DispatchMode, run
from repro.mpi import SUM

SIZES = (64, 4096, 65536, 1 << 20, 4 << 20)


def _sweep(mode):
    def body(mpx):
        comm = mpx.COMM_WORLD
        times = {}
        for size in SIZES:
            count = size // 4
            s = mpx.device_array(count, fill=1.0)
            r = mpx.device_array(count)
            comm.Barrier()
            t0 = mpx.now
            comm.Allreduce(s, r, SUM)
            times[size] = mpx.now - t0
        return times

    return run(body, system="thetagpu", nodes=1, mode=mode)[0]


def test_hybrid_tracks_best_side(benchmark):
    """hybrid ~= min(pure MPI, pure xCCL) at every size."""
    def sweep_all():
        return {mode: _sweep(mode) for mode in DispatchMode}

    times = benchmark.pedantic(sweep_all, rounds=1, iterations=1)
    hybrid = times[DispatchMode.HYBRID]
    mpi = times[DispatchMode.PURE_MPI]
    ccl = times[DispatchMode.PURE_XCCL]
    print("\n=== ablation: hybrid dispatch ===")
    print(f"{'size':>9} {'pure MPI':>12} {'pure xCCL':>12} {'hybrid':>12}")
    for size in SIZES:
        print(f"{size:>9} {mpi[size]:>12.2f} {ccl[size]:>12.2f} "
              f"{hybrid[size]:>12.2f}")
    # small: MPI side must win and hybrid must ride it
    assert mpi[64] < ccl[64]
    assert hybrid[64] <= mpi[64] * 1.1
    # large: CCL side must win and hybrid must ride it
    assert ccl[4 << 20] < mpi[4 << 20]
    assert hybrid[4 << 20] <= ccl[4 << 20] * 1.1
    # hybrid never loses badly anywhere
    for size in SIZES:
        assert hybrid[size] <= min(mpi[size], ccl[size]) * 1.15
