#!/usr/bin/env python
"""Portability sweep: one stencil solver, three vendor ecosystems.

A 1-D halo-exchange Jacobi solver plus residual allreduce — the classic
HPC communication pattern — runs unmodified on all three systems of
Table 1.  Under the hood the runtime loads NCCL on ThetaGPU, RCCL on
MRI, and HCCL on Voyager; the tuning tables (tuned offline per system)
route each call.  The example also prints each system's tuning-table
rows (size bound -> route), showing how differently the same decision
lands on different hardware (the paper's §3.4).

Run:  python examples/portability_sweep.py
"""

import numpy as np

from repro.core import run
from repro.core.tuning_table import site_table
from repro.hw.systems import make_system
from repro.mpi import MAX, SUM

N_LOCAL = 4096     # cells per rank
STEPS = 20


def jacobi(mpx):
    """1-D Jacobi with halo exchange; returns final residual."""
    comm = mpx.COMM_WORLD
    rank, p = mpx.rank, mpx.size
    field = mpx.device_array(N_LOCAL + 2, dtype=np.float64)
    field.array[:] = 0.0
    if rank == 0:
        field.array[0] = 1.0            # left boundary condition
    if rank == p - 1:
        field.array[-1] = 0.0
    halo = mpx.device_array(1, dtype=np.float64)
    residual = mpx.device_array(1, dtype=np.float64)

    for _ in range(STEPS):
        # halo exchange with neighbours
        if rank > 0:
            comm.Sendrecv(field.view(1, 1), rank - 1, halo, rank - 1)
            field.array[0] = halo.array[0]
        if rank < p - 1:
            comm.Sendrecv(field.view(N_LOCAL, 1), rank + 1, halo, rank + 1)
            field.array[N_LOCAL + 1] = halo.array[0]
        old = field.array[1:-1].copy()
        field.array[1:-1] = 0.5 * (field.array[:-2] + field.array[2:])
        mpx.ctx.clock.advance(mpx.device.kernel_time_us(3 * old.nbytes))
        # global residual (tiny allreduce -> MPI path per tuning table)
        residual.array[0] = float(np.abs(field.array[1:-1] - old).max())
        comm.Allreduce(None, residual, MAX, count=1)
    return residual.array[0], mpx.now


def main() -> None:
    for system in ("thetagpu", "mri", "voyager"):
        results = run(jacobi, system=system, nodes=2)
        res, t = results[0]
        table = site_table(make_system(system, 2))
        print(f"{system:10s} backend={table.backend:5s} residual={res:.6f} "
              f"t={t / 1000:7.2f} ms")
        for coll in ("allreduce", "bcast", "alltoall"):
            print(f"    {coll:10s} {table.describe(coll)}")
    print("\nSame solver source, three accelerator vendors — the")
    print("runtime's offline-tuned tables place the MPI/xCCL crossovers")
    print("where that system's hardware says they belong.")


if __name__ == "__main__":
    main()
