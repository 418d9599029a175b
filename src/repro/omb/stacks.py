"""Communication-stack factory shared by the OMB CLI and experiments.

Maps the series names of the paper's figures onto runnable stacks:

==================  ==========================================================
name                meaning (figure legend)
==================  ==========================================================
``hybrid``          "Proposed Hybrid xCCL" — tuning-table routing
``pure-xccl``       "Proposed xCCL w/ Pure <backend>" — always CCL via MPI
``mpi``             the MVAPICH-style GPU-aware MPI runtime alone
``openmpi``         "Open MPI + UCX"
``ucc``             "Open MPI + UCX + UCC"
``ccl``             "Pure NCCL/RCCL/HCCL/MSCCL" — no MPI wrapper (dashed)
==================  ==========================================================
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.openmpi import openmpi_communicator
from repro.baselines.pure_ccl import PureCCLHarness
from repro.baselines.ucc import ucc_communicator
from repro.core.dispatch import DispatchMode
from repro.core.runtime import world_communicator
from repro.core.tuning_table import TuningTable
from repro.errors import ConfigError
from repro.hw.vendors import default_ccl_for
from repro.sim.engine import RankContext

STACK_NAMES = ("hybrid", "pure-xccl", "mpi", "openmpi", "ucc", "ccl")


def make_stack(ctx: RankContext, name: str, backend: Optional[str] = None,
               table: Optional[TuningTable] = None):
    """Build the named communication stack for one rank."""
    backend = backend or default_ccl_for(ctx.device.vendor)
    if name == "hybrid":
        return world_communicator(ctx, backend, DispatchMode.HYBRID, table=table)
    if name == "pure-xccl":
        return world_communicator(ctx, backend, DispatchMode.PURE_XCCL)
    if name == "mpi":
        return world_communicator(ctx, backend, DispatchMode.PURE_MPI)
    if name == "openmpi":
        return openmpi_communicator(ctx)
    if name == "ucc":
        return ucc_communicator(ctx)
    if name == "ccl":
        return PureCCLHarness(ctx, backend)
    raise ConfigError(f"unknown stack {name!r}; expected one of {STACK_NAMES}")


#: figure-legend labels per stack name (``{backend}`` interpolated).
SERIES_LABELS = {
    "hybrid": "Proposed Hybrid xCCL",
    "pure-xccl": "Proposed xCCL w/ Pure {backend}",
    "mpi": "MPI",
    "openmpi": "Open MPI + UCX",
    "ucc": "Open MPI + UCX + UCC",
    "ccl": "Pure {backend}",
}


def series_label(stack: str, backend: str) -> str:
    """The paper's legend label for one stack/backend pair."""
    return SERIES_LABELS[stack].format(backend=backend.upper())
