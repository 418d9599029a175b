"""Open MPI + UCX + UCC baseline.

UCC (Unified Collective Communication, §5 of the paper) is Open MPI's
pluggable collective layer; on GPU systems it drives collectives
through CUDA/NCCL transports.  We model it as exactly that: a CCL-ish
backend wrapping NCCL with additional layer overhead, installed into an
Open MPI communicator through the same dispatcher mechanism MPI-xCCL
uses — but with UCC's *static* component selection instead of the
offline-tuned hybrid tables:

* allreduce/reduce/bcast below 8 KB run on the UCX p2p algorithms,
  above on the NCCL transport;
* alltoall and allgather always take the NCCL transport (the source of
  the paper's 2.8x alltoall win for xCCL at 4 KB, Fig 5m);
* multi-node, the extra layer hop costs ~10% against plain UCX in the
  TensorFlow runs (§4.4).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.dispatch import CollectivePipeline, DispatchMode
from repro.core.tuning_table import TuningTable
from repro.hw.vendors import Vendor
from repro.mpi.communicator import Communicator
from repro.mpi.config import openmpi_ucx
from repro.perfmodel.params import NCCL as NCCL_PARAMS
from repro.sim.engine import RankContext
from repro.xccl.backend import CCLBackend
from repro.xccl.nccl import NCCLBackend


class UCCBackend(CCLBackend):
    """UCC's NCCL transport: NCCL plus the UCC/Open MPI layer costs."""

    name = "nccl"   # the library it wraps
    vendors = (Vendor.NVIDIA,)
    #: UCC can do what the NCCL it wraps can do
    capabilities = NCCLBackend.capabilities
    params = replace(
        NCCL_PARAMS,
        launch_us=NCCL_PARAMS.launch_us + 7.0,      # UCC layer + coll_score path
        inter_extra_launch_us=NCCL_PARAMS.inter_extra_launch_us + 6.0,
        step_alpha_intra_us=NCCL_PARAMS.step_alpha_intra_us + 0.6,
        step_alpha_inter_us=NCCL_PARAMS.step_alpha_inter_us + 1.5,
        bw_eff_intra=NCCL_PARAMS.bw_eff_intra * 0.97,
        bw_eff_inter=NCCL_PARAMS.bw_eff_inter * 0.93,
    )
    version = "ucc-1.2 (nccl tl)"


#: UCC's static component selection (not offline-tuned).
UCC_TABLE = TuningTable(
    backend="ucc",
    shape_key=("static",),
    entries={
        "allreduce": [(8192, "mpi"), (-1, "xccl")],
        "reduce": [(8192, "mpi"), (-1, "xccl")],
        "bcast": [(8192, "mpi"), (-1, "xccl")],
        "allgather": [(-1, "xccl")],
        "alltoall": [(-1, "xccl")],
        "reduce_scatter": [(-1, "xccl")],
        "gather": [(-1, "mpi")],
        "scatter": [(-1, "mpi")],
    },
)


def ucc_communicator(ctx: RankContext,
                     table: Optional[TuningTable] = None) -> Communicator:
    """A world communicator modeling Open MPI + UCX + UCC."""
    comm = Communicator.world(ctx, openmpi_ucx().with_(name="openmpi+ucx+ucc"))
    layer = XCCLAbstractionLayer(ctx, UCCBackend())
    comm.coll = CollectivePipeline(layer, DispatchMode.HYBRID,
                                   table or UCC_TABLE)
    return comm
