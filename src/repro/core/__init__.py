"""MPI-xCCL: the paper's contribution.

The xCCL Abstraction Layer (Fig. 2) integrated into the MPI middleware:

* :mod:`repro.core.abstraction` — per-rank layer object: backend
  resolution, CCL-communicator caching, device-buffer identification,
  datatype/op capability checks;
* :mod:`repro.core.sendrecv_collectives` — the collectives the CCL APIs
  lack, built from group calls + ``xcclSend``/``xcclRecv`` (§3.3,
  Listing 1);
* :mod:`repro.core.dispatch` — the dispatcher installed into the MPI
  communicator, selecting MPI or xCCL per call: the
  :class:`~repro.mpi.communicator.CollectiveCall` descriptor the
  communicator builds is pushed through validate → capability-check →
  route → plan lookup → execute, with a registry entry per collective;
* :mod:`repro.core.fallback` — routing decisions with automatic MPI
  fallback (§1.2 advantage 3);
* :mod:`repro.core.tuning_table` — offline-tuned MPI/xCCL thresholds
  (§3.4);
* :mod:`repro.core.runtime` — the user-facing entry point
  (:func:`repro.core.runtime.run`).
"""

from repro.core.abstraction import XCCLAbstractionLayer
from repro.core.dispatch import (CollectiveCall, CollectivePipeline,
                                 CollectiveSpec, DispatchMode)
from repro.core.fallback import Route, RouteDecision, FallbackReason
from repro.core.tuning_table import TuningTable, tune_offline
from repro.core.runtime import MPIxContext, run, world_communicator

__all__ = [
    "XCCLAbstractionLayer",
    "CollectiveCall",
    "CollectivePipeline",
    "CollectiveSpec",
    "Route",
    "RouteDecision",
    "FallbackReason",
    "TuningTable",
    "tune_offline",
    "DispatchMode",
    "MPIxContext",
    "run",
    "world_communicator",
]
