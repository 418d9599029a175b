"""Calibrated performance models.

Constants (:mod:`repro.perfmodel.params`) are anchored to the paper's
own measurements (§4.2-4.3 text; see DESIGN.md §4 for the anchor list).
Closed-form models (:mod:`repro.perfmodel.ccl_models`,
:mod:`repro.perfmodel.mpi_models`) price CCL and MPI collectives
analytically: the CCL formulas are the simulated CCLs' fused durations,
the MPI formulas feed the offline tuner and the Fig 7b projection, and
tests cross-validate them against the engine's step-by-step pricing.
"""

from repro.perfmodel.params import CCLParams, ccl_params, BACKEND_PARAMS
from repro.perfmodel.shape import CommShape
from repro.perfmodel import ccl_models, mpi_models

__all__ = [
    "CCLParams",
    "ccl_params",
    "BACKEND_PARAMS",
    "CommShape",
    "ccl_models",
    "mpi_models",
]
