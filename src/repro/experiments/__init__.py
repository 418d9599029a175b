"""Experiment drivers: one module per table/figure of the paper.

Each experiment exposes a module-level :data:`EXPERIMENT` record with a
``run(scale)`` callable producing a :class:`repro.util.records.ResultSet`
and a list of anchor checks against the paper's reported numbers.  The
registry (:mod:`repro.experiments.registry`) indexes them; the report
formatter (:mod:`repro.experiments.report`) renders EXPERIMENTS.md.

Scales:

* ``"paper"`` — the paper's rank counts, on the engine (Table 1 is a
  preset audit and Fig 7b a closed-form projection; see DESIGN.md §4b);
* ``"quick"`` — reduced sizes/iterations for tests and smoke runs.
"""

from repro.experiments.registry import (
    Experiment,
    AnchorCheck,
    all_experiments,
    get_experiment,
    run_experiment,
)

__all__ = [
    "Experiment",
    "AnchorCheck",
    "all_experiments",
    "get_experiment",
    "run_experiment",
]
