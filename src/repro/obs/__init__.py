"""Observability: per-collective metrics over traces and the
``mpix-trace`` CLI.

The simulator's per-rank traces (:mod:`repro.sim.tracing`) and their
Chrome-trace export (:mod:`repro.sim.timeline`) are the raw record;
this package turns them into the aggregate views the paper's tuning
story consumes — count/bytes/time histograms per collective per
backend, route and fallback breakdowns, transport usage.
"""

from repro.obs.metrics import (  # noqa: F401
    CollectiveMetrics,
    MetricsReport,
    aggregate_doc,
)
