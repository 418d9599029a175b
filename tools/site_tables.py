"""Site tuning tables that select the hierarchy or the mixed-vendor bridge.

The node hierarchy (``hier``) and the vendor-island bridge (``bridge``)
are rows of a tuning table, never run options: a site that wants them
ships a table and points ``MPIX_TUNING_FILE`` at it.  This module builds
such tables — the offline table of one job shape with those routes
spliced in above a size — and writes the two the CI smokes run on
(``make hier-smoke`` / ``make hetero-smoke``).

Regenerate the committed files after a model change with::

    PYTHONPATH=src python tools/site_tables.py

``tests/test_site_tables.py`` fails while a committed file differs from
what this module builds for its shape.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Mapping, Optional

from repro.core.tuning_table import (TUNABLE_COLLECTIVES, TuningTable,
                                     site_table, with_route)
from repro.hw.systems import make_mixed_system, make_system

#: where the hierarchy starts to beat the flat routes, measured on an
#: 8-node x 8-GPU sweep.  The reductions cross between 1 and 2 MiB;
#: broadcast an order of magnitude later, because its flat binomial
#: tree moves each byte once per inter-node hop, so the hierarchy's
#: extra intra-node scatter/allgather launches only pay off at 16 MiB+.
HIER_FROM = {"allreduce": 2 << 20, "allgather": 2 << 20,
             "reduce_scatter": 2 << 20, "bcast": 16 << 20}

TABLES_DIR = Path(__file__).resolve().parent / "tables"


def hier_table(cluster, nranks: Optional[int] = None,
               ranks_per_node: Optional[int] = None,
               backend: Optional[str] = None,
               from_bytes: Mapping[str, int] = HIER_FROM) -> TuningTable:
    """The shape's offline rows, with every call of at least
    ``from_bytes`` bytes sent to the hierarchy.

    A pinned table routes every communicator whose dispatcher holds it
    by these rows: below the thresholds they are the world shape's, and
    above them a communicator that is not multi-level (one node) takes
    the flat CCL route.  The hierarchy's own sub-communicators route by
    their own shape's offline table."""
    return with_route(site_table(cluster, nranks, ranks_per_node, backend),
                      "hier", from_bytes)


def bridge_table(cluster, nranks: Optional[int] = None,
                 ranks_per_node: Optional[int] = None) -> TuningTable:
    """Every call of every collective sent to the bridge: on a
    mixed-vendor communicator the bridge's collectives take it and the
    rest run the MPI algorithms; a single-vendor one runs the MPI
    algorithms throughout."""
    return with_route(site_table(cluster, nranks, ranks_per_node),
                      "bridge", dict.fromkeys(TUNABLE_COLLECTIVES, 0))


#: committed file -> its table (the smokes' job shapes)
SMOKE_TABLES = {
    "hier_smoke.json":
        lambda: hier_table(make_system("thetagpu", 4, nics=8), 32, 8),
    "hetero_smoke.json":
        lambda: bridge_table(make_mixed_system("nvidia:2,amd:2")),
}


def main() -> int:
    TABLES_DIR.mkdir(exist_ok=True)
    for name, build in SMOKE_TABLES.items():
        path = TABLES_DIR / name
        path.write_text(build().to_json() + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
