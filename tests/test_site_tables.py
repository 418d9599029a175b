"""The committed site tables the smokes run on stay what their builder
makes (``tools/site_tables.py``; regenerate with ``PYTHONPATH=src
python tools/site_tables.py``)."""

from __future__ import annotations

import pytest

from repro.core.tuning_table import TuningTable
from tools.site_tables import SMOKE_TABLES, TABLES_DIR


@pytest.mark.parametrize("name", sorted(SMOKE_TABLES))
def test_committed_table_is_what_the_builder_makes(name):
    committed = TuningTable.from_json(
        (TABLES_DIR / name).read_text(encoding="utf-8"))
    assert committed == SMOKE_TABLES[name]()


def test_smoke_tables_select_their_route():
    """The hier smoke's table names the hierarchy for each of its four
    collectives, broadcast from 16 MiB; the hetero smoke's sends
    every call to the bridge."""
    hier = SMOKE_TABLES["hier_smoke.json"]()
    assert hier.choose("allreduce", 2 << 20) == "hier"
    assert hier.choose("allreduce", (2 << 20) - 1) != "hier"
    assert hier.choose("bcast", 16 << 20) == "hier"
    assert hier.choose("bcast", 8 << 20) != "hier"
    assert all(route != "hier" for rows in (hier.entries["alltoall"],
                                            hier.entries["gather"])
               for _, route in rows)
    bridge = SMOKE_TABLES["hetero_smoke.json"]()
    assert bridge.entries == {coll: [(-1, "bridge")]
                              for coll in bridge.entries}
