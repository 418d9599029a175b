"""``tools/claim_pairs.py``: the recipe's verdict on synthetic pairs.

The benchmark itself is not run here; only the function that turns
paired runs into ``gain`` / ``worse`` / ``unresolved``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "claim_pairs", Path(__file__).resolve().parents[1] / "tools" / "claim_pairs.py")
claim_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(claim_pairs)
verdict = claim_pairs.verdict

#: ten parent runs of an ops/s-like metric: median 18.25, quartiles
#: 17.525 and 18.975, so the inter-quartile distance is 1.45
PARENT = [18.4, 19.3, 17.0, 23.4, 18.1, 17.6, 18.9, 17.4, 19.0, 17.5]


def test_quartiles_are_inclusive():
    q1, median, q3 = claim_pairs.quartiles(PARENT)
    assert (q1, median, q3) == pytest.approx((17.525, 18.25, 18.975))
    assert claim_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_gain_needs_nine_of_ten_wins_and_a_shift_beyond_the_parents_iqr():
    faster = [p * 1.25 for p in PARENT]
    assert verdict(PARENT, faster) == ("gain", 10, 0)
    # nine wins and one loss is still nine tenths
    nine = faster[:9] + [PARENT[9] - 0.1]
    assert verdict(PARENT, nine) == ("gain", 9, 1)
    # eight wins is not, however large the shift
    eight = faster[:8] + [PARENT[8] - 0.1, PARENT[9] - 0.1]
    assert verdict(PARENT, eight) == ("unresolved", 8, 2)
    # ten wins whose medians sit closer than the parent's own spread
    hair = [p + 1.0 for p in PARENT]
    assert verdict(PARENT, hair) == ("unresolved", 10, 0)


def test_ties_count_for_neither_side():
    faster = [p * 1.25 for p in PARENT]
    assert verdict(PARENT, faster[:9] + [PARENT[9]]) == ("gain", 9, 0)
    assert verdict(PARENT, faster[:8] + PARENT[8:]) == ("unresolved", 8, 0)
    assert verdict(PARENT, list(PARENT)) == ("unresolved", 0, 0)


def test_worse_is_the_mirror_image_and_direction_follows_better():
    slower = [p * 0.75 for p in PARENT]
    assert verdict(PARENT, slower) == ("worse", 0, 10)
    # the same numbers read as a cost (lower is better) swap sides
    assert verdict(PARENT, slower, better="lower") == ("gain", 10, 0)
    assert verdict(PARENT, [p * 1.25 for p in PARENT], better="lower") \
        == ("worse", 0, 10)


def test_fewer_than_ten_pairs_carry_no_verdict():
    assert verdict(PARENT[:9], [p * 1.5 for p in PARENT[:9]]) \
        == ("unresolved", 9, 0)
    assert verdict([18.0], [9.0]) == ("unresolved", 0, 1)
    # more than ten keep the nine-tenths share: 18 of 20, not 17
    twice = PARENT + PARENT
    faster = [p * 1.25 for p in twice]
    assert verdict(twice, faster[:18] + twice[18:])[0] == "gain"
    assert verdict(twice, faster[:17] + twice[17:])[0] == "unresolved"


def test_unpaired_input_is_rejected():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:9])
    with pytest.raises(ValueError):
        verdict([], [])


def test_report_has_a_row_per_metric():
    metrics = [{"name": "ops_per_s", "unit": "ops/s", "better": "higher"},
               {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower"}]
    runs = [({"metrics": {"ops_per_s": {"value": p},
                          "cpu_ms_per_op": {"value": 1000 / p}}},
             {"metrics": {"ops_per_s": {"value": p * 1.25},
                          "cpu_ms_per_op": {"value": 800 / p}}})
            for p in PARENT]
    rows = claim_pairs.report(metrics, runs)
    assert len(rows) == 2 + len(metrics)
    assert "+25.0 % of 18.25" in rows[2] and rows[2].endswith("| gain |")
    assert "-20.0 %" in rows[3] and rows[3].endswith("| gain |")
