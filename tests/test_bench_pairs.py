import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)
claim_verdict = bench_pairs.claim_verdict

PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # quartiles 12.25, 16.75


def test_claim_met_with_nine_wins_and_a_gap_beyond_the_parents_quartiles():
    change = [p - 5.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    v = claim_verdict(PARENT, change, "lower")
    assert (v["change_wins"], v["ties"], v["pairs"]) == (9, 0, 10)
    assert v["parent_quartiles"] == [12.25, 16.75] and v["parent_iqr"] == 4.5
    assert v["median_gap"] == 5.0 and v["claim_met"]


def test_claim_not_met_with_eight_wins():
    change = [p - 5.0 for p in PARENT[:8]] + [PARENT[8] + 1.0, PARENT[9] + 1.0]
    v = claim_verdict(PARENT, change, "lower")
    assert v["change_wins"] == 8 and v["median_gap"] > v["parent_iqr"]
    assert not v["claim_met"]


def test_claim_not_met_when_the_gap_is_inside_the_parents_quartiles():
    # Every pair won, but by 4.5, the parent's quartile distance: not beyond it.
    v = claim_verdict(PARENT, [p - 4.5 for p in PARENT], "lower")
    assert v["change_wins"] == 10 and v["median_gap"] == v["parent_iqr"] == 4.5
    assert not v["claim_met"]


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] -= 1.0
    v = claim_verdict(PARENT, change, "lower")
    assert (v["change_wins"], v["ties"]) == (1, 9) and not v["claim_met"]


def test_higher_is_better_flips_the_comparison():
    v = claim_verdict(PARENT, [p + 5.0 for p in PARENT], "higher")
    assert v["change_wins"] == 10 and v["median_gap"] == 5.0 and v["claim_met"]
    assert v["median_change_pct"] == pytest.approx(100 * 5.0 / 14.5)
    assert not claim_verdict(PARENT, [p + 5.0 for p in PARENT], "lower")["claim_met"]


def test_claim_verdict_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        claim_verdict(PARENT, PARENT[:-1], "lower")
