"""Tests for tools/pair_bench.py's summary of paired benchmark runs, on
fixed numbers: the benchmark itself never runs here."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pair_bench.py"
_spec = importlib.util.spec_from_file_location("pair_bench", _PATH)
pair_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_bench)

# (revision, change) pairs of a lower-is-better metric: the change is
# lower in pairs 1, 2, 4 and 5, higher in pair 3.
PAIRS = [(2.0, 1.9), (2.2, 2.0), (1.8, 1.9), (2.4, 2.1), (2.0, 1.8)]


def test_summary_of_fixed_pairs():
    s = pair_bench.summarize(PAIRS, "lower")
    # sorted revision values 1.8 2.0 2.0 2.2 2.4; change 1.8 1.9 1.9 2.0 2.1
    assert (s["base_q1"], s["base_median"], s["base_q3"]) == pytest.approx((2.0, 2.0, 2.2))
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == pytest.approx(
        (1.9, 1.9, 2.0))
    assert s["base_iqr"] == pytest.approx(0.2)
    assert s["ratio"] == pytest.approx(0.95)
    assert s["change_wins"] == 4
    assert s["pairs"] == 5 and s["better"] == "lower"


def test_summary_counts_wins_by_the_better_direction_and_no_ties():
    assert pair_bench.summarize(PAIRS, "higher")["change_wins"] == 1
    tied = pair_bench.summarize([(1.0, 1.0), (3.0, 2.0)], "lower")
    assert tied["change_wins"] == 1
    assert (tied["base_q1"], tied["base_median"], tied["base_q3"]) == (1.5, 2.0, 2.5)


def test_summary_of_one_pair():
    s = pair_bench.summarize([(4.0, 5.0)], "lower")
    assert (s["base_q1"], s["base_median"], s["base_q3"]) == (4.0, 4.0, 4.0)
    assert s["ratio"] == 1.25 and s["change_wins"] == 0 and s["base_iqr"] == 0.0


def test_printed_line_carries_the_summary():
    line = pair_bench.format_summary("gauss-1d-cli", "setup_s",
                                     pair_bench.summarize(PAIRS, "lower"))
    assert line.split() == ["gauss-1d-cli", "setup_s", "base", "2", "[2,", "2.2]",
                            "change", "1.9", "[1.9,", "2]", "ratio", "0.9500",
                            "change", "wins", "4/5"]


# The revision's values of ten pairs of a lower-is-better metric: median
# 2.005, quartiles 1.9925 and 2.0275 (IQR 0.035).
BASE10 = [1.97, 2.0, 2.03, 1.99, 2.01, 2.02, 1.98, 2.05, 2.0, 2.03]


@pytest.mark.parametrize("shift, losers, want", [
    (-0.05, 1, "gain"),          # 9/10 wins, median 0.04 below: more than the IQR
    (-0.05, 2, "within bound"),  # 8/10 wins
    (-0.03, 0, "within bound"),  # 10/10 wins, but 0.03 is within the IQR
    (0.45, 0, "within bound"),   # worse by 22.4 %, inside the 25 % bound
    (0.55, 0, "worse"),          # worse by 27.4 %
])
def test_verdict_of_fixed_pairs(shift, losers, want):
    """The verdict: "gain" takes 9 of 10 wins and a median gain beyond the
    revision's IQR, "worse" a median worse by more than bound times the
    revision's median, and the rest is "within bound"; it is stored and
    ends the printed line."""
    pairs = [(b, b + shift) for b in BASE10]
    for i in range(losers):  # the change loses pairs 0.. by a small margin
        pairs[i] = (pairs[i][0], pairs[i][0] + 0.001)
    s = pair_bench.summarize(pairs, "lower", 0.25)
    assert s["base_iqr"] == pytest.approx(0.035)
    assert s["bound"] == 0.25 and s["verdict"] == want
    assert pair_bench.format_summary("gauss-1d-density", "request_per_gauge", s).endswith(want)
    higher = pair_bench.summarize([(-b, -c) for b, c in pairs], "higher", 0.25)
    assert higher["verdict"] == want


# Revision values of ten pairs whose IQR, 1.5, exceeds the 25 % bound
# times their median, 2.0.
BASE_WIDE = [2.0, 3.5, 2.0, 3.5, 2.0, 3.5, 2.0, 3.5, 2.0, 2.0]


@pytest.mark.parametrize("change, want", [
    ([b + 0.01 for b in BASE_WIDE], "unresolved"),  # every pair lost, by 0.5 % at the median
    ([1.99] * 10, "within bound"),  # every change run beats every revision run
    ([b + 0.6 for b in BASE_WIDE], "worse"),  # worse by 30 %: "worse" is checked first
])
def test_verdict_where_the_revision_spreads_past_the_bound(change, want):
    """A revision whose runs spread past the bound cannot show that a
    change is within it: "unresolved", unless every change run beats
    every revision run."""
    s = pair_bench.summarize(list(zip(BASE_WIDE, change)), "lower", 0.25)
    assert (s["base_median"], s["base_iqr"]) == (2.0, 1.5)
    assert s["verdict"] == want
    higher = pair_bench.summarize([(-b, -c) for b, c in zip(BASE_WIDE, change)], "higher", 0.25)
    assert higher["verdict"] == want
