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
