"""The verdicts of ``tools/bench_pairs.py`` on hand-made pair values."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

LOWER = {"unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "frac", "better": "higher", "bound": 0.05}


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [p - 5.0 for p in parent]
    m = bench_pairs.compare(LOWER, parent, change)
    assert (m["parent_q1"], m["parent_median"], m["parent_q3"]) == (11.0, 12.0, 13.0)
    assert m["change_wins"] == 10 and m["gain_shown"] and not m["worse_than_bound"]
    assert m["rel_change"] == pytest.approx(-5.0 / 12.0)
    # A shift inside the parent's interquartile range shows no gain, however
    # many pairs it wins.
    assert not bench_pairs.compare(LOWER, parent, [p - 1.5 for p in parent])["gain_shown"]
    # Two lost pairs of ten are too many.
    assert not bench_pairs.compare(LOWER, parent, change[:8] + parent[8:])["gain_shown"]


def test_ties_count_for_neither_side_and_direction_follows_the_spec():
    parent = [1.0, 1.0, 1.0, 1.0]
    m = bench_pairs.compare(HIGHER, parent, [1.0, 1.0, 0.9, 1.0])
    assert m["change_wins"] == 0
    assert m["worse_than_bound"] is False   # median unchanged
    worse = bench_pairs.compare(HIGHER, parent, [0.9, 0.9, 0.9, 0.9])
    assert worse["worse_than_bound"] and worse["change_wins"] == 0
    better = bench_pairs.compare(HIGHER, parent, [1.1, 1.1, 1.1, 1.1])
    assert better["change_wins"] == 4 and better["gain_shown"]
