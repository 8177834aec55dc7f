"""The verdicts of ``tools/bench_pairs.py`` on hand-made pair values."""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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
    # Four won pairs of four are too few to show a gain.
    assert better["change_wins"] == 4 and not better["gain_shown"]
    assert bench_pairs.compare(HIGHER, parent * 3, [1.1] * 12)["gain_shown"]


def test_gain_needs_ten_pairs():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0] * 2
    change = [p - 5.0 for p in parent]
    nine = bench_pairs.compare(LOWER, parent[:9], change[:9])
    assert nine["change_wins"] == 9 and not nine["gain_shown"]
    ten = bench_pairs.compare(LOWER, parent, change)
    assert ten["change_wins"] == 10 and ten["gain_shown"]


def test_max_abs_du_reads_the_saved_commands(tmp_path):
    u = np.arange(12.0).reshape(2, 6)
    shifted = u.copy()
    shifted[1, 4] += 0.25
    for name, value in (("u", u), ("same", u.copy()), ("shifted", shifted), ("short", u[:1])):
        np.save(tmp_path / f"{name}.npy", value)
    du = bench_pairs.max_abs_du
    assert du(tmp_path / "u.npy", tmp_path / "same.npy") == 0.0
    assert du(tmp_path / "u.npy", tmp_path / "shifted.npy") == 0.25
    assert du(tmp_path / "u.npy", tmp_path / "short.npy") == math.inf
    assert du(tmp_path / "u.npy", tmp_path / "missing.npy") == math.inf
    assert du(tmp_path / "missing.npy", tmp_path / "u.npy") == math.inf


def test_max_abs_u_reads_the_parents_commands(tmp_path):
    u = np.array([[0.5, -3.0, 1.0], [2.0, 0.0, -0.25]])
    np.save(tmp_path / "u.npy", u)
    np.save(tmp_path / "zero.npy", np.zeros((2, 3)))
    np.save(tmp_path / "empty.npy", np.zeros((0, 6)))
    assert bench_pairs.max_abs_u(tmp_path / "u.npy") == 3.0
    assert bench_pairs.max_abs_u(tmp_path / "zero.npy") == 0.0
    assert bench_pairs.max_abs_u(tmp_path / "empty.npy") == 0.0
    assert math.isnan(bench_pairs.max_abs_u(tmp_path / "missing.npy"))


def test_each_pair_records_its_max_abs_du(tmp_path, monkeypatch, capsys):
    # The change's command differs at seed 1 and is not written at seed 2,
    # where a stale file of an earlier run must not count.
    parent, change = tmp_path / "parent", tmp_path / "change"

    def fake_run(checkout, workload, seed, seconds, trace):
        u = np.zeros((3, 6))
        u[0, 0] = 1e-3 if (checkout, seed) == (change, 1) else 0.0
        u[2, 5] = -2.0 - seed
        if (checkout, seed) != (change, 2):
            np.save(bench_pairs.u_file(checkout, workload, seed), u)
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}

    for checkout in (parent, change):
        (checkout / ".bench_out").mkdir(parents=True)
    np.save(bench_pairs.u_file(change, "walk_map", 2), np.zeros((3, 6)))
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    args = SimpleNamespace(first_seed=0, pairs=3, seconds=1.0, traced=False)
    record = bench_pairs.measure(parent, change, "walk_map", args, [{"name": "wall_s", **LOWER}])
    assert record["max_abs_du"] == [0.0, 1e-3, math.inf]
    assert record["max_abs_u"] == [2.0, 3.0, 4.0]
    record["max_abs_du"][2] = 1e-3
    bench_pairs.print_table("walk_map", record)
    out = capsys.readouterr().out
    assert "max |du| over the pairs 1.000e-03, max |du| / max |u| 2.500e-04" in out


def test_shape_changes_are_recorded_and_printed(tmp_path, monkeypatch, capsys):
    # A unit that runs fewer ticks gives an inf |du| by construction; both
    # shapes are kept for that pair, and pairs of equal shape record None.
    parent, change = tmp_path / "parent", tmp_path / "change"

    def fake_run(checkout, workload, seed, seconds, trace):
        ticks = 1720 if (checkout, seed) == (change, 0) else 2200
        np.save(bench_pairs.u_file(checkout, workload, seed), np.zeros((ticks, 6)))
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0}}}

    for checkout in (parent, change):
        (checkout / ".bench_out").mkdir(parents=True)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    args = SimpleNamespace(first_seed=0, pairs=2, seconds=1.0, traced=False)
    record = bench_pairs.measure(parent, change, "push_bisect", args, [{"name": "wall_s", **LOWER}])
    assert record["max_abs_du"] == [math.inf, 0.0]
    assert record["u_shapes"] == [[[2200, 6], [1720, 6]], None]
    present = bench_pairs.u_file(parent, "push_bisect", 0)
    assert bench_pairs.u_shapes(tmp_path / "missing.npy", present) is None
    bench_pairs.print_table("push_bisect", record)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "  seed 0: command shapes differ, parent (2200, 6) change (1720, 6)"
    assert not any("seed 1:" in line for line in lines)


def test_header_prints_each_sides_median_ticks_per_run(tmp_path, monkeypatch, capsys):
    # ``attempted`` is the run's tick count; the change runs more ticks.
    parent, change = tmp_path / "parent", tmp_path / "change"

    def fake_run(checkout, workload, seed, seconds, trace):
        np.save(bench_pairs.u_file(checkout, workload, seed), np.ones((2, 6)))
        attempted = 100 + seed if checkout == parent else 130 + 10 * seed
        return {"correct": True, "attempted": attempted, "failed": 0,
                "metrics": {"wall_s": {"value": 1.0}}}

    for checkout in (parent, change):
        (checkout / ".bench_out").mkdir(parents=True)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    args = SimpleNamespace(first_seed=0, pairs=4, seconds=1.0, traced=False)
    record = bench_pairs.measure(parent, change, "omni_turn", args, [{"name": "wall_s", **LOWER}])
    assert record["attempted"] == {"parent": [100, 101, 102, 103], "change": [130, 140, 150, 160]}
    bench_pairs.print_table("omni_turn", record)
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("omni_turn: 4 pairs")
    assert header.endswith("median ticks per run parent 101.5 change 145")


def test_traced_runs_at_every_pairs_seed_give_per_layer_quartiles(tmp_path, monkeypatch, capsys):
    # Each pair adds one traced run per side, at its own seed and in its own
    # order; a per-layer metric is summarised by each side's quartiles.
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == parent else "change"
        calls.append((side, seed, trace))
        np.save(bench_pairs.u_file(checkout, workload, seed), np.ones((2, 6)))
        metrics = {"wall_s": {"value": 1.0, "unit": "s"}}
        if trace:
            solve_s = 2.0 + seed if side == "parent" else 1.0 + seed
            metrics["qp.solve_s"] = {"value": solve_s, "unit": "s"}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    for checkout in (parent, change):
        (checkout / ".bench_out").mkdir(parents=True)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    args = SimpleNamespace(first_seed=3, pairs=5, seconds=1.0, traced=True)
    record = bench_pairs.measure(parent, change, "push_bisect", args, [{"name": "wall_s", **LOWER}])
    assert calls[:8] == [("parent", 3, 0), ("change", 3, 0), ("parent", 3, 1), ("change", 3, 1),
                         ("change", 4, 0), ("parent", 4, 0), ("change", 4, 1), ("parent", 4, 1)]
    order = [("parent", "change") if i % 2 == 0 else ("change", "parent") for i in range(5)]
    assert [c for c in calls if c[2]] == [(side, 3 + i, 1) for i, o in enumerate(order) for side in o]
    assert record["traced_correct"] == {"parent": True, "change": True}
    m = record["per_layer"]["qp.solve_s"]
    assert m["parent_runs"] == [5.0, 6.0, 7.0, 8.0, 9.0]
    assert (m["parent_q1"], m["parent_median"], m["parent_q3"]) == (6.0, 7.0, 8.0)
    assert (m["change_q1"], m["change_median"], m["change_q3"]) == (5.0, 6.0, 7.0)
    bench_pairs.print_table("push_bisect", record)
    out = capsys.readouterr().out
    assert "qp.solve_s" in out and "parent 7 [6, 8]  change 6 [5, 7] s" in out
