"""Alternated benchmark pairs of two checkouts.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [W ...] \\
        --pairs N --seconds 35 [--first-seed 0] [--traced] [--out pairs.json]

Each directory is a checkout with its own ``perfbench/run.py``; each side
runs its own copy, so both measure the code they sit beside.  Pair i runs
``--seed first_seed + i`` on both sides, the parent first on even i and the
change first on odd i, so drift of a shared host hits both sides alike.

Per workload and end-to-end metric the script prints each side's median and
quartiles, the relative change of the medians and the pairs the change won
(ties count for neither side).  Direction and regression bound come from
``CHANGE_DIR/BENCHMARK.json``.  A gain is shown when there are at least ten
pairs, the change wins at least nine tenths of them and the medians differ
by more than the parent's interquartile range; a metric is worse than its
bound when the change's median is worse than the parent's by more than the
bound, relative to the parent's median.  After each pair, the two sides'
per-tick commands (``.bench_out/u-<workload>-seed<seed>.npy``, written by
``perfbench/run.py``) give the pair's max |du|, inf when a file is missing
or the shapes differ, and the parent's max |u|, nan when its file is
missing; the largest |du| over the pairs is printed, also divided by the
largest |u|, with each side's median ``attempted`` (ticks per run: a faster
tick fits more ticks, and more per-tick records, into the fixed run time).
When the two sides' command arrays differ in shape, both shapes are
recorded for the pair and printed, so an inf |du| from a change in the
number of ticks a unit runs reads apart from a changed command.
``--traced`` adds a ``--trace 1`` run of each side to every pair, at the
pair's seed and in the pair's order, and prints each per-layer metric as
each side's median and quartiles over the pairs, since one traced run per
side swings with the host.  ``--out`` writes everything, each run's value
and each pair's max |du| and max |u| included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

# A gain needs at least this many pairs: with fewer, chance alone wins nine
# tenths of them too often (four of four, one time in sixteen).
MIN_GAIN_PAIRS = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run of ``checkout``; its final JSON line."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def u_file(checkout: Path, workload: str, seed: int) -> Path:
    return checkout / ".bench_out" / f"u-{workload}-seed{seed}.npy"


def max_abs_du(path_a: Path, path_b: Path) -> float:
    """Largest |du| between two saved command arrays; inf when either file
    is missing or their shapes differ."""
    try:
        a, b = np.load(path_a), np.load(path_b)
    except FileNotFoundError:
        return math.inf
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b), initial=0.0))


def u_shapes(path_a: Path, path_b: Path) -> list[list[int]] | None:
    """Both saved command arrays' shapes when they differ; None when they
    agree or a file is missing."""
    try:
        a, b = (np.load(path, mmap_mode="r").shape for path in (path_a, path_b))
    except FileNotFoundError:
        return None
    return [list(a), list(b)] if a != b else None


def max_abs_u(path: Path) -> float:
    """Largest |u| of a saved command array; nan when the file is missing."""
    try:
        return float(np.max(np.abs(np.load(path)), initial=0.0))
    except FileNotFoundError:
        return math.nan


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(np.asarray(values, float), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, pair wins and the gain and bound verdicts of one
    metric; ``spec`` is its ``BENCHMARK.json`` entry."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    rel = (cm - pm) / pm if pm else 0.0
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent_q1": p1, "parent_median": pm, "parent_q3": p3,
        "change_q1": c1, "change_median": cm, "change_q3": c3,
        "rel_change": rel, "change_wins": int(wins), "pairs": len(parent),
        "gain_shown": bool(len(parent) >= MIN_GAIN_PAIRS and wins >= 0.9 * len(parent)
                           and sign * (cm - pm) < -(p3 - p1)),
        "worse_than_bound": bool(sign * rel > spec["bound"]),
        "parent_runs": parent, "change_runs": change,
    }


def per_layer(parent: list[dict], change: list[dict]) -> dict:
    """Each side's quartiles and runs of every metric of its traced runs
    (each run's ``metrics``); a metric missing from a run counts as nan."""
    out = {}
    for name, first in parent[0].items():
        m = {"unit": first["unit"]}
        for side, rs in (("parent", parent), ("change", change)):
            vs = [r.get(name, {}).get("value", math.nan) for r in rs]
            m.update(zip((f"{side}_q1", f"{side}_median", f"{side}_q3"), quartiles(vs)))
            m[f"{side}_runs"] = vs
        out[name] = m
    return out


def measure(parent_dir: Path, change_dir: Path, workload: str, args, specs) -> dict:
    sides = {"parent": parent_dir, "change": change_dir}
    runs = {"parent": [], "change": []}
    traced = {"parent": [], "change": []}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    du, u, shapes = [], [], []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            # A stale file of an earlier run must not stand in for this one's.
            u_file(sides[side], workload, seed).unlink(missing_ok=True)
            result = run_bench(sides[side], workload, seed, args.seconds, 0)
            runs[side].append(result)
            print(f"  {workload} seed {seed} {side}: correct={result['correct']} "
                  f"tick_p99_ms={result['metrics'].get('tick_p99_ms', {}).get('value')}",
                  file=sys.stderr, flush=True)
        files = [u_file(sides[side], workload, seed) for side in ("parent", "change")]
        du.append(max_abs_du(*files))
        shapes.append(u_shapes(*files))
        u.append(max_abs_u(u_file(parent_dir, workload, seed)))
        if args.traced:
            for side in order:
                traced[side].append(run_bench(sides[side], workload, seed, args.seconds, 1))
    record = {
        "pairs": args.pairs, "seeds": seeds, "seconds": args.seconds,
        "first_side": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "max_abs_du": du,
        "max_abs_u": u,
        "u_shapes": shapes,
        "metrics": {
            spec["name"]: compare(spec, *([r["metrics"][spec["name"]]["value"] for r in runs[side]]
                                          for side in ("parent", "change")))
            for spec in specs
        },
    }
    if args.traced:
        record["traced_correct"] = {side: all(r["correct"] for r in rs)
                                    for side, rs in traced.items()}
        record["per_layer"] = per_layer(*([r["metrics"] for r in traced[side]]
                                          for side in ("parent", "change")))
    return record


def print_table(workload: str, record: dict) -> None:
    du = max(record["max_abs_du"])
    ticks = {side: np.median(n) for side, n in record["attempted"].items()}
    print(f"{workload}: {record['pairs']} pairs, seeds {record['seeds'][0]}.."
          f"{record['seeds'][-1]}, all correct: {record['correct']}, "
          f"max |du| over the pairs {du:.3e}, max |du| / max |u| "
          f"{du / np.max(record['max_abs_u']):.3e}, median ticks per run parent "
          f"{ticks['parent']:g} change {ticks['change']:g}")
    for seed, pair in zip(record["seeds"], record["u_shapes"]):
        if pair is not None:
            print(f"  seed {seed}: command shapes differ, parent {tuple(pair[0])} "
                  f"change {tuple(pair[1])}")
    for name, m in record["metrics"].items():
        flags = ("  GAIN" if m["gain_shown"] else "") + ("  WORSE" if m["worse_than_bound"] else "")
        print(f"  {name:<18} parent {m['parent_median']:.6g} [{m['parent_q1']:.6g}, "
              f"{m['parent_q3']:.6g}]  change {m['change_median']:.6g} [{m['change_q1']:.6g}, "
              f"{m['change_q3']:.6g}]  {m['rel_change']:+.1%}  wins {m['change_wins']}/"
              f"{m['pairs']} {m['unit']}{flags}")
    for name, m in record.get("per_layer", {}).items():
        print(f"  {name:<28} parent {m['parent_median']:.6g} [{m['parent_q1']:.6g}, "
              f"{m['parent_q3']:.6g}]  change {m['change_median']:.6g} [{m['change_q1']:.6g}, "
              f"{m['change_q3']:.6g}] {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--traced", action="store_true",
                    help="add a traced run of each side to every pair")
    ap.add_argument("--out", type=Path, help="write the results as JSON here")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        ap.error("--pairs and --seconds must be positive")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            ap.error(f"{checkout} has no perfbench/run.py")
    specs = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]

    results = {}
    for workload in args.workload:
        results[workload] = measure(args.parent.resolve(), args.change.resolve(), workload,
                                    args, specs)
        print_table(workload, results[workload])
    if args.out is not None:
        args.out.write_text(json.dumps({
            "command": " ".join(["python3", "tools/bench_pairs.py", "PARENT", "CHANGE",
                                 "--workload", *args.workload, "--pairs", str(args.pairs),
                                 "--seconds", f"{args.seconds:g}", "--first-seed",
                                 str(args.first_seed)] + (["--traced"] if args.traced else [])),
            "workloads": results,
        }, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
