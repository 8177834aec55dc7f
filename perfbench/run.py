"""Closed-loop gait benchmark for triwalk.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare-u A.npy B.npy

``--trace 0`` measures the end-to-end metrics with only ``WalkEngine.tick``
and ``harness.run`` timed.  ``--trace 1`` runs the same units twice, first
with that minimal timing and then with a span around every wrapped layer
function, and reports the per-layer metrics plus the tracing overhead (extra
wall time of the traced pass).  Output checks run in both modes; a failed
check makes the command exit 1 after printing its result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run details (sample
counts, checks, machine and versions) go to ``.bench_out/`` under the
checkout, with the per-tick commands ``u`` of the run's first unit; compare
two such files with ``--compare-u`` (exit 1 when max |du| > 1e-9).
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported: the controller's
# small dense products get slower and far noisier with more threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
U_TOLERANCE = 1e-9


def import_program():
    """Import triwalk from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import triwalk
    if Path(triwalk.__file__).resolve().parent != (src / "triwalk").resolve():
        raise ImportError(f"triwalk imported from {triwalk.__file__}, not {src}")
    return triwalk


def git_commit() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


def run_units(workload, tracer, host, budget_s=None, n_units=None):
    """Run units until ``n_units`` are done or the next one would overrun
    ``budget_s``; always at least one.  ``host`` is sampled before each unit
    (and by the tracer after ticks)."""
    units = []
    t_begin = time.perf_counter()
    while True:
        index = len(units)
        # Collect between units and move the spans kept so far out of the
        # collector's reach, so their growing number does not slow later units.
        gc.collect()
        gc.freeze()
        host.sample()
        tracer.unit = index
        first_sid = len(tracer.spans)
        start_ns = time.perf_counter_ns()
        checks, report = workload.unit(index)
        unit = metrics.Unit(index, start_ns, first_sid, len(tracer.spans), checks, report)
        metrics.index_runs(tracer.spans, unit)
        check_last_tick = getattr(workload, "check_last_tick", None)
        if check_last_tick is not None:
            tick_sids = unit.runs[-1][1] if unit.runs else []
            last = tracer.spans[tick_sids[-1]][5] if tick_sids else None
            checks.append(check_last_tick(last))
        units.append(unit)
        done = len(units)
        if n_units is not None:
            if done >= n_units:
                return units
            continue
        elapsed = time.perf_counter() - t_begin
        if elapsed * (done + 1) / done > budget_s:
            return units


def first_unit_u(spans, unit) -> np.ndarray:
    rows = []
    for _run, tick_sids in unit.runs:
        for sid in tick_sids:
            info = spans[sid][5]
            if info is not None:
                rows.append(np.concatenate([info[1], info[2]]))
    return np.asarray(rows).reshape(-1, 6)


def compare_u(path_a, path_b) -> int:
    a, b = np.load(path_a), np.load(path_b)
    if a.shape != b.shape:
        print(f"shape differs: {a.shape} vs {b.shape}")
        return 1
    delta = float(np.max(np.abs(a - b), initial=0.0))
    ok = delta <= U_TOLERANCE
    print(f"max |du| = {delta:.3e} over {a.shape[0]} ticks "
          f"({'within' if ok else 'beyond'} {U_TOLERANCE:g})")
    return 0 if ok else 1


def checks_of(units):
    return [(u.index, name, ok, detail) for u in units for name, ok, detail in u.checks]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare-u", nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare_u:
        return compare_u(*args.compare_u)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    try:
        th = import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](th, args.seed)
    all_targets = tracing.targets(th)
    e2e_targets = all_targets[:tracing.END_TO_END_TARGETS]

    host = hostspeed.HostSpeed()
    base = tracing.Tracer(after_tick=host.maybe_sample)
    budget = args.seconds / 2 if args.trace else args.seconds
    with base.installed(e2e_targets):
        units = run_units(workload, base, host, budget_s=budget)
    all_checks = checks_of(units)
    scale = hostspeed.Scale(host.samples)
    e2e, counts, n_ticks, failed_ticks = metrics.end_to_end(
        base.spans, units, sum(not ok for _, _, ok, _ in all_checks), scale)

    traced = None
    if args.trace:
        traced_host = hostspeed.HostSpeed()
        traced = tracing.Tracer(after_tick=traced_host.maybe_sample)
        with traced.installed(all_targets):
            traced_units = run_units(workload, traced, traced_host, n_units=len(units))
        traced_scale = hostspeed.Scale(traced_host.samples)
        all_checks += checks_of(traced_units)
        du = np.max(np.abs(first_unit_u(traced.spans, traced_units[0])
                           - first_unit_u(base.spans, units[0])), initial=0.0)
        all_checks.append((-1, "traced pass reproduces the untraced commands", du == 0.0,
                           f"max |du| = {du:.3e}"))
        walls = metrics.end_to_end(traced.spans, traced_units, 0, traced_scale)[0]["wall_s"][0]
        overhead = walls / e2e["wall_s"][0] - 1.0
        layer = metrics.per_layer(traced.spans, traced_units, overhead, traced_scale)
        seen = metrics.span_counts(traced.spans)
        for name in workloads.EXPECTED_SPANS[args.workload]:
            n = seen.get(name, 0)
            all_checks.append((-1, f"layer call {name} recorded", n > 0, f"{n} calls"))

    failed_checks = sum(not ok for _, _, ok, _ in all_checks)
    failed = failed_ticks + failed_checks
    correct = failed == 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    np.save(OUT_DIR / f"u-{stem}.npy", first_unit_u(base.spans, units[0]))
    if traced is not None:
        traced.save(OUT_DIR / f"spans-{stem}.npz")

    shown = layer if args.trace else e2e
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(units)} units, {n_ticks} ticks (closed loop, one client)")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " threads=1")
    for unit_index, name, ok, detail in all_checks:
        where = f"unit {unit_index}" if unit_index >= 0 else "trace"
        print(f"  check [{where}] {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print(f"  host kernel: median {np.median(scale.kernel_ms):.4f} ms over "
          f"{len(scale.kernel_ms)} samples; times below are scaled to a "
          f"{hostspeed.REF_NS / 1e6:g} ms kernel")
    for key, value in units[0].report.items():
        print(f"  {key}: {value}")
    for name, (value, unit_name) in e2e.items():
        print(f"  {name:<18} {value:>14.6g} {unit_name:<5} {counts[name]}")
    if args.trace:
        for name, (value, unit_name) in layer.items():
            print(f"  {name:<28} {value:>14.6g} {unit_name}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one client", "units": len(units),
        "environment": env,
        "host_kernel_ms": {"median": float(np.median(scale.kernel_ms)),
                           "samples": len(scale.kernel_ms), "reference": hostspeed.REF_NS / 1e6},
        "checks": [{"unit": u, "name": n, "ok": ok, "detail": d} for u, n, ok, d in all_checks],
        "reports": [u.report for u in units],
        "end_to_end": {k: {"value": v, "unit": u, "samples": counts[k]}
                       for k, (v, u) in e2e.items()},
    }
    if args.trace:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["span_calls"] = seen
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": n_ticks,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
