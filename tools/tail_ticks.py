"""Where the slowest ticks of a run spend their time, per checkout.

Usage, from anywhere:

    python3 tools/tail_ticks.py CHECKOUT [CHECKOUT ...] --workload W \\
        [--seed 0] [--units 1] [--duration S]

W is a scenario name of ``tools/run_digest.py`` (``tracking``,
``omnidirectional``, ...), run once through ``harness.run``, ``--duration``
replacing its duration if given; or a workload of the checkout's
``perfbench/workloads.py``, whose units 0 .. units - 1 run at ``--seed``
(perfbench is imported, never written).

Each checkout runs in its own process with its own ``triwalk`` and one BLAS
thread, as ``tools/run_digest.py`` runs them, but one after another, so the
timed runs do not share the CPU.  Every ``WalkEngine.tick`` is timed, and
within it the time spent in six parts, each at a function that the checkouts
being compared all have:

- timeline: ``WalkTimeline.__init__``;
- synthesis: ``WalkEngine._synthesize_plan``;
- frame table: ``WalkEngine._window_row`` when it rebuilds the engine's
  tables (entered with ``_refs`` None);
- phase boxes: ``WalkEngine._phase_box``;
- QP: ``ActiveSetSolver.solve``;
- observer: ``Observer.innovation_sigmas`` and ``Observer.step``.

Per checkout the script prints the number of ticks and the tick time's p50,
p95 and p99, then two bands of ticks: the slowest 1 % (at or above p99) and
the p95-p99 band.  Per band it gives the mean tick time and, per part, the
mean time over the band's ticks (zero for a tick that did not call the part)
and the share of the band's ticks that called it.  Times are wall clock in
microseconds; the timers' own cost is inside the tick times.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from qp_replay import ENV, import_program   # one BLAS thread; triwalk from one checkout
from run_digest import SCENARIOS, WORKLOADS

PARTS = ("timeline", "synthesis", "frame table", "phase boxes", "QP", "observer")
BANDS = (("slowest 1 %", 0.99, None), ("p95-p99", 0.95, 0.99))


def timed_parts(th):
    """(owner, attribute, part, condition on the call's arguments or None)
    of every timed function."""
    eng, ref, mpc, qp = th.engine, th.refgen, th.mpc, th.qp
    return [
        (ref.WalkTimeline, "__init__", "timeline", None),
        (eng.WalkEngine, "_synthesize_plan", "synthesis", None),
        (eng.WalkEngine, "_window_row", "frame table", lambda engine: engine._refs is None),
        (eng.WalkEngine, "_phase_box", "phase boxes", None),
        (qp.ActiveSetSolver, "solve", "QP", None),
        (mpc.Observer, "innovation_sigmas", "observer", None),
        (mpc.Observer, "step", "observer", None),
    ]


def record_ticks(th) -> list:
    """Wrap ``WalkEngine.tick`` and the parts; return the list that gets one
    row per tick: the tick's ns, then per part its ns and its call count."""
    rows, clock = [], time.perf_counter_ns
    current = None   # the running tick's row

    def wrap_part(orig, part, when):
        col = 1 + 2 * PARTS.index(part)

        def wrapper(*args, **kwargs):
            row = current
            if row is None or (when is not None and not when(*args)):
                return orig(*args, **kwargs)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                row[col] += clock() - t0
                row[col + 1] += 1
        return wrapper

    for owner, attr, part, when in timed_parts(th):
        setattr(owner, attr, wrap_part(getattr(owner, attr), part, when))
    tick = th.engine.WalkEngine.tick

    def timed_tick(*args, **kwargs):
        nonlocal current
        row = current = [0] * (1 + 2 * len(PARTS))
        t0 = clock()
        try:
            return tick(*args, **kwargs)
        finally:
            row[0] = clock() - t0
            current = None
            rows.append(row)

    th.engine.WalkEngine.tick = timed_tick
    return rows


def summarize(rows) -> dict:
    """Tick count, p50/p95/p99 (us) and, per band, its tick count, mean tick
    time and per part the mean time (us) and the share of ticks calling it
    (None in an empty band)."""
    data = np.asarray(rows, dtype=float).reshape(-1, 1 + 2 * len(PARTS))
    if not len(data):
        raise ValueError("no tick was recorded")
    total_us = data[:, 0] / 1e3
    out = {"ticks": len(data),
           **{f"p{q}_us": float(np.percentile(total_us, q)) for q in (50, 95, 99)}}
    for name, lo, hi in BANDS:
        picked = total_us >= np.quantile(total_us, lo)
        if hi is not None:
            picked &= total_us < np.quantile(total_us, hi)
        band = data[picked]
        n = len(band)
        out[name] = {
            "ticks": n,
            "tick_us": float(band[:, 0].mean() / 1e3) if n else None,
            **{part: {"mean_us": float(band[:, 1 + 2 * i].mean() / 1e3) if n else None,
                      "share": float((band[:, 2 + 2 * i] > 0).mean()) if n else None}
               for i, part in enumerate(PARTS)},
        }
    return out


def run_side(checkout: Path, workload: str, seed: int, units: int,
             duration: float | None) -> None:
    """Run the workload in ``checkout``; print its summary as one JSON line."""
    th = import_program(checkout)
    rows = record_ticks(th)
    if workload in SCENARIOS:
        scenario = SCENARIOS[workload](th.harness)
        if duration is not None:
            scenario = replace(scenario, duration=duration)
        th.harness.run(scenario)
    else:
        sys.path.insert(0, str(checkout / "perfbench"))
        import workloads
        unit_source = workloads.WORKLOADS[workload](th, seed)
        for index in range(units):
            unit_source.unit(index)
    print(json.dumps(summarize(rows)))


def _cell(value, fmt: str) -> str:
    return "-" if value is None else format(value, fmt)


def report(label: str, summary: dict) -> list[str]:
    lines = [f"{label}: {summary['ticks']} ticks, p50 {summary['p50_us']:.0f} us, "
             f"p95 {summary['p95_us']:.0f} us, p99 {summary['p99_us']:.0f} us",
             f"  {'band':<12} {'ticks':>6} {'tick us':>8}"
             + "".join(f" | {part:>16}" for part in PARTS)]
    for name, _, _ in BANDS:
        band = summary[name]
        cells = "".join(f" | {_cell(band[part]['mean_us'], '8.1f')} us "
                        f"{_cell(band[part]['share'], '4.0%'):>4}" for part in PARTS)
        lines.append(f"  {name:<12} {band['ticks']:>6} {_cell(band['tick_us'], '8.1f')}{cells}")
    return lines


def check_workload(name: str) -> str:
    if name in SCENARIOS or name in WORKLOADS:
        return name
    raise argparse.ArgumentTypeError(
        f"{name!r} is neither a scenario ({', '.join(SCENARIOS)}) "
        f"nor a workload ({', '.join(WORKLOADS)})")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_side"]:
        _, checkout, workload, seed, units, duration = argv
        run_side(Path(checkout), workload, int(seed), int(units),
                 None if duration == "-" else float(duration))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", type=Path, nargs="+", metavar="CHECKOUT")
    ap.add_argument("--workload", type=check_workload, required=True,
                    help="a run_digest scenario name or a perfbench workload")
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--units", type=int, default=1, help="workload units to run")
    ap.add_argument("--duration", type=float, default=None,
                    help="simulated seconds of a scenario (its own by default)")
    args = ap.parse_args(argv)
    if args.units < 1 or (args.duration is not None and args.duration <= 0):
        ap.error("--units and --duration must be positive")
    me = str(Path(__file__).resolve())
    print(f"tail_ticks: {args.workload}"
          + (f", seed {args.seed}, {args.units} unit(s)" if args.workload in WORKLOADS else ""))
    for checkout in args.checkouts:
        proc = subprocess.run(
            [sys.executable, me, "_side", str(checkout.resolve()), args.workload,
             str(args.seed), str(args.units),
             "-" if args.duration is None else repr(args.duration)],
            env=ENV, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{checkout} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(report(str(checkout), json.loads(proc.stdout.strip().splitlines()[-1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
