"""Replay one unit's QP solves through two checkouts' solvers.

Usage, from anywhere:

    python3 tools/qp_replay.py PARENT_DIR CHANGE_DIR --workload W [--passes 10]

Every ``ActiveSetSolver.solve`` call of one unit runs in PARENT_DIR and is
recorded: its factors' (H, A, soft rows, penalty), its f and b, and which
earlier recorded call returned the ``active_set`` it was warm-started from.
W is ``short_push``, a 2.6 s noisy walk with a 440 N push that this script
runs through ``harness.run`` without ``perfbench``, or the name of a workload
in PARENT_DIR's ``perfbench/workloads.py``, whose unit 0 at seed 0 is
recorded.

Each checkout then replays the calls in order in its own process, through
its own ``QpFactors.build`` / ``soften`` and its own solver.  A call warm-
started from an earlier call's set gets the set that the replaying side
itself returned for that call, so calls that share a warm start, as the
forked probes of a bisection do, share it in the replay too.  The sides take
turns, one pass each, the parent first on even passes, both pinned to the
same CPU where the platform allows it.

The script prints, per group of calls, each side's median over the passes of
the pass's median solve time, and whether z, status, active set and
iterations are bitwise equal on every call.  The groups follow the parent's
replayed solutions: an empty exit (empty final active set), a non-empty exit
after 0 iterations (the warm start held), after 1-5 and after 6 or more.
Exit status 1 means a call differs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

GROUPS = ("empty exit", "0 iterations", "1-5 iterations", "6+ iterations")
# One BLAS thread, as the bench runs: small products are faster and steadier.
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def import_program(checkout: Path):
    """Import triwalk from ``checkout/src`` and nowhere else."""
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import triwalk
    if Path(triwalk.__file__).resolve().parent != src / "triwalk":
        raise ImportError(f"triwalk imported from {triwalk.__file__}, not {src}")
    return triwalk


def record(checkout: Path, workload: str, out: Path) -> None:
    """Run one unit of ``workload`` in ``checkout`` and pickle its solves."""
    th = import_program(checkout)
    solver_cls = th.qp.ActiveSetSolver
    factors, calls, returned = {}, [], {}
    solve = solver_cls.solve

    def recorded(self, problem, warm_start=None):
        fac = problem.factors
        if id(fac) not in factors:
            pen = 1.0 / fac.reg[fac.soft_rows[0]] if fac.soft_rows.size else 1.0
            if np.any(1.0 / pen != fac.reg[fac.soft_rows]):
                raise ValueError("soft rows do not share one penalty")
            soft = np.zeros(fac.A.shape[0], bool)
            soft[fac.soft_rows] = True
            factors[id(fac)] = (len(factors), fac, (fac.H, fac.A, soft, pen))
        warm = -1
        if warm_start is not None:
            if id(warm_start) not in returned:
                raise ValueError("a warm start that no recorded solve returned")
            warm = returned[id(warm_start)][0]
        sol = solve(self, problem, warm_start)
        # Holding each set keeps its id from being reused.
        returned[id(sol.active_set)] = (len(calls), sol.active_set)
        calls.append((factors[id(fac)][0], np.array(problem.f, float),
                      np.array(problem.b, float), warm))
        return sol

    solver_cls.solve = recorded
    if workload == "short_push":
        # A 440 N push makes the noisy walk struggle and fall.
        th.harness.run(th.harness.disturbance_scenario(440.0, run_time=2.6))
    else:
        sys.path.insert(0, str(checkout / "perfbench"))
        import workloads
        workloads.WORKLOADS[workload](th, 0).unit(0)
    solver_cls.solve = solve
    # Factors are numbered in insertion order, which the dict keeps.
    out.write_bytes(pickle.dumps({"factors": [data for _, _, data in factors.values()],
                                  "calls": calls}))


def fingerprint(sol) -> list:
    return [hashlib.blake2b(np.ascontiguousarray(sol.z).tobytes(), digest_size=16).hexdigest(),
            sol.status, [int(i) for i in sol.active_set], sol.iterations]


def replay(checkout: Path, recording: Path) -> None:
    """Serve passes over the recorded calls: one JSON line per ``pass`` line
    on stdin, with each call's solve time and, on the first pass, each
    solution's fingerprint."""
    if hasattr(os, "sched_setaffinity"):
        # Both sides on one CPU: on a shared host the CPUs differ in load,
        # and a side that kept another CPU would read faster or slower.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    qp = import_program(checkout).qp
    data = pickle.loads(recording.read_bytes())
    facs = []
    for H, A, soft, pen in data["factors"]:
        fac = qp.QpFactors.build(H, A)
        facs.append(fac.soften(soft, pen) if soft.any() else fac)
    calls = [(qp.QpProblem(facs[i], f, b), warm) for i, f, b, warm in data["calls"]]
    solver = qp.ActiveSetSolver()
    sets = [None] * len(calls)
    first = True
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        times, prints = [], []
        gc.collect()
        gc.disable()
        for i, (problem, warm) in enumerate(calls):
            start = sets[warm] if warm >= 0 else None
            t0 = time.perf_counter()
            sol = solver.solve(problem, start)
            times.append(time.perf_counter() - t0)
            sets[i] = sol.active_set
            if first:
                prints.append(fingerprint(sol))
        gc.enable()
        print(json.dumps({"times": times, "prints": prints}), flush=True)
        first = False


def group_of(fp) -> int:
    _, _, active, iterations = fp
    if not active:
        return 0
    return 1 if iterations == 0 else 2 if iterations <= 5 else 3


def compare(parent: list, change: list) -> dict:
    """Calls whose z, status, active set or iterations differ, per field."""
    fields = ("z", "status", "active set", "iterations")
    return {name: sum(p[j] != c[j] for p, c in zip(parent, change))
            for j, name in enumerate(fields)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_record"]:
        record(Path(argv[1]), argv[2], Path(argv[3]))
        return 0
    if argv[:1] == ["_replay"]:
        replay(Path(argv[1]), Path(argv[2]))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True,
                    help="short_push or a perfbench workload")
    ap.add_argument("--passes", type=int, default=10, help="passes per side")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be positive")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    me = str(Path(__file__).resolve())

    with tempfile.TemporaryDirectory() as tmp:
        recording = Path(tmp) / "calls.pkl"
        subprocess.run([sys.executable, me, "_record", str(sides["parent"]), args.workload,
                        str(recording)], env=ENV, check=True)
        workers = {side: subprocess.Popen([sys.executable, me, "_replay", str(path),
                                           str(recording)], env=ENV, text=True,
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
                   for side, path in sides.items()}
        medians = {side: [] for side in sides}
        prints = {}
        try:
            for k in range(args.passes):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    workers[side].stdin.write("pass\n")
                    workers[side].stdin.flush()
                    result = json.loads(workers[side].stdout.readline())
                    prints.setdefault(side, result["prints"])
                    medians[side].append(result["times"])
        finally:
            for w in workers.values():
                w.stdin.close()
                w.wait()

    group = np.array([group_of(fp) for fp in prints["parent"]])
    n = len(group)
    print(f"qp_replay {args.workload}: {n} solves, {args.passes} alternated passes per side")
    print(f"  {'group':<15} {'calls':>6} {'parent us':>10} {'change us':>10} {'change':>8}")
    for g, name in enumerate(GROUPS):
        sel = group == g
        if not sel.any():
            print(f"  {name:<15} {0:>6}")
            continue
        us = {side: 1e6 * float(np.median([np.median(np.asarray(t)[sel]) for t in runs]))
              for side, runs in medians.items()}
        print(f"  {name:<15} {int(sel.sum()):>6} {us['parent']:>10.1f} {us['change']:>10.1f} "
              f"{us['change'] / us['parent'] - 1.0:>+8.1%}")
    diff = compare(prints["parent"], prints["change"])
    if not any(diff.values()):
        print(f"  bitwise equal: z, status, active set and iterations on all {n} solves")
        return 0
    print("  NOT bitwise equal: " + ", ".join(f"{name} differs on {c} of {n} solves"
                                             for name, c in diff.items() if c))
    return 1


if __name__ == "__main__":
    sys.exit(main())
