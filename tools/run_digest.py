"""Compare every closed-loop run of two checkouts bit for bit.

Usage, from anywhere:

    python3 tools/run_digest.py PARENT_DIR CHANGE_DIR [--runs NAME [NAME ...]]

A run name is a scenario factory of ``triwalk.harness`` with fixed arguments
(see ``SCENARIOS``), run once through ``harness.run``; the path of a
scenario JSON file, run once as ``harness.run(Scenario.from_json(path))``;
or ``W:SEED``, unit 0 of the workload W of the checkout's
``perfbench/workloads.py`` at that seed (perfbench is imported, never
written).  The default is every scenario and unit 0 of every workload at
seed 0.

Each checkout runs the names in its own process, the two at once, with its
own ``triwalk`` and one BLAS thread, and digests every ``harness.run`` call
the name makes, the probes of a ``max_withstand`` included: its
``summary()`` as JSON and each trace field as a hash of its dtype, shape and
bytes.  The script prints,
per name, the number of runs and whether every run's summary and trace
fields are bitwise equal, naming the parts that differ.  Exit status 1 means
a run differs or the two sides made a different number of runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from qp_replay import ENV, import_program   # one BLAS thread; triwalk from one checkout

SCENARIOS = {
    "tracking": lambda hr: hr.tracking_scenario(),
    "tracking_noise": lambda hr: hr.tracking_scenario(noise=True),
    "inplace": lambda hr: hr.inplace_scenario(),
    "push_440": lambda hr: hr.disturbance_scenario(440.0),
    "omnidirectional": lambda hr: hr.omnidirectional_scenario(),
    # One noisy step under a push: about 0.1 s of ticks.
    "short_push": lambda hr: hr.disturbance_scenario(440.0, run_time=2.0),
}
WORKLOADS = ("walk_map", "omni_turn", "push_bisect")
DEFAULT_RUNS = (*SCENARIOS, *(f"{w}:0" for w in WORKLOADS))


def digest(metrics) -> dict:
    """A run's summary as JSON and each trace field's hash."""
    parts = {"summary": json.dumps(metrics.summary(), sort_keys=True)}
    trace = metrics.trace
    for f in fields(trace) if trace is not None else ():
        value = getattr(trace, f.name)
        if isinstance(value, np.ndarray):
            data = repr((value.dtype.str, value.shape)).encode()
            data += np.ascontiguousarray(value).tobytes()
        else:
            data = repr(value).encode()
        parts[f.name] = hashlib.blake2b(data, digest_size=16).hexdigest()
    return parts


def run_side(checkout: Path, names: list[str]) -> None:
    """Run ``names`` in ``checkout``; print one JSON object of each name's
    run digests."""
    th = import_program(checkout)
    hr = th.harness
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads
    runs, run = [], hr.run

    def recorded(*args, **kwargs):
        metrics = run(*args, **kwargs)
        runs.append(digest(metrics))
        return metrics

    hr.run = recorded
    out = {}
    for name in names:
        runs.clear()
        if name in SCENARIOS:
            hr.run(SCENARIOS[name](hr))
        elif Path(name).is_file():
            hr.run(hr.Scenario.from_json(name))
        else:
            workload, seed = name.split(":")
            workloads.WORKLOADS[workload](th, int(seed)).unit(0)
        out[name] = list(runs)
    print(json.dumps(out))


def compare(parent: list[dict], change: list[dict]) -> list[str]:
    """The parts that differ between two sides' runs of one name."""
    if len(parent) != len(change):
        return [f"{len(parent)} runs against {len(change)}"]
    differ = []
    for p, c in zip(parent, change):
        differ += [key for key in {**p, **c} if p.get(key) != c.get(key) and key not in differ]
    return differ


def check_name(name: str) -> str:
    if name in SCENARIOS or Path(name).is_file():
        return name
    workload, _, seed = name.partition(":")
    if workload not in WORKLOADS or not seed.isdigit():
        raise argparse.ArgumentTypeError(
            f"{name!r} is neither a scenario ({', '.join(SCENARIOS)}), a scenario file "
            f"nor W:SEED with W one of {', '.join(WORKLOADS)}")
    return name


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["_side"]:
        run_side(Path(argv[1]), argv[2:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--runs", nargs="+", type=check_name, default=list(DEFAULT_RUNS),
                    metavar="NAME",
                    help="scenario names, scenario JSON files and W:SEED workload units")
    args = ap.parse_args(argv)
    me = str(Path(__file__).resolve())
    procs = {side: subprocess.Popen([sys.executable, me, "_side",
                                     str(getattr(args, side).resolve()), *args.runs],
                                    env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True)
             for side in ("parent", "change")}
    digests = {}
    for side, proc in procs.items():
        out, err = proc.communicate()
        if proc.returncode != 0:
            print(f"{side} side failed:\n{err}", file=sys.stderr)
            return 1
        digests[side] = json.loads(out.strip().splitlines()[-1])

    total, failed = 0, 0
    print(f"run_digest: {args.parent} against {args.change}")
    for name in args.runs:
        parent, change = digests["parent"][name], digests["change"][name]
        differ = compare(parent, change)
        total += len(parent)
        failed += bool(differ)
        verdict = "NOT bitwise equal: " + ", ".join(differ) if differ else "bitwise equal"
        print(f"  {name:<18} {len(parent):>3} runs  {verdict}")
    if failed:
        print(f"{failed} of {len(args.runs)} names differ")
        return 1
    print(f"all {total} runs bitwise equal: summary and every trace field")
    return 0


if __name__ == "__main__":
    sys.exit(main())
