"""Command-line entry points: run scenarios, search withstanding limits,
plan footsteps over occupancy maps."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .footstep import PlanningError, load_map, plan_footsteps
from .harness import BracketError, Scenario, max_withstand, run


def _load_scenario(path, seed: int | None = None) -> Scenario | None:
    """The scenario file at ``path``, with ``seed`` as its noise seed when
    given; None, with the reason printed, when it cannot be run."""
    try:
        scenario = Scenario.from_json(path)
        if seed is not None:
            scenario = replace(scenario, noise=replace(scenario.noise, seed=seed))
        return scenario
    except (ValueError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    if scenario is None:
        return 2
    metrics = run(scenario, out_dir=args.out)
    summary = metrics.summary()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if metrics.completed and not metrics.fall_detected else 1


def _cmd_withstand(args) -> int:
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        return 2
    if not scenario.disturbances:
        print("scenario has no disturbance entry to scale", file=sys.stderr)
        return 2
    try:
        threshold = max_withstand(scenario, args.direction,
                                  bracket=(args.bracket[0], args.bracket[1]),
                                  tol=args.tol)
    except BracketError as exc:
        print(f"bracket error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"direction": args.direction, "threshold_N": threshold,
                      "tol_N": args.tol}))
    return 0


def _cmd_plan(args) -> int:
    try:
        grid, start, goal = load_map(args.map)
        if start is None or goal is None:
            raise ValueError("map must define start and goal cells")
    except (ValueError, OSError) as exc:
        print(f"map error: {exc}", file=sys.stderr)
        return 2
    try:
        plan, cells = plan_footsteps(grid, start, goal)
    except PlanningError as exc:
        print(f"planning error: {exc}", file=sys.stderr)
        return 2
    payload = plan.to_json()
    payload["body_path_cells"] = [[int(r), int(c)] for r, c in cells]
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"wrote {len(plan.footprints)} footprints to {args.out}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="triwalk",
                                     description="Biped gait simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", default=None, help="directory for trace CSV/JSON")
    p_run.add_argument("--seed", type=int, default=None,
                       help="noise seed, replacing the scenario's")
    p_run.set_defaults(func=_cmd_run)

    p_w = sub.add_parser("withstand", help="bisect the maximum surviving impulse")
    p_w.add_argument("scenario", help="scenario JSON with a disturbance template")
    p_w.add_argument("--direction", choices=("fwd", "bwd"), required=True)
    p_w.add_argument("--tol", type=float, default=5.0, help="bracket width (N)")
    p_w.add_argument("--bracket", type=float, nargs=2, default=(100.0, 1000.0),
                     metavar=("LOW", "HIGH"))
    p_w.set_defaults(func=_cmd_withstand)

    p_p = sub.add_parser("plan", help="plan footsteps over an occupancy map")
    p_p.add_argument("map", help="map JSON file with start/goal")
    p_p.add_argument("--out", default=None, help="write the plan JSON here")
    p_p.set_defaults(func=_cmd_plan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
