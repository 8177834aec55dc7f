"""The benchmark's workloads.  Each is a sequence of units; a unit is the
smallest piece of work the benchmark times as a whole and repeats.

All three are closed loops with one client: ``harness.run`` steps the plant
only after each ``WalkEngine.tick`` returns.  Every unit is a function of the
workload seed and the unit index alone, so the same seed gives the same
inputs.  A unit returns its output checks as ``(name, ok, detail)`` tuples and
a small report dict.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

MAP_CELLS = 120            # square map side, cells of 0.1 m
MAP_BLOCKS = 25
BLOCK_SIDE = (3, 12)       # inclusive range of a block side, cells
MAP_START = (4, 4)
MAP_GOAL = (MAP_CELLS - 5, MAP_CELLS - 5)
MAP_ATTEMPTS = 200
WALK_STEPS = 15
ZMP_INSIDE_MIN = 0.99
# Known defect, left visible: in path mode the engine constrains the ZMP
# over the next support foot with that foot's box inscribed in the current
# working frame.  For a relative heading above about 15.5 deg the frontal box
# (0.9 * (0.05 cos a - 0.1 sin a) half-width) is narrower than the 0.02 m ZMP
# margin and ``build_constraints`` raises ValueError, although the planner
# allows 20 deg per step.  Maps whose walked steps turn more than this are
# rejected and counted in every unit's report (``rejected_turn``).
MAX_WALKED_TURN_DEG = 15.0

OMNI_SWITCH_JITTER_S = 0.5
OMNI_MIN_HEADING_DEG = 30.0

# Bisection probes, measured with noise seed 0.  Forward: 240 survives, 640
# falls, 440 struggles for about 3.7 s of simulated time and falls, 340
# survives.  Backward: 240 and 440 survive, 640 falls, 540 struggles for
# about 2.9 s and falls.  Every probe stays at least 20 N from the
# non-monotone forward zone (+360 survives, +370 falls, +380 survives, +385
# falls) and 37 N from the backward boundary near -503 N.
PUSH_BRACKET = (240.0, 640.0)
PUSH_TOL = 100.0


class MapError(RuntimeError):
    """No admissible map within the attempt budget."""


def walked_turn_deg(th, plan) -> float:
    """Largest heading change between a support foot and its swing target
    over the walked steps."""
    fps = plan.footprints[:WALK_STEPS + 2]
    return max((abs(math.degrees(th.footstep.wrap_angle(b.theta - a.theta)))
                for a, b in zip(fps[1:], fps[2:])), default=0.0)


def generate_map(th, seed: int):
    """Seeded occupancy map with start and goal in opposite corners, plus its
    footstep plan and rejection counts.  A map whose start or goal is
    blocked, whose goal the planner cannot reach, or whose walked steps turn
    more than MAX_WALKED_TURN_DEG is rejected and a fresh one drawn; maps are
    never shrunk or edited to make them pass."""
    fs = th.footstep
    rng = np.random.default_rng([seed, 0x6D6170])
    lo, hi = BLOCK_SIDE
    rejected = {"blocked": 0, "unreachable": 0, "turn": 0}
    for _ in range(MAP_ATTEMPTS):
        occ = np.zeros((MAP_CELLS, MAP_CELLS), dtype=bool)
        for _ in range(MAP_BLOCKS):
            h, w = (int(v) for v in rng.integers(lo, hi + 1, size=2))
            r0 = int(rng.integers(0, MAP_CELLS - h + 1))
            c0 = int(rng.integers(0, MAP_CELLS - w + 1))
            occ[r0:r0 + h, c0:c0 + w] = True
        if occ[MAP_START] or occ[MAP_GOAL]:
            rejected["blocked"] += 1
            continue
        grid = fs.GridMap(MAP_CELLS, MAP_CELLS, occ)
        try:
            plan, cells = fs.plan_footsteps(grid, MAP_START, MAP_GOAL)
        except fs.PlanningError:
            rejected["unreachable"] += 1
            continue
        if walked_turn_deg(th, plan) > MAX_WALKED_TURN_DEG:
            rejected["turn"] += 1
            continue
        return grid, plan, cells, rejected
    raise MapError(f"no admissible map for seed {seed} in {MAP_ATTEMPTS} attempts")


class WalkMap:
    """Generate a map, plan it, walk the first planned steps.

    The walk is noise-free.  Known defect, left visible: with the default
    measurement noise a few in a few hundred (map, noise seed) pairs diverge
    and fall some 11 s into the 15-step walk, with the jerks saturating, so
    a noisy map walk cannot be a workload on which no operation fails.  Noisy
    walking is measured by ``push_bisect``, whose probes run with noise."""

    name = "walk_map"

    def __init__(self, th, seed: int):
        self.th, self.seed = th, seed

    def unit(self, index: int):
        th = self.th
        hr = th.harness
        grid, plan, cells, rejected = generate_map(th, self.seed)
        points = tuple((float(x), float(y)) for x, y in (grid.cell_center(c) for c in cells))
        timing = th.GaitTiming()
        scenario = hr.Scenario(
            name=f"map-walk-{self.seed}",
            mode="path",
            duration=0.2 + WALK_STEPS * timing.step_period + 1.5,
            timing=timing,
            path_points=points,
            max_steps=WALK_STEPS,
        )
        m = hr.run(scenario)

        inflated = th.footstep.inflate(grid)
        free = all(inflated.is_free(inflated.world_to_cell((f.x, f.y)))
                   for f in plan.footprints)
        inside = 1.0 - m.zmp_violation_cycles / max(1, m.n_cycles)
        checks = [
            ("no fall", m.completed and not m.fall_detected,
             f"completed={m.completed} fall_time={m.fall_time}"),
            (f"true ZMP inside polygon >= {ZMP_INSIDE_MIN}", inside >= ZMP_INSIDE_MIN,
             f"{inside:.4f} of {m.n_cycles} cycles"),
            ("footprints on free inflated cells", free, f"{len(plan.footprints)} footprints"),
        ]
        if index == 0:
            # The walk follows the planned path again from its waypoints; it
            # must reproduce the planner's first steps exactly.
            fs = th.footstep
            again = fs.footsteps_from_path(points, fs.initial_feet_on_path(points))
            same = again.truncated(WALK_STEPS).footprints == plan.truncated(WALK_STEPS).footprints
            checks.append(("walked steps are the planned steps", same, f"{WALK_STEPS} steps"))
        report = {**{f"rejected_{k}": v for k, v in rejected.items()},
                  "max_walked_turn_deg": walked_turn_deg(th, plan), "path_cells": len(cells),
                  "steps_planned": plan.n_steps}
        return checks, report


class OmniTurn:
    """The omnidirectional setpoint schedule, noise-free; the seed shifts each
    setpoint switch by up to OMNI_SWITCH_JITTER_S."""

    name = "omni_turn"

    def __init__(self, th, seed: int):
        self.th, self.seed = th, seed
        base = th.harness.omnidirectional_scenario()
        rng = np.random.default_rng([seed, 0x6F6D6E69])
        shifts = rng.uniform(-OMNI_SWITCH_JITTER_S, OMNI_SWITCH_JITTER_S, len(base.schedule))
        schedule = tuple((t + (float(s) if t > 0.0 else 0.0), x, y, a)
                         for (t, x, y, a), s in zip(base.schedule, shifts))
        self.scenario = replace(base, schedule=schedule)

    def unit(self, index: int):
        m = self.th.harness.run(self.scenario)
        checks = [("no fall", m.completed and not m.fall_detected,
                   f"completed={m.completed} fall_time={m.fall_time}")]
        return checks, {"schedule": [list(s) for s in self.scenario.schedule]}

    @staticmethod
    def check_last_tick(last_tick_info):
        """Final heading from the support feet of the run's last tick."""
        name = f"final heading beyond {OMNI_MIN_HEADING_DEG:.0f} deg"
        if last_tick_info is None:
            return (name, False, "no completed tick")
        feet = last_tick_info[5]
        heading = math.degrees(math.atan2(sum(math.sin(f.theta) for f in feet),
                                          sum(math.cos(f.theta) for f in feet)))
        return (name, heading > OMNI_MIN_HEADING_DEG, f"{heading:.1f} deg")


class PushBisect:
    """``max_withstand`` forward and backward on the paper's push experiment.

    The inputs are the calibrated seed-0 scenario whatever the workload seed:
    bisection outcomes are not monotone near the survive/fall boundary, and
    that boundary is measured for noise seed 0 only, so a seed-dependent
    push would move probes into the zone where outcomes flip."""

    name = "push_bisect"

    def __init__(self, th, seed: int):
        self.th, self.seed = th, seed

    def unit(self, index: int):
        hr = self.th.harness
        scenario = hr.disturbance_scenario(300.0)
        checks, report = [], {"bracket": list(PUSH_BRACKET), "tol": PUSH_TOL}
        for direction in ("fwd", "bwd"):
            try:
                threshold = hr.max_withstand(scenario, direction, bracket=PUSH_BRACKET,
                                             tol=PUSH_TOL)
            except hr.BracketError as exc:
                checks.append((f"{direction}: low end survives, high end falls", False, str(exc)))
                continue
            checks.append((f"{direction}: low end survives, high end falls", True,
                           f"threshold {threshold:+.1f} N"))
            report[f"threshold_{direction}_N"] = threshold
        return checks, report


WORKLOADS = {w.name: w for w in (WalkMap, OmniTurn, PushBisect)}

# Span names each workload must record at least once in a traced run.
COMMON_SPANS = (
    "engine.tick", "engine.init", "harness.run", "harness.excursion",
    "dynamics.step_plant", "dynamics.discretize", "mpc.axis_init", "mpc.observer_init",
    "mpc.innovation", "mpc.observer", "mpc.control_step", "mpc.condense", "qp.solve",
    "refgen.timeline", "refgen.sample",
)
EXPECTED_SPANS = {
    "walk_map": COMMON_SPANS + ("footstep.plan", "footstep.search", "footstep.follow"),
    "omni_turn": COMMON_SPANS + ("engine.plan_next_step",),
    "push_bisect": COMMON_SPANS + ("harness.max_withstand", "footstep.follow"),
}
