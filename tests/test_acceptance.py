"""Acceptance suite: one test per release criterion.

Each test pins the tolerance it must meet and prints a single pass/fail line
(visible with ``pytest -s`` or in failure output), so the suite doubles as a
release checklist.
"""

import math
import time

import numpy as np
import pytest

from triwalk.dynamics import ThreeMassParams, build_continuous, discretize, step_plant
from triwalk.engine import WalkEngine
from triwalk.footstep import inflate, plan_footsteps, plan_path
from triwalk.harness import (
    Simulation,
    disturbance_scenario,
    max_withstand,
    omnidirectional_scenario,
    run,
    tracking_scenario,
)
from triwalk.qp import ActiveSetSolver, QpFactors, QpProblem
from triwalk.refgen import GaitTiming, hip_reference, swing_reference, zmp_reference

from oracles import dijkstra_grid, path_cost, solve_qp_by_enumeration, zoh_discretize_series
from test_footstep import fig_style_map


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1Discretization:
    def test_matches_series_oracle(self):
        t0 = time.perf_counter()
        params = ThreeMassParams.nominal()
        ss = build_continuous(params)
        worst = 0.0
        for ts in (0.001, 0.02, 0.1):
            ssd = discretize(ss, ts)
            Ad, Bd = zoh_discretize_series(ss.A, ss.B, ts, terms=20)
            worst = max(worst,
                        float(np.max(np.abs(ssd.A - Ad))),
                        float(np.max(np.abs(ssd.B - Bd))))
        elapsed = time.perf_counter() - t0
        report(1, worst < 1e-10 and elapsed < 1.0,
               f"max elementwise gap {worst:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 1s)")


class TestCriterion2QpCorrectness:
    def test_200_random_problems(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        solver = ActiveSetSolver()
        worst_obj = 0.0
        worst_kkt = 0.0
        for i in range(200):
            if i < 3:
                n, m = 8, 16
            else:
                n = int(rng.integers(2, 7))
                m = int(rng.integers(3, 13))
            G = rng.normal(size=(n, n))
            H = G.T @ G + n * np.eye(n)
            f = rng.normal(size=n)
            A = rng.normal(size=(m, n))
            b = A @ (rng.normal(size=n) * 0.3) + rng.uniform(0.05, 1.0, size=m)
            problem = QpProblem(QpFactors.build(H, A), f, b)
            sol = solver.solve(problem)
            _, obj_ref = solve_qp_by_enumeration(H, f, A, b)
            worst_obj = max(worst_obj, abs(sol.objective - obj_ref))
            worst_kkt = max(worst_kkt, sol.kkt_residual)
        elapsed = time.perf_counter() - t0
        report(2, worst_obj < 1e-6 and worst_kkt < 1e-8 and elapsed < 10.0,
               f"objective gap {worst_obj:.2e} (tol 1e-6), KKT {worst_kkt:.2e} (tol 1e-8), "
               f"runtime {elapsed:.1f}s (< 10s)")


class TestCriterion3Tracking:
    def test_five_step_walk(self):
        t0 = time.perf_counter()
        metrics = run(tracking_scenario(), keep_trace=False)
        elapsed = time.perf_counter() - t0
        ok = (metrics.completed and not metrics.fall_detected
              and metrics.scaled_violation_cycles == 0
              and metrics.tracking_rms["stance"] < 0.02
              and metrics.tracking_rms["swing"] < 0.02
              and len(metrics.torso_sway_scores) == 5
              and all(s > 0.0 for s in metrics.torso_sway_scores)
              and elapsed < 30.0)
        report(3, ok,
               f"scaled-polygon violations {metrics.scaled_violation_cycles}/ "
               f"{metrics.n_cycles} (need 0), stance RMS {metrics.tracking_rms['stance']:.4f} "
               f"swing RMS {metrics.tracking_rms['swing']:.4f} (tol 0.02), "
               f"torso-sway scores {[round(s, 3) for s in metrics.torso_sway_scores]} "
               f"(all > 0), runtime {elapsed:.1f}s (< 30s)")


class TestCriterion4NoiseRobustness:
    def test_ten_seeds(self):
        t0 = time.perf_counter()
        fractions = []
        all_ok = True
        for seed in range(10):
            m = run(tracking_scenario(noise=True, seed=seed), keep_trace=False)
            frac = 1.0 - m.zmp_violation_cycles / max(1, m.n_cycles)
            fractions.append(round(frac, 4))
            all_ok = all_ok and m.completed and frac >= 0.99
        elapsed = time.perf_counter() - t0
        report(4, all_ok and elapsed < 300.0,
               f"inside-polygon fractions {fractions} (need >= 0.99 each), "
               f"runtime {elapsed:.0f}s (< 300s)")


class TestCriterion5DisturbanceRecovery:
    def test_six_impulses(self):
        t0 = time.perf_counter()
        outcomes = {}
        for force in (100.0, -100.0, 200.0, -200.0, 300.0, -300.0):
            m = run(disturbance_scenario(force), keep_trace=False)
            outcomes[int(force)] = "recovered" if (m.completed and not m.fall_detected) else "FELL"
        elapsed = time.perf_counter() - t0
        ok = all(v == "recovered" for v in outcomes.values()) and elapsed < 120.0
        report(5, ok, f"{outcomes}, runtime {elapsed:.0f}s (< 120s)")


class TestCriterion6MaxWithstanding:
    def test_forward_threshold(self):
        t0 = time.perf_counter()
        threshold = max_withstand(disturbance_scenario(300.0), "fwd",
                                  bracket=(300.0, 700.0), tol=5.0)
        elapsed = time.perf_counter() - t0
        report(6, 350.0 <= threshold <= 520.0 and elapsed < 600.0,
               f"forward threshold {threshold:.1f} N (band [350, 520]), "
               f"runtime {elapsed:.0f}s (< 600s)")

    def test_backward_threshold(self):
        t0 = time.perf_counter()
        threshold = max_withstand(disturbance_scenario(300.0), "bwd",
                                  bracket=(300.0, 700.0), tol=5.0)
        elapsed = time.perf_counter() - t0
        report(6, -475.0 <= threshold <= -315.0 and elapsed < 600.0,
               f"backward threshold {threshold:.1f} N (band [-475, -315]), "
               f"runtime {elapsed:.0f}s (< 600s)")


class TestCriterion7FootstepPlanning:
    def test_arena_map(self):
        t0 = time.perf_counter()
        grid, start, goal = fig_style_map()
        plan, cells = plan_footsteps(grid, start, goal)
        inflated = inflate(grid)
        body_cost = path_cost(inflated, cells)

        # A* optimality on the inflated map proper (same search surface).
        astar_cells = plan_path(inflated, start, goal)
        ref_cost = dijkstra_grid(inflated.occupancy, start, goal, grid.cell_size)
        cost_ok = abs(path_cost(inflated, astar_cells) - ref_cost) < 1e-12

        feet_ok = all(inflated.is_free(inflated.world_to_cell((f.x, f.y)))
                      for f in plan.footprints)
        spacing = [math.hypot(b.x - a.x, b.y - a.y)
                   for a, b in zip(plan.footprints, plan.footprints[2:]) if not b.closing]
        spacing_ok = all(abs(s - 0.1) < 1e-9 for s in spacing)
        elapsed = time.perf_counter() - t0
        report(7, cost_ok and feet_ok and spacing_ok and elapsed < 5.0,
               f"A* cost == Dijkstra cost ({ref_cost:.3f} m): {cost_ok}, "
               f"all {len(plan.footprints)} footprints in free inflated cells: {feet_ok}, "
               f"step spacing 0.1 m +- 1e-9 over {len(spacing)} steps: {spacing_ok}, "
               f"runtime {elapsed:.1f}s (< 5s)")


class TestCriterion8ReferenceProperties:
    def test_reference_generator(self):
        timing = GaitTiming()
        omega = math.sqrt(9.81 / 1.2)

        end_gap = max(
            abs(hip_reference(0.1, -0.04, 0.06, 0.0, 1.0, 0.0, omega) - (-0.04)),
            abs(hip_reference(0.1, -0.04, 0.06, 0.0, 1.0, 1.0, omega) - 0.06),
        )

        dt = 1e-4
        ode_worst = 0.0
        for t in np.linspace(0.1, 0.9, 9):
            pm = hip_reference(0.1, -0.04, 0.06, 0.0, 1.0, t - dt, omega)
            p0 = hip_reference(0.1, -0.04, 0.06, 0.0, 1.0, t, omega)
            pp = hip_reference(0.1, -0.04, 0.06, 0.0, 1.0, t + dt, omega)
            acc = (pp - 2.0 * p0 + pm) / dt ** 2
            expected = omega ** 2 * (p0 - 0.1)
            ode_worst = max(ode_worst, abs(acc - expected) / max(1e-9, abs(expected)))

        from triwalk.footstep import footsteps_from_path, initial_feet_on_path
        path = np.column_stack([np.arange(0.0, 1.01, 0.1), np.zeros(11)])
        plan = footsteps_from_path(path, initial_feet_on_path(path))
        eps = 1e-12
        gap_worst = 0.0
        for i in range(1, plan.n_steps):
            before = zmp_reference(plan, timing, i * timing.step_period - eps)
            after = zmp_reference(plan, timing, i * timing.step_period + eps)
            gap_worst = max(gap_worst, float(np.linalg.norm(after - before)))

        apex = swing_reference((0.0, 0.0), (0.2, 0.0), timing, timing.t_single / 2.0)[2]
        apex_gap = abs(apex - timing.swing_height)

        ok = (end_gap < 1e-12 and ode_worst < 1e-6 and gap_worst < 1e-9 and apex_gap < 1e-9)
        report(8, ok,
               f"hip boundary gap {end_gap:.1e} (tol 1e-12), pendulum ODE residual "
               f"{ode_worst:.1e} (tol 1e-6), ZMP continuity gap {gap_worst:.1e} (tol 1e-9), "
               f"swing apex gap {apex_gap:.1e} (tol 1e-9)")


class TestCriterion9RealTime:
    def test_cycle_time(self):
        sc = tracking_scenario()
        engine = WalkEngine(sc.params, sc.config, sc.timing, observer=sc.observer)
        engine.command_path(sc.build_plan())
        ssd = engine.model
        plant = dict(zip(("x", "y"), engine.standing_states()))
        times = []
        for k in range(300):
            y_x = ssd.C @ plant["x"]
            y_y = ssd.C @ plant["y"]
            t0 = time.perf_counter()
            diag = engine.tick(y_x, y_y)
            times.append(time.perf_counter() - t0)
            plant["x"] = step_plant(ssd, plant["x"], diag.u_x)
            plant["y"] = step_plant(ssd, plant["y"], diag.u_y)
        times = np.asarray(times[5:]) * 1e3   # drop warmup, to ms
        mean_ms = float(times.mean())
        p99_ms = float(np.percentile(times, 99))
        report(9, mean_ms < 20.0 and p99_ms < 40.0,
               f"mean cycle {mean_ms:.2f} ms (< 20 ms), p99 {p99_ms:.2f} ms (< 40 ms), "
               f"both axes, horizon 80/20")


class TestCriterion10Omnidirectional:
    def test_setpoint_schedule(self):
        sc = omnidirectional_scenario()
        sim = Simulation(sc)
        engine = sim.engine
        filtered = {"x": [], "y": [], "a": []}
        n_cycles = sim.n_cycles
        for _ in range(n_cycles):
            sim.step()   # records the cycle and counts it toward a fall
            filtered["x"].append(engine.setpoints.filtered_x)
            filtered["y"].append(engine.setpoints.filtered_y)
            filtered["a"].append(engine.setpoints.filtered_alpha_deg)
        fell = sim.fall_time is not None
        monotone = all(
            all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
            for series in filtered.values()
        )
        turned = abs(engine.frame_angle) > math.radians(30.0)
        report(10, not fell and monotone and turned,
               f"ran {n_cycles} cycles (forward at 8s, diagonal at 24s, turn at 42s): "
               f"falls={fell}, filtered setpoints monotone={monotone}, "
               f"final heading {math.degrees(engine.frame_angle):.0f} deg (turned={turned})")
