import copy
import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triwalk.dynamics import ThreeMassParams, step_plant
from triwalk.engine import Setpoints, WalkEngine, WalkPhase, _rot, filter_setpoints
from triwalk.footstep import (
    DEFAULT_STEP_WIDTH,
    Footprint,
    FootstepPlan,
    footsteps_from_path,
    initial_feet_on_path,
)
from triwalk.harness import omnidirectional_scenario, run
from triwalk.mpc import AxisController, MpcConfig, build_constraints
from triwalk.qp import ActiveSet
from triwalk import mpc, refgen
from triwalk.refgen import GaitTiming, WalkTimeline, contact_feet

# Cycle counts of the default gait at the default sample time; the walk
# starts with one double-support duration of initialization.
N_SINGLE, N_DOUBLE = GaitTiming().cycles(MpcConfig().ts)
N_STEP = N_SINGLE + N_DOUBLE
N_INIT = N_DOUBLE


@pytest.fixture(scope="module")
def params():
    return ThreeMassParams.nominal()


@pytest.fixture(scope="module")
def timing():
    return GaitTiming()


def straight_plan(n_steps=3, length=1.0, y=0.0):
    xs = np.arange(0.0, length + 0.05, 0.1)
    path = np.column_stack([xs, np.full_like(xs, y)])
    plan = footsteps_from_path(path, initial_feet_on_path(path))
    return plan.truncated(n_steps)


def make_engine(params, timing, **kwargs):
    return WalkEngine(params, MpcConfig(), timing, **kwargs)


def standing_feet(engine):
    """The feet a standing engine stands on, by side: its timeline's last two
    footprints."""
    return {fp.side: fp for fp in engine._timeline.plan.footprints[-2:]}


def run_closed_loop(engine, n_cycles, plant=None):
    """Ideal-plant loop: exact dynamics, exact measurements.  The plant
    starts from the (x, y) states ``plant``, or standing at the feet."""
    ssd = engine.model
    x, y = plant if plant is not None else engine.standing_states()
    plant = {"x": x, "y": y}
    log = []
    for _ in range(n_cycles):
        diag = engine.tick(ssd.C @ plant["x"], ssd.C @ plant["y"])
        plant["x"] = step_plant(ssd, plant["x"], diag.u_x)
        plant["y"] = step_plant(ssd, plant["y"], diag.u_y)
        log.append((diag, plant["x"].copy(), plant["y"].copy()))
    return log


class TestFilterSetpoints:
    def test_no_change_at_command(self):
        sp = Setpoints(x=0.1, filtered_x=0.1)
        out = filter_setpoints(sp, 0.02, 0.5)
        assert out.filtered_x == pytest.approx(0.1)

    def test_single_step_value(self):
        sp = Setpoints(x=0.1)
        out = filter_setpoints(sp, 0.02, 0.5)
        assert out.filtered_x == pytest.approx(0.004)

    def test_converges_to_command(self):
        sp = Setpoints(x=0.1, y=-0.02, alpha_deg=5.0)
        for _ in range(int(20 * 0.5 / 0.02)):
            sp = filter_setpoints(sp, 0.02, 0.5)
        assert sp.filtered_x == pytest.approx(0.1, abs=1e-6)
        assert sp.filtered_y == pytest.approx(-0.02, abs=1e-6)
        assert sp.filtered_alpha_deg == pytest.approx(5.0, abs=1e-6)

    def test_monotone_approach(self):
        sp = Setpoints(x=0.1)
        values = []
        for _ in range(100):
            sp = filter_setpoints(sp, 0.02, 0.5)
            values.append(sp.filtered_x)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v <= 0.1 + 1e-12 for v in values)

    def test_invalid_lag(self):
        with pytest.raises(ValueError):
            filter_setpoints(Setpoints(), 0.02, 0.0)


class TestIdle:
    def test_idle_without_command(self, params, timing):
        engine = make_engine(params, timing)
        log = run_closed_loop(engine, 10)
        for diag, _, _ in log:
            assert diag.phase == WalkPhase.IDLE
            assert np.linalg.norm(diag.u_x) < 1e-6
            assert np.linalg.norm(diag.u_y) < 1e-6

    def test_standing_state_is_equilibrium(self, params, timing):
        engine = make_engine(params, timing)
        log = run_closed_loop(engine, 30)
        _, x_final, y_final = log[-1]
        standing = engine.standing_states()
        np.testing.assert_allclose(x_final, standing[0], atol=1e-6)
        np.testing.assert_allclose(y_final, standing[1], atol=1e-6)


class TestPhaseSequence:
    def test_sequence_matches_grammar(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(2))
        n = N_INIT + 2 * N_STEP + 12
        log = run_closed_loop(engine, n + 2)
        phases = [d.phase for d, _, _ in log]
        # Collapse runs: Idle+ Init+ (SS+ DS+)* Idle*
        runs = []
        for ph in phases:
            if not runs or runs[-1] != ph:
                runs.append(ph)
        assert runs[0] == WalkPhase.IDLE
        assert runs[1] == WalkPhase.INITIALIZE
        body = runs[2:-1] if runs[-1] == WalkPhase.IDLE else runs[2:]
        assert len(body) == 4  # SS DS SS DS for two steps
        for i, ph in enumerate(body):
            expected = WalkPhase.SINGLE_SUPPORT if i % 2 == 0 else WalkPhase.DOUBLE_SUPPORT
            assert ph == expected

    def test_phase_durations_exact(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(2))
        log = run_closed_loop(engine, N_INIT + 2 * N_STEP + 5)
        phases = [d.phase for d, _, _ in log]
        assert phases.count(WalkPhase.INITIALIZE) == N_INIT
        assert phases.count(WalkPhase.SINGLE_SUPPORT) == 2 * N_SINGLE
        assert phases.count(WalkPhase.DOUBLE_SUPPORT) == 2 * N_DOUBLE

    def test_single_to_double_at_next_tick(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(1))
        log = run_closed_loop(engine, 1 + N_INIT + N_SINGLE + 1)
        phases = [d.phase for d, _, _ in log]
        assert phases[N_INIT] == WalkPhase.INITIALIZE
        assert phases[1 + N_INIT] == WalkPhase.SINGLE_SUPPORT
        assert phases[N_INIT + N_SINGLE] == WalkPhase.SINGLE_SUPPORT
        assert phases[1 + N_INIT + N_SINGLE] == WalkPhase.DOUBLE_SUPPORT


class TestInitialize:
    def test_torso_shifts_toward_first_support(self, params, timing):
        engine = make_engine(params, timing)
        plan = straight_plan(2)
        engine.command_path(plan)
        support_y = plan.support(0).y
        mid_y = 0.5 * (plan.footprints[0].y + plan.footprints[1].y)
        log = run_closed_loop(engine, 1 + N_INIT)
        _, _, y_state = log[-1]
        torso_y = y_state[3]
        assert math.copysign(1.0, torso_y - mid_y) == math.copysign(1.0, support_y - mid_y)


class TestReferenceWindows:
    def test_windows_match_direct_sampling(self, params, timing):
        engine = make_engine(params, timing)
        plan = straight_plan(2)
        engine.command_path(plan)
        run_closed_loop(engine, 3)  # inside Initialize now
        timeline = WalkTimeline(plan, timing, params, engine.config.ts)
        local = engine._local_cycle(engine.k)
        rows = timeline.window(local, engine.config.n_pred)
        for i, windowed in enumerate(engine._references()):
            np.testing.assert_array_equal(windowed[:, 2], rows[:, 0, i])
            np.testing.assert_array_equal(windowed[:, 0], rows[:, 1, i])
            np.testing.assert_array_equal(windowed[:, 1], rows[:, 2, i])

    @pytest.mark.parametrize("walk", ["turning_setpoints", "arc_path", "idle"])
    def test_slices_match_the_per_tick_computation(self, params, timing, monkeypatch, walk):
        # A turning setpoint walk rotates the frame and rolls the timeline at
        # every step; a path on an arc rotates the frame inside one timeline;
        # idle ticks run past the stand timeline's total_cycles.
        phase_box, tick = WalkEngine._phase_box, WalkEngine.tick
        window, step = WalkTimeline.window, AxisController.control_step
        built, passed, calls, ticks = [], [], [], []
        monkeypatch.setattr(WalkTimeline, "window",
                            lambda tl, *args: calls.append(tl) or window(tl, *args))
        monkeypatch.setattr(WalkEngine, "_phase_box",
                            lambda engine, key: built.append(key) or phase_box(engine, key))
        monkeypatch.setattr(AxisController, "control_step",
                            lambda ctrl, X, *args: passed.append(args) or step(ctrl, X, *args))

        def checked_tick(engine, y_x, y_y):
            tl, local, cfg = engine._timeline, engine._local_cycle(engine.k), engine.config
            frame = engine.frame_angle
            expected = per_tick_windows(engine, phase_box)
            in_window = {tl.phase(local + j) for j in range(1, cfg.constraint_window + 1)}
            del built[:], calls[:]
            np.testing.assert_array_equal(engine._references(), expected[0])
            diag = tick(engine, y_x, y_y)
            for got, exp in zip(passed[-1], expected):
                np.testing.assert_array_equal(got, exp)
            assert set(built) <= in_window
            ticks.append((tl, local, frame, len(calls)))
            return diag

        monkeypatch.setattr(WalkEngine, "tick", checked_tick)
        engine = make_engine(params, timing)
        if walk == "turning_setpoints":
            engine.command_setpoints(0.05, 0.0, 12.0)
        elif walk == "arc_path":
            angles = np.linspace(0.0, math.radians(30.0), 20)
            arc = np.column_stack([np.sin(angles), 1.0 - np.cos(angles)])
            engine.command_path(footsteps_from_path(arc, initial_feet_on_path(arc)))
        run_closed_loop(engine, N_INIT + 5 * N_STEP)
        # One table build per (timeline, frame) pair, none at the pair's
        # later ticks.
        pairs = [(tl, frame) for tl, _, frame, _ in ticks]
        assert sum(n for *_, n in ticks) == len(set(pairs))
        timelines, frames = len({tl for tl, _ in pairs}), len({f for _, f in pairs})
        if walk == "turning_setpoints":
            assert timelines > 4 and frames > 3
        elif walk == "arc_path":
            assert timelines == 2 and frames > 3
        else:
            assert min(local - tl.total_cycles for tl, local, *_ in ticks) >= 0

    def test_windows_passed_to_control_step_are_read_only(self, params, timing, monkeypatch):
        passed, step = [], AxisController.control_step
        monkeypatch.setattr(AxisController, "control_step",
                            lambda ctrl, X, *args: passed.append(args) or step(ctrl, X, *args))
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(2))
        run_closed_loop(engine, N_INIT + 5)
        for array in passed[-1]:   # refs, lo, hi
            kept = array.copy()
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
            np.testing.assert_array_equal(array, kept)

    def test_single_support_ticks_evaluate_no_reference_curves(self, params, timing,
                                                               monkeypatch):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(2))
        run_closed_loop(engine, 1 + N_INIT)
        calls = []
        for name in ("hip_reference", "swing_reference"):
            def counted(*args, _orig=getattr(refgen, name), _name=name):
                calls.append(_name)
                return _orig(*args)
            monkeypatch.setattr(refgen, name, counted)
        log = run_closed_loop(engine, N_SINGLE)
        assert all(d.phase == WalkPhase.SINGLE_SUPPORT for d, _, _ in log)
        assert calls == []


class TestPlanNextStep:
    def test_zero_setpoints_step_in_place(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_setpoints(0.0, 0.0, 0.0)
        support = standing_feet(engine)["R"]
        landing, clamped = engine.plan_next_step(support, "L")
        home = support.xy() + np.array([0.0, DEFAULT_STEP_WIDTH])
        np.testing.assert_allclose(landing.xy(), home, atol=1e-12)
        assert landing.side == "L" and not landing.closing
        assert not clamped

    def test_forward_setpoint_spacing(self, params, timing):
        engine = make_engine(params, timing)
        engine.setpoints = Setpoints(x=0.1, filtered_x=0.1)
        landing, _ = engine.plan_next_step(standing_feet(engine)["R"], "L")
        assert landing.x - standing_feet(engine)["R"].x == pytest.approx(0.1)
        assert landing.theta == pytest.approx(0.0)

    def test_turning_rotates_heading(self, params, timing):
        engine = make_engine(params, timing)
        engine.setpoints = Setpoints(x=0.1, y=0.025, alpha_deg=10.0,
                                     filtered_x=0.1, filtered_y=0.025,
                                     filtered_alpha_deg=10.0)
        landing, _ = engine.plan_next_step(standing_feet(engine)["R"], "L")
        assert landing.theta == pytest.approx(math.radians(10.0) * timing.step_period)
        assert landing.x > 0.05  # advances forward while turning

    def test_unreachable_step_clamped_and_flagged(self, params, timing):
        engine = make_engine(params, timing)
        engine.setpoints = Setpoints(x=0.9, filtered_x=0.9)
        landing, clamped = engine.plan_next_step(standing_feet(engine)["R"], "L")
        assert clamped
        assert landing.x == pytest.approx(engine.config.swing_reach)


class TestSetpointWalking:
    def test_walk_in_place_stays_put(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_setpoints(0.0, 0.0, 0.0)
        n = N_INIT + 3 * N_STEP + 2
        log = run_closed_loop(engine, n)
        diag = log[-1][0]
        for foot in diag.support_feet:
            assert abs(foot.x) < 1e-9
            assert abs(abs(foot.y) - DEFAULT_STEP_WIDTH / 2.0) < 1e-9
        phases = {d.phase for d, _, _ in log}
        assert WalkPhase.SINGLE_SUPPORT in phases and WalkPhase.DOUBLE_SUPPORT in phases

    def test_forward_walk_advances(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_setpoints(0.1, 0.0, 0.0)
        n = N_INIT + 5 * N_STEP
        log = run_closed_loop(engine, n)
        diag = log[-1][0]
        assert max(f.x for f in diag.support_feet) > 0.25

    def test_rotated_scenario_equivalence(self, params, timing):
        # Quarter-turn rotation of the whole scenario commutes with the engine.
        def run(rotated):
            if rotated:
                left = Footprint(-0.1, 0.0, math.pi / 2, "L")
                right = Footprint(0.1, 0.0, math.pi / 2, "R")
            else:
                left, right = Footprint(0.0, 0.1, 0.0, "L"), Footprint(0.0, -0.1, 0.0, "R")
            engine = make_engine(params, timing)
            # A queued path places the feet (right foot swinging first); the
            # setpoint command then replaces it before the walk starts.
            engine.command_path(FootstepPlan((right, left, right), step_distance=None))
            engine.command_setpoints(0.08, 0.0, 0.0)
            log = run_closed_loop(engine, N_INIT + 2 * N_STEP)
            return np.array([[d.u_x, d.u_y] for d, _, _ in log])

        base = run(False)
        rot = run(True)
        # World-frame commands of the rotated run are the 90-degree rotation
        # of the base run: (ux, uy) -> (-uy, ux).
        np.testing.assert_allclose(rot[:, 0, :], -base[:, 1, :], atol=1e-9)
        np.testing.assert_allclose(rot[:, 1, :], base[:, 0, :], atol=1e-9)


class TestPlanWalkTracking:
    def test_three_step_walk_tracks_references(self, params, timing):
        engine = make_engine(params, timing)
        plan = straight_plan(3)
        engine.command_path(plan)
        n = N_INIT + 3 * N_STEP + 50
        log = run_closed_loop(engine, n)
        ssd = engine.model
        errs_st, errs_sw = [], []
        for diag, x_state, y_state in log:
            y_out = np.array([ssd.C @ x_state, ssd.C @ y_state])
            errs_st.append(np.hypot(y_out[0, 0] - diag.refs.stance_mass[0],
                                    y_out[1, 0] - diag.refs.stance_mass[1]))
            errs_sw.append(np.hypot(y_out[0, 1] - diag.refs.swing_mass[0],
                                    y_out[1, 1] - diag.refs.swing_mass[1]))
        assert np.sqrt(np.mean(np.square(errs_st))) < 0.02
        assert np.sqrt(np.mean(np.square(errs_sw))) < 0.02

    def test_walk_ends_standing_at_goal(self, params, timing):
        engine = make_engine(params, timing)
        plan = straight_plan(3)
        engine.command_path(plan)
        n = N_INIT + 3 * N_STEP + 60
        log = run_closed_loop(engine, n)
        assert log[-1][0].phase == WalkPhase.IDLE
        feet = standing_feet(engine)
        assert set(feet.values()) == set(plan.footprints[-2:])
        final_mid = 0.5 * (feet["L"].xy() + feet["R"].xy())
        _, x_state, y_state = log[-1]
        assert abs(x_state[3] - final_mid[0]) < 0.02
        assert abs(y_state[3] - final_mid[1]) < 0.02


class TestConstraintSchedule:
    def test_bounds_switch_at_single_to_double_boundary(self, params, timing):
        engine = make_engine(params, timing)
        plan = straight_plan(2)
        engine.command_path(plan)
        calls = []
        ctrl = engine.controller

        def step(X, refs, lo, hi, _orig=ctrl.control_step):
            calls.append((engine._timeline, engine._local_cycle(engine.k), lo, hi))
            return _orig(X, refs, lo, hi)
        ctrl.control_step = step
        run_closed_loop(engine, 1 + N_INIT + N_SINGLE)

        cfg = engine.config
        hl, hw = params.foot_length / 2.0, params.foot_width / 2.0
        checked = 0
        for tl, local, (lo_x, lo_y), (hi_x, hi_y) in calls:
            keys = [tl.phase(local + j) for j in range(1, cfg.constraint_window + 1)]
            if keys[0][0] != "single" or keys[-1][0] != "double":
                continue
            idx = keys[0][1]
            switch = keys.index(("double", idx))
            sup, land = plan.support(idx), plan.swing_to(idx)
            side = 1.0 if land.y >= sup.y else -1.0
            one = build_constraints([sup.xy()], [[hl, hw]], params, cfg, side)
            two = build_constraints([sup.xy(), land.xy()], [[hl, hw]] * 2, params, cfg)
            expected = ((lo_x, hi_x, one[0], two[0]), (lo_y, hi_y, one[1], two[1]))
            for lo, hi, single, double in expected:
                assert not np.array_equal(np.stack(single), np.stack(double))
                n = cfg.constraint_window - switch
                np.testing.assert_array_equal(lo[:switch], np.tile(single[0], (switch, 1)))
                np.testing.assert_array_equal(hi[:switch], np.tile(single[1], (switch, 1)))
                np.testing.assert_array_equal(lo[switch:], np.tile(double[0], (n, 1)))
                np.testing.assert_array_equal(hi[switch:], np.tile(double[1], (n, 1)))
            checked += 1
        assert checked > 0

    def test_bounds_and_feet_follow_phases_under_turns_and_rolls(self, monkeypatch):
        # Setpoint walking rolls a new timeline every step; the turn from
        # 42 s on rotates the working frame at every step.
        ticks = record_schedule(monkeypatch)
        assert run(omnidirectional_scenario(duration=45.0), keep_trace=False).completed
        check_schedule(ticks)
        assert len({tl for _, _, tl, _, _, _ in ticks}) > 40
        assert len({frame for *_, frame, _ in ticks}) >= 3

    def test_bounds_and_feet_follow_phases_on_a_path(self, params, timing, monkeypatch):
        # A straight walk, then a 1 m radius arc: one timeline per walk, and
        # on the arc the frame rotates at every step inside it.
        angles = np.linspace(0.0, math.radians(30.0), 20)
        arc = np.column_stack([np.sin(angles), 1.0 - np.cos(angles)])
        ticks = record_schedule(monkeypatch)
        for plan in (straight_plan(3), footsteps_from_path(arc, initial_feet_on_path(arc))):
            ticks.clear()
            engine = make_engine(params, timing)
            engine.command_path(plan)
            run_closed_loop(engine, N_INIT + plan.n_steps * N_STEP + 20)
            check_schedule(ticks)
            assert {key[0] for _, _, _, key, _, _ in ticks} == {"stand", "initialize",
                                                                  "single", "double"}
        assert len({frame for *_, frame, _ in ticks}) > plan.n_steps / 2

    def test_constraint_matrix_fixed_across_cycles_and_phases(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(2))
        seen = []
        ctrl = engine.controller
        original = ctrl.A.copy()

        def solve(problem, warm_start=None, _orig=ctrl.solver.solve):
            seen.append((problem.factors, warm_start))
            return _orig(problem, warm_start=warm_start)
        ctrl.solver.solve = solve
        log = run_closed_loop(engine, N_INIT + 2 * N_STEP)
        phases = {d.phase for d, _, _ in log}
        assert {WalkPhase.INITIALIZE, WalkPhase.SINGLE_SUPPORT,
                WalkPhase.DOUBLE_SUPPORT} <= phases
        # Every solve of both axes sees the controller's one matrix, so a
        # warm-start row index names the same (bound family, sample) every
        # cycle.
        assert all(factors.A is ctrl.A for factors, _ in seen)
        np.testing.assert_array_equal(ctrl.A, original)
        # Every non-empty warm start is a carried set of the controller's
        # factors, the only kind the solver seeds from; without one every
        # cycle would solve cold, the same commands only slower.
        carried = [warm for _, warm in seen if warm]
        assert carried and all(type(warm) is ActiveSet and warm.factors is ctrl._factors
                               for warm in carried)

    def test_qp_factored_once_per_engine(self, params, timing, monkeypatch):
        # Both axes share one controller, and engines of one configuration
        # share its matrices, so the QP is factored once per configuration,
        # softened cycles included.
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
        mpc._controller_matrices.cache_clear()
        engine = make_engine(params, timing)
        assert len(shapes) == 1
        standing = engine.standing_states()
        y_x = engine.model.C @ standing[0]
        y_x[1] += 1.0   # the swing mass measured 1 m off softens the x axis
        y_y = engine.model.C @ standing[1]
        softened = [engine.tick(y_x, y_y).softened for _ in range(3)]
        assert (True, False) in softened
        assert shapes == [(3 * engine.config.n_ctrl,) * 2]
        make_engine(params, timing)
        assert len(shapes) == 1
        WalkEngine(params, MpcConfig(soft_penalty=1e5), timing)
        WalkEngine(params, MpcConfig(n_pred=60), timing)
        assert len(shapes) == 3


def per_tick_windows(engine, phase_box):
    """The next cycle's reference windows and (lo, hi) bounds as a tick
    computed them before the tables: the timeline's window rotated into the
    frame, and each window phase's box built afresh by ``phase_box`` and
    fancy-indexed by the window's phase ids."""
    tl, local, cfg = engine._timeline, engine._local_cycle(engine.k), engine.config
    rows = tl.window(local, cfg.n_pred)
    R_wf = _rot(-engine.frame_angle)
    refs = np.stack([(rows @ R_wf[i])[:, [1, 2, 0]] for i in range(2)])
    ids = tl.phase_ids(local, cfg.constraint_window)
    boxes = {kid: phase_box(engine, tl.keys[kid]) for kid in set(ids.tolist())}
    box = np.array([boxes[kid] for kid in ids]).swapaxes(0, 1)   # (axis, window, lo/hi, output)
    return refs, box[:, :, 0], box[:, :, 1]


def record_schedule(monkeypatch):
    """Per tick: the boxes built afresh, sample by sample, from the tick's
    timeline phases in the tick's frame; the (lo, hi) both axes passed to
    ``control_step``; the timeline, phase key, frame and support feet."""
    ticks, passed = [], []
    tick, control_step = WalkEngine.tick, AxisController.control_step

    def traced_step(ctrl, X, refs, lo, hi):
        passed.append(np.stack([lo, hi], axis=2))
        return control_step(ctrl, X, refs, lo, hi)

    def traced_tick(engine, y_x, y_y):
        tl, local = engine._timeline, engine._local_cycle(engine.k)
        keys = [tl.phase(local + j) for j in range(1, engine.config.constraint_window + 1)]
        boxes = {key: engine._phase_box(key) for key in set(keys)}
        expected = np.array([boxes[key] for key in keys]).swapaxes(0, 1)
        frame = engine.frame_angle
        diag = tick(engine, y_x, y_y)
        ticks.append((expected, passed[-1], tl, tl.phase(local), frame, diag.support_feet))
        return diag

    monkeypatch.setattr(AxisController, "control_step", traced_step)
    monkeypatch.setattr(WalkEngine, "tick", traced_tick)
    return ticks


def check_schedule(ticks):
    shared = {}
    for expected, passed, tl, key, _, feet in ticks:
        for exp, got in zip(expected, passed):
            np.testing.assert_array_equal(got, exp)
        assert feet is shared.setdefault((tl, key), feet)
        assert_plan_feet(feet, tl, key)


def assert_plan_feet(feet, tl, key):
    """``feet`` are the plan's own footprints in contact during phase ``key``,
    as the timeline's one tuple for that phase."""
    assert feet is tl.feet[key]
    assert feet == contact_feet(tl.plan, key)
    assert all(any(fp is planned for planned in tl.plan.footprints) for fp in feet)


def assert_untouched(engine, before):
    """``engine`` matches its earlier deep copy ``before`` and computes the
    same next cycle."""
    for name in ("k", "phase", "setpoints", "estimates", "_queued", "_rolling"):
        np.testing.assert_equal(getattr(engine, name), getattr(before, name))
    assert engine._timeline.plan == before._timeline.plan
    for gate, gate_ref in zip(engine.gates, before.gates):
        assert len(gate_ref.window) == gate_ref.window.maxlen
        np.testing.assert_equal(list(gate.window), list(gate_ref.window))
        assert gate.hold == gate_ref.hold
    np.testing.assert_equal(engine.controller.u_prev, before.controller.u_prev)
    assert engine.controller._warm == before.controller._warm
    # The next valid cycle is the one the untouched copy computes.
    y = engine.model.C @ engine.standing_states()[0]
    diag, diag_ref = engine.tick(y, y), before.tick(y, y)
    assert diag.k == diag_ref.k
    np.testing.assert_array_equal(diag.u_x, diag_ref.u_x)
    np.testing.assert_array_equal(diag.u_y, diag_ref.u_y)
    np.testing.assert_equal(diag.swing_target, diag_ref.swing_target)
    assert diag.support_feet == diag_ref.support_feet


class TestMeasurementValidation:
    def test_non_finite_rejected_without_state_change(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(2))
        run_closed_loop(engine, N_INIT + 3)
        before = copy.deepcopy(engine)
        y = engine.model.C @ engine.standing_states()[0]
        bad_values = []
        for bad in (np.nan, np.inf, -np.inf):
            y_bad = y.copy()
            y_bad[2] = bad
            bad_values.append(y_bad)
        # Wrong shapes: a scalar would broadcast to all three outputs.  Paired
        # with a (3,) array, each makes a ragged pair.
        bad_values += [0.0, y[:2], np.append(y, 0.0), [y]]
        message = r"^measurements must be finite \(3,\) arrays$"
        for y_bad in bad_values:
            for pair in ((y, y_bad), (y_bad, y), (y_bad, y_bad)):
                with pytest.raises(ValueError, match=message):
                    engine.tick(*pair)
        assert_untouched(engine, before)


class TestCommandPath:
    def test_rejected_while_walking_without_state_change(self, params, timing):
        # Plan B, 0.5 m to the side, commanded during step 1 of plan A.
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(4))
        run_closed_loop(engine, 76)
        assert engine.phase == WalkPhase.SINGLE_SUPPORT
        before = copy.deepcopy(engine)
        with pytest.raises(ValueError, match="idle"):
            engine.command_path(straight_plan(2, y=0.5))
        assert_untouched(engine, before)

    def test_accepted_again_after_the_walk(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(1))
        log = run_closed_loop(engine, 1 + N_INIT + N_STEP)
        assert log[-1][0].phase == WalkPhase.DOUBLE_SUPPORT
        assert engine.phase == WalkPhase.IDLE
        plan = straight_plan(1, y=0.5)
        engine.command_path(plan)
        assert standing_feet(engine) == {fp.side: fp for fp in plan.footprints[:2]}


    def test_builds_only_its_own_timeline(self, params, timing, monkeypatch):
        # A new engine builds its standing timeline on first use, so a path
        # commanded right away builds one standing timeline, on the plan's
        # feet, and the walk's own at the first cycle boundary.
        built = []
        init = WalkTimeline.__init__
        monkeypatch.setattr(WalkTimeline, "__init__",
                            lambda tl, plan, *args, **kw: built.append(plan)
                            or init(tl, plan, *args, **kw))
        engine = make_engine(params, timing)
        assert engine.phase == WalkPhase.IDLE and built == []
        with pytest.raises(ValueError, match="at least one step"):
            engine.command_path(straight_plan(0))
        assert built == []
        plan = straight_plan(2)
        engine.command_path(plan)
        assert [b.footprints for b in built] == [plan.footprints[1::-1]]
        run_closed_loop(engine, 2)
        assert len(built) == 2 and built[1] is plan

    def test_a_finished_walk_stands_on_its_own_timeline(self, params, timing, monkeypatch):
        # Past its end the walked timeline stands on the plan's last two
        # footprints: the walk's end builds no timeline, and the standing
        # posture and a later setpoint walk start there, the foot that
        # landed last swinging first.
        built = []
        init = WalkTimeline.__init__
        monkeypatch.setattr(WalkTimeline, "__init__",
                            lambda tl, plan, *args, **kw: built.append(plan)
                            or init(tl, plan, *args, **kw))
        engine = make_engine(params, timing)
        plan = straight_plan(2)
        engine.command_path(plan)
        log = run_closed_loop(engine, 1 + N_INIT + 2 * N_STEP + 5)
        assert [d.phase for d, _, _ in log[-6:]] == [WalkPhase.DOUBLE_SUPPORT] + 5 * [WalkPhase.IDLE]
        assert len(built) == 2 and engine._timeline.plan is plan
        *_, other, last = plan.footprints
        assert log[-1][0].support_feet == (other, last)
        standing = engine.standing_states()

        engine.command_setpoints(0.1, 0.0, 0.0)
        run_closed_loop(engine, 1)
        assert len(built) == 3
        rolled = engine._timeline.plan
        assert rolled.footprints[0] is last and rolled.footprints[1] is other
        assert rolled.footprints[2] == engine.plan_next_step(other, last.side)[0]
        # A walk commanded on the reversed plan stands on the same two feet.
        reverse = make_engine(params, timing)
        reverse.command_path(FootstepPlan(plan.footprints[::-1], step_distance=None))
        np.testing.assert_array_equal(standing, reverse.standing_states())


class TestFork:
    @pytest.mark.parametrize("walk", ["path", "turning_setpoints"])
    def test_twin_ticks_as_the_original_would(self, params, timing, walk):
        # Forked in single support, the twin walks on through rolls, turns
        # and new bounds-table phases; the original, stepped afterwards,
        # computes the same cycles, so the twin wrote none of its state.
        engine = make_engine(params, timing)
        if walk == "path":
            engine.command_path(straight_plan(3))
        else:
            engine.command_setpoints(0.05, 0.0, 12.0)
        run_closed_loop(engine, N_INIT + 10)
        twin = engine.fork()
        assert twin.controller is not engine.controller
        assert twin.controller._factors is engine.controller._factors
        assert twin._timeline is engine._timeline
        ahead = run_closed_loop(twin, 2 * N_STEP)
        again = run_closed_loop(engine, 2 * N_STEP)
        self.assert_same_cycles(ahead, again)

    def test_deep_copy_ticks_as_a_fork(self, params, timing):
        # A deep copy owns its bounds table too, so it builds the new phases'
        # bounds as it walks into them, cycle for cycle as a fork does.
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(3))
        run_closed_loop(engine, N_INIT + 10)
        copied, twin = copy.deepcopy(engine), engine.fork()
        ahead = run_closed_loop(copied, 2 * N_STEP)
        phases = [d.phase for d, _, _ in ahead]
        assert sum(p != q for p, q in zip(phases, phases[1:])) >= 2
        self.assert_same_cycles(ahead, run_closed_loop(twin, 2 * N_STEP))

    @staticmethod
    def assert_same_cycles(ahead, again):
        assert len(ahead) == len(again)
        for (a, xa, ya), (b, xb, yb) in zip(ahead, again):
            assert a.k == b.k and a.phase == b.phase
            np.testing.assert_array_equal(np.stack([a.u_x, a.u_y]), np.stack([b.u_x, b.u_y]))
            np.testing.assert_array_equal(np.stack([xa, ya]), np.stack([xb, yb]))
            assert a.support_feet == b.support_feet


def support_side(diag):
    """Side of the single-support foot: the swing foot lands to the left of
    a right support foot, in the support's heading frame."""
    (foot,) = diag.support_feet
    dx, dy = diag.swing_target - (foot.x, foot.y)
    return "R" if math.cos(foot.theta) * dy - math.sin(foot.theta) * dx > 0.0 else "L"


def single_support_sides(diags):
    return [support_side(next(run)) for phase, run in groupby(diags, key=lambda d: d.phase)
            if phase == WalkPhase.SINGLE_SUPPORT]


class TestPathToSetpoints:
    @pytest.mark.parametrize("switch_step", [1, 2])
    def test_support_sides_alternate(self, params, timing, switch_step):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(4))
        log = run_closed_loop(engine, 1 + N_INIT + switch_step * N_STEP + 10)
        assert log[-1][0].step_index == switch_step
        engine.command_setpoints(0.1, 0.0, 0.0)
        log += run_closed_loop(engine, 4 * N_STEP, plant=log[-1][1:])
        assert not any(any(d.softened) for d, _, _ in log)
        sides = single_support_sides([d for d, _, _ in log])
        assert len(sides) >= switch_step + 4
        assert all(a != b for a, b in zip(sides, sides[1:])), sides


PHASE_OF_NAME = {"stand": WalkPhase.IDLE, "initialize": WalkPhase.INITIALIZE,
                 "single": WalkPhase.SINGLE_SUPPORT, "double": WalkPhase.DOUBLE_SUPPORT}
setpoint_entries = st.tuples(st.floats(-0.1, 0.1), st.floats(-0.03, 0.03), st.floats(-10.0, 10.0))


class TestPhaseGrammar:
    @settings(max_examples=10, deadline=None)
    @given(path_steps=st.integers(0, 3),
           switch=st.one_of(st.none(), st.tuples(st.integers(0, 2), st.integers(0, N_STEP - 1))),
           first=setpoint_entries,
           later=st.lists(st.tuples(st.integers(1, 4 * N_STEP), setpoint_entries), max_size=3))
    # A one-step path walk switched to setpoints at once: one axis softens
    # cycle after cycle, and a hard solve seeded with a softened active set
    # once lost the definiteness of its working-set factor.
    @example(path_steps=1, switch=(0, 0), first=(0.015625, 0.0, 8.0), later=[])
    def test_phase_follows_the_timeline(self, params, timing, path_steps, switch, first, later):
        """Setpoint walking from the start (``path_steps`` 0), or a path walk
        switched to setpoints at a random cycle of a random step, or not
        switched: every tick reports the timeline's phase, phases follow
        idle, initialize, (single, double)+ with exact durations, and
        support sides alternate."""
        engine = make_engine(params, timing)
        start = 0
        if path_steps:
            engine.command_path(straight_plan(path_steps))
            start = None if switch is None else (
                1 + N_INIT + min(switch[0], path_steps - 1) * N_STEP + switch[1])
        schedule = [(0, first)] + sorted(later)
        ssd = engine.model
        plant = dict(zip(("x", "y"), engine.standing_states()))
        diags = []
        for k in range(1 + N_INIT + 4 * N_STEP):
            if start is not None and schedule and k - start >= schedule[0][0]:
                entry = schedule.pop(0)[1]
                if engine._rolling:
                    engine.set_setpoints(*entry)
                else:
                    engine.command_setpoints(*entry)
            name, idx = engine._timeline.phase(engine._local_cycle(engine.k))
            assert engine.phase == PHASE_OF_NAME[name]
            diag = engine.tick(ssd.C @ plant["x"], ssd.C @ plant["y"])
            assert diag.phase == PHASE_OF_NAME[name]
            assert diag.step_index == (idx if name in ("single", "double") else -1)
            for axis, u in (("x", diag.u_x), ("y", diag.u_y)):
                plant[axis] = step_plant(ssd, plant[axis], u)
            diags.append(diag)

        runs = [(phase, len(list(run))) for phase, run in groupby(d.phase for d in diags)]
        assert runs[0][0] == WalkPhase.IDLE
        assert runs[1] == (WalkPhase.INITIALIZE, N_INIT)
        body = runs[2:]
        if body[-1][0] == WalkPhase.IDLE:
            # Only an unswitched path walk ends.
            assert start is None
            body.pop()
        assert body
        expected = [(WalkPhase.SINGLE_SUPPORT, N_SINGLE), (WalkPhase.DOUBLE_SUPPORT, N_DOUBLE)]
        for i, (phase, n) in enumerate(body):
            assert phase == expected[i % 2][0]
            assert n == expected[i % 2][1] or i == len(body) - 1
        sides = single_support_sides(diags)
        assert all(a != b for a, b in zip(sides, sides[1:])), sides


class TestSupportFeet:
    def test_single_support_has_one_foot(self, params, timing):
        engine = make_engine(params, timing)
        engine.command_path(straight_plan(2))
        log = run_closed_loop(engine, N_INIT + 5)
        diag = log[-1][0]
        assert diag.phase == WalkPhase.SINGLE_SUPPORT
        assert len(diag.support_feet) == 1

    @pytest.mark.parametrize("walk", ["path", "turning_setpoints"])
    def test_a_fork_shares_the_phase_tuples(self, params, timing, walk):
        # ``check_schedule`` checks every tick's feet against its timeline's
        # tuple for the phase; a fork, ticking on, gets the very tuples of
        # the timeline it was forked on (each later timeline is its own).
        engine = make_engine(params, timing)
        if walk == "path":
            engine.command_path(straight_plan(3))
        else:
            engine.command_setpoints(0.05, 0.0, 12.0)
        run_closed_loop(engine, N_INIT + 10)
        twin, shared = engine.fork(), engine._timeline
        assert twin._timeline is shared
        ahead, again = run_closed_loop(twin, 2 * N_STEP), run_closed_loop(engine, 2 * N_STEP)
        n_shared = 0
        for (a, _, _), (b, _, _) in zip(ahead, again):
            assert a.support_feet == b.support_feet
            if any(a.support_feet is feet for feet in shared.feet.values()):
                assert b.support_feet is a.support_feet
                n_shared += 1
        assert n_shared > 0
