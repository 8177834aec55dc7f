import math
from dataclasses import replace

import numpy as np
import pytest

from triwalk import refgen
from triwalk.dynamics import ThreeMassParams
from triwalk.footstep import Footprint, FootstepPlan, footsteps_from_path, initial_feet_on_path
from triwalk.refgen import (
    GaitTiming,
    WalkTimeline,
    hip_reference,
    mass_references,
    swing_reference,
    zmp_reference,
)

from helpers import export_references


@pytest.fixture(scope="module")
def params():
    return ThreeMassParams.nominal()


@pytest.fixture(scope="module")
def timing():
    return GaitTiming()


@pytest.fixture(scope="module")
def plan():
    xs = np.arange(0.0, 1.01, 0.1)
    path = np.column_stack([xs, np.zeros_like(xs)])
    return footsteps_from_path(path, initial_feet_on_path(path))


def sinh_ref(x):
    # Independent evaluation via exponentials.
    return (math.exp(x) - math.exp(-x)) / 2.0


class TestGaitTiming:
    def test_cycles(self, timing):
        assert timing.cycles(0.02) == (35, 15)

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError):
            GaitTiming(t_single=0.81).cycles(0.02)

    def test_invalid_durations(self):
        with pytest.raises(ValueError):
            GaitTiming(t_single=0.0)
        with pytest.raises(ValueError):
            GaitTiming(t_double=-0.1)


class TestZmpReference:
    def test_starts_on_first_support(self, plan, timing):
        np.testing.assert_allclose(zmp_reference(plan, timing, 0.0),
                                   plan.support(0).xy(), atol=1e-15)

    def test_holds_through_single_support(self, plan, timing):
        for t in (0.0, 0.3, timing.t_single - 1e-3):
            np.testing.assert_allclose(zmp_reference(plan, timing, t),
                                       plan.support(0).xy(), atol=1e-15)

    def test_mid_double_support_ramp(self, plan, timing):
        anchor = plan.support(0).xy()
        target = plan.support(1).xy()
        t = timing.t_single + timing.t_double / 2.0
        np.testing.assert_allclose(zmp_reference(plan, timing, t),
                                   (anchor + target) / 2.0, atol=1e-12)

    def test_continuous_at_step_boundary(self, plan, timing):
        period = timing.step_period
        eps = 1e-12
        before = zmp_reference(plan, timing, period - eps)
        after = zmp_reference(plan, timing, period + eps)
        assert np.linalg.norm(after - before) < 1e-9

    def test_total_variation_equals_travel(self, plan, timing):
        ts = np.linspace(0.0, timing.step_period, 2001)
        pts = np.array([zmp_reference(plan, timing, t) for t in ts])
        tv = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        travel = np.linalg.norm(plan.support(1).xy() - plan.support(0).xy())
        assert tv == pytest.approx(travel, abs=1e-9)

    def test_out_of_range_rejected(self, plan, timing):
        with pytest.raises(ValueError):
            zmp_reference(plan, timing, -0.01)
        with pytest.raises(ValueError):
            zmp_reference(plan, timing, plan.n_steps * timing.step_period + 0.1)


class TestHipReference:
    def test_boundary_conditions_exact(self):
        p = hip_reference(0.1, -0.05, 0.07, 0.0, 0.8, 0.0, 2.86)
        assert p == pytest.approx(-0.05, abs=1e-12)
        p = hip_reference(0.1, -0.05, 0.07, 0.0, 0.8, 0.8, 2.86)
        assert p == pytest.approx(0.07, abs=1e-12)

    def test_equilibrium(self):
        for t in np.linspace(0.0, 0.8, 9):
            assert hip_reference(0.2, 0.2, 0.2, 0.0, 0.8, t, 3.0) == pytest.approx(0.2, abs=1e-14)

    def test_midpoint_symmetric_case(self):
        omega = math.sqrt(9.81 / 1.2)
        val = hip_reference(0.0, -0.05, 0.05, 0.0, 0.8, 0.4, omega)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_against_exponential_evaluation(self):
        omega = math.sqrt(9.81 / 1.2)
        p_st, p_h0, p_hf, t0, tf, t = 0.1, -0.02, 0.06, 0.0, 1.0, 0.35
        num = (p_st - p_hf) * sinh_ref((t - t0) * omega) + (p_h0 - p_st) * sinh_ref((t - tf) * omega)
        expected = p_st + num / sinh_ref((t0 - tf) * omega)
        assert hip_reference(p_st, p_h0, p_hf, t0, tf, t, omega) == pytest.approx(expected, abs=1e-13)

    def test_satisfies_pendulum_equation(self):
        omega = 2.5
        dt = 1e-4
        for t in np.linspace(0.1, 0.7, 7):
            pm = hip_reference(0.1, -0.05, 0.08, 0.0, 0.8, t - dt, omega)
            p0 = hip_reference(0.1, -0.05, 0.08, 0.0, 0.8, t, omega)
            pp = hip_reference(0.1, -0.05, 0.08, 0.0, 0.8, t + dt, omega)
            acc = (pp - 2.0 * p0 + pm) / dt ** 2
            expected = omega ** 2 * (p0 - 0.1)
            assert acc == pytest.approx(expected, rel=1e-6)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            hip_reference(0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 2.0)
        with pytest.raises(ValueError):
            hip_reference(0.0, 0.0, 0.0, 0.0, 0.8, 0.9, 2.0)
        with pytest.raises(ValueError):
            hip_reference(0.0, 0.0, 0.0, 0.0, 0.8, 0.4, -1.0)


class TestSwingReference:
    def test_endpoints(self, timing):
        f0, f1 = np.array([0.0, 0.1]), np.array([0.2, 0.1])
        start = swing_reference(f0, f1, timing, 0.0)
        end = swing_reference(f0, f1, timing, timing.t_single)
        np.testing.assert_allclose(start, [0.0, 0.1, 0.0], atol=1e-15)
        np.testing.assert_allclose(end, [0.2, 0.1, 0.0], atol=1e-15)

    def test_apex_height_exact(self, timing):
        f0, f1 = np.array([0.0, 0.0]), np.array([0.2, 0.0])
        mid = swing_reference(f0, f1, timing, timing.t_single / 2.0)
        assert mid[2] == timing.swing_height

    def test_zero_end_velocity(self, timing):
        f0, f1 = np.array([0.0, 0.0]), np.array([0.2, 0.05])
        dt = 1e-7
        v0 = (swing_reference(f0, f1, timing, dt) - swing_reference(f0, f1, timing, 0.0)) / dt
        v1 = (swing_reference(f0, f1, timing, timing.t_single)
              - swing_reference(f0, f1, timing, timing.t_single - dt)) / dt
        assert np.max(np.abs(v0)) < 1e-6
        assert np.max(np.abs(v1)) < 1e-6

    def test_height_positive_interior_only(self, timing):
        f0, f1 = np.array([0.0, 0.0]), np.array([0.2, 0.0])
        for t in np.linspace(0.0, timing.t_single, 41):
            z = swing_reference(f0, f1, timing, t)[2]
            if t in (0.0, timing.t_single):
                assert z == 0.0
            else:
                assert z > 0.0

    def test_stationary_through_double_support(self, timing):
        f0, f1 = np.array([0.0, 0.0]), np.array([0.2, 0.0])
        for t in (timing.t_single, timing.t_single + 0.1, timing.step_period):
            np.testing.assert_allclose(swing_reference(f0, f1, timing, t), [0.2, 0.0, 0.0],
                                       atol=1e-15)

    def test_out_of_range_rejected(self, timing):
        with pytest.raises(ValueError):
            swing_reference((0, 0), (1, 0), timing, -0.01)
        with pytest.raises(ValueError):
            swing_reference((0, 0), (1, 0), timing, timing.step_period + 0.01)


class TestMassReferences:
    def test_midpoints(self):
        r_st, torso, r_sw = mass_references((0.0, 0.0), (0.1, 0.0), (0.2, 0.0, 0.03))
        assert r_st[0] == pytest.approx(0.05)
        assert r_sw[0] == pytest.approx(0.15)
        assert torso[0] == pytest.approx(0.1)

    def test_stance_reference_continuous_over_full_plan(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        prev = None
        worst = 0.0
        for k in range(tl.total_cycles + 20):
            cur = tl.sample(k).stance_mass
            if prev is not None:
                worst = max(worst, float(np.linalg.norm(cur - prev)))
            prev = cur
        # Largest per-cycle move is bounded by the ZMP ramp speed; no jumps.
        ramp_per_cycle = 0.3 * 0.02 / timing.t_double
        assert worst <= ramp_per_cycle + 1e-9


class TestWalkTimeline:
    def test_phase_sequence(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        assert tl.phase(-1) == ("stand", -1)
        assert tl.phase(0) == ("initialize", -1)
        assert tl.phase(tl.n_init) == ("single", 0)
        assert tl.phase(tl.n_init + tl.n_single) == ("double", 0)
        assert tl.phase(tl.n_init + tl.n_step) == ("single", 1)
        assert tl.phase(tl.total_cycles) == ("stand", plan.n_steps)

    def test_phase_boundaries_align_with_samples(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        changes = []
        prev = tl.phase(0)
        for k in range(1, tl.total_cycles + 1):
            cur = tl.phase(k)
            if cur != prev:
                changes.append(k)
                prev = cur
        assert changes[0] == tl.n_init
        for k in changes[1:]:
            local = k - tl.n_init
            assert local % tl.n_step in (0, tl.n_single)

    def test_initialize_ramps_zmp_to_first_support(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        np.testing.assert_allclose(tl.sample(0).zmp,
                                   0.5 * (plan.footprints[0].xy() + plan.footprints[1].xy()),
                                   atol=1e-15)
        np.testing.assert_allclose(tl.sample(tl.n_init).zmp, plan.support(0).xy(), atol=1e-12)

    def test_matches_free_functions_inside_steps(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        for k in (tl.n_init, tl.n_init + 7, tl.n_init + tl.n_step + 23):
            local = k - tl.n_init
            t = local * 0.02
            np.testing.assert_allclose(tl.sample(k).zmp, zmp_reference(plan, timing, t),
                                       atol=1e-12)

    def test_negative_and_past_end_hold(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        np.testing.assert_array_equal(tl.sample(-5).zmp, tl.sample(-1).zmp)
        np.testing.assert_array_equal(tl.sample(tl.total_cycles + 5).zmp,
                                      tl.sample(tl.total_cycles).zmp)


def x_window(tl, cycle, n):
    """The x column of ``tl.window`` as (zmp, stance mass, swing mass)."""
    rows = tl.window(cycle, n)[:, :, 0]
    return rows[:, 0], rows[:, 1], rows[:, 2]


class TestAssembleBundle:
    """Reference windows as the controller reads them (``WalkTimeline.window``)."""

    def test_standing_plan_constant(self, timing, params):
        fps = FootstepPlan(tuple(
            __import__("triwalk.footstep", fromlist=["Footprint"]).Footprint(x, y, 0.0, s)
            for x, y, s in ((0.0, 0.1, "L"), (0.0, -0.1, "R"))))
        tl = WalkTimeline(fps, timing, params, ts=0.02)
        r_zmp, r_stance, r_swing = x_window(tl, 50, 30)
        assert np.ptp(r_zmp) == 0.0
        assert np.ptp(r_stance) == 0.0
        assert np.ptp(r_swing) == 0.0

    def test_window_crossing_step_boundary(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        k = tl.n_init + tl.n_single - 5
        r_zmp, _, _ = x_window(tl, k, 20)
        direct = [tl.sample(k + 1 + j).zmp[0] for j in range(20)]
        np.testing.assert_array_equal(r_zmp, direct)
        assert np.ptp(r_zmp[:4]) == 0.0   # still holding
        assert np.ptp(r_zmp[6:16]) > 0.0  # ramp segment in window

    def test_tail_padded_with_final_values(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        r_zmp, _, _ = x_window(tl, tl.total_cycles - 3, 10)
        assert np.ptp(r_zmp[4:]) == 0.0


def turning_plan(n_steps, turn=0.2, length=0.1, width=0.2):
    """Footprints turning by ``turn`` rad per step (no fixed step length)."""
    fps = [Footprint(0.0, width / 2, 0.0, "L"), Footprint(0.0, -width / 2, 0.0, "R")]
    for _ in range(n_steps):
        support, side = fps[-1], fps[-2].side
        heading = support.theta + turn
        lateral = width if side == "L" else -width
        c, s = math.cos(heading), math.sin(heading)
        fps.append(Footprint(support.x + c * length - s * lateral,
                             support.y + s * length + c * lateral, heading, side))
    return FootstepPlan(tuple(fps), step_distance=None)


def table_cases(plan, timing, params):
    """Timelines over straight, turning and one-step plans, with and without
    the initialize window, and with a gait that has no double support."""
    no_double = GaitTiming(t_single=0.8, t_double=0.0)
    cases = [(plan, timing, True), (plan, timing, False), (turning_plan(4), timing, True),
             (turning_plan(4), timing, False), (plan.truncated(1), timing, True),
             (turning_plan(1), timing, False), (plan, no_double, True),
             (turning_plan(3), no_double, False)]
    return [WalkTimeline(p, t, params, ts=0.02, include_initialize=init)
            for p, t, init in cases]


def expected_sample(tl, cycle):
    """(zmp, hip, swing) of one cycle from the free reference functions."""
    plan, timing = tl.plan, tl.timing
    fps = plan.footprints
    if cycle < 0 or cycle >= tl.total_cycles:
        pair, home = (fps[:2], fps[0]) if cycle < 0 else (fps[-2:], fps[-1])
        mid = 0.5 * (pair[0].xy() + pair[1].xy())
        return mid, mid, np.array([home.x, home.y, 0.0])
    mid0 = 0.5 * (fps[0].xy() + fps[1].xy())
    if cycle < tl.n_init:
        zmp = mid0 + (plan.support(0).xy() - mid0) * (cycle / tl.n_init)
        return zmp, mid0, np.array([fps[0].x, fps[0].y, 0.0])
    i, j = divmod(cycle - tl.n_init, tl.n_step)
    t = j * tl.ts
    # Step i is the first step of the plan that starts at footprint i, so
    # zmp_reference sees the step-local time exactly.
    zmp = zmp_reference(FootstepPlan(fps[i:i + 4], step_distance=None), timing, t)
    hip = hip_reference(plan.support(i).xy(), 0.5 * (fps[i].xy() + fps[i + 1].xy()),
                        0.5 * (fps[i + 1].xy() + fps[i + 2].xy()), 0.0, timing.step_period,
                        t, tl.params.omega)
    swing = swing_reference(fps[i].xy(), plan.swing_to(i).xy(), timing, t)
    return zmp, hip, swing


class TestReferenceTable:
    def test_window_matches_sample_across_clamped_ends(self, plan, timing, params):
        for tl in table_cases(plan, timing, params):
            first, last = -5, tl.total_cycles + 5
            rows = tl.window(first - 1, last - first + 1)
            assert rows.shape == (last - first + 1, 3, 2)
            assert rows.flags.c_contiguous
            for j, cycle in enumerate(range(first, last + 1)):
                s = tl.sample(cycle)
                np.testing.assert_array_equal(rows[j], [s.zmp, s.stance_mass, s.swing_mass])
                np.testing.assert_array_equal(tl.window(cycle - 1, 1)[0], rows[j])

    def test_sample_matches_reference_curves(self, plan, timing, params):
        for tl in table_cases(plan, timing, params):
            for cycle in range(-1, tl.total_cycles + 1):
                zmp, hip, swing = expected_sample(tl, cycle)
                r_st, _, r_sw = mass_references(zmp, hip, swing)
                s = tl.sample(cycle)
                np.testing.assert_array_equal(s.zmp, zmp)
                np.testing.assert_array_equal(s.hip, hip)
                np.testing.assert_array_equal(s.swing, swing)
                np.testing.assert_array_equal(s.stance_mass, r_st)
                np.testing.assert_array_equal(s.swing_mass, r_sw)

    def test_phase_ids_are_one_contiguous_range_per_window(self, plan, timing, params):
        for tl in table_cases(plan, timing, params):
            ids = tl.phase_ids(-4, tl.total_cycles + 8)
            keys = [tl.phase(c) for c in range(-3, tl.total_cycles + 5)]
            assert [tl.keys[i] for i in ids] == keys
            assert len(set(keys)) == len(tl.keys)
            assert np.all(np.diff(ids) >= 0) and np.all(np.diff(ids) <= 1)

    def test_table_is_read_only(self, plan, timing, params):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        s = tl.sample(tl.n_init + 3)
        for arr in (s.zmp, s.hip, s.swing, s.stance_mass, s.swing_mass):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        rows = tl.window(0, 10)
        rows[:] = 1.0   # a window is the caller's copy
        assert tl.sample(1).zmp[0] != 1.0

    def test_step_weights_shared_read_only(self, timing, params):
        weights = refgen._step_weights(timing, 0.02, params.omega)
        assert refgen._step_weights(replace(timing), 0.02, params.omega) is weights
        for w in weights:
            assert w.shape == (sum(timing.cycles(0.02)),)
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 1


class TestExport:
    def test_csv_round_numbers(self, plan, timing, params, tmp_path):
        tl = WalkTimeline(plan, timing, params, ts=0.02)
        out = tmp_path / "refs.csv"
        export_references(tl, out, n_cycles=25)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 26
