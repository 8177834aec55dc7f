import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk.dynamics import (
    ThreeMassParams,
    build_continuous,
    discretize,
    make_state,
    step_plant,
)
from triwalk import mpc
from triwalk.mpc import (
    AxisController,
    MpcConfig,
    Observer,
    ObserverConfig,
    PushGate,
    build_constraints,
    build_prediction,
    cost_matrices,
)
from triwalk.qp import (
    STATUS_OPTIMAL,
    ActiveSetSolver,
    QpFactors,
    QpProblem,
)

from oracles import (
    condensed_qp_data,
    kkt_residual,
    phase_box_per_axis,
    polyhedron_is_empty,
    riccati_residual,
    tracking_transposes,
)


@pytest.fixture(scope="module")
def params():
    return ThreeMassParams.nominal()


@pytest.fixture(scope="module")
def ssd(params):
    return discretize(build_continuous(params), 0.02)


def constant_refs(n, stance=0.0, swing=0.0, zmp=0.0):
    """(n, 3) reference window in stacked output order."""
    return np.tile([float(stance), float(swing), float(zmp)], (n, 1))


def cost(pred, refs, cfg, x, u_prev):
    """One axis's cost ``1/2 z'Hz + f'z`` through the controller's maps:
    H, f_err and f_held from ``cost_matrices``, the free response from
    ``free_map``."""
    H, f_err, f_held = cost_matrices(pred, cfg)
    free = pred.free_map @ np.concatenate([x, u_prev])
    return H, f_err @ (free - refs.ravel()) + f_held @ u_prev


def step_both(ctrl, x, refs, lo, hi):
    """One ``control_step`` with the same one-axis subproblem on both axes;
    returns the first axis's input and info."""
    U, infos = ctrl.control_step(*(np.stack([a, a]) for a in (x, refs, lo, hi)))
    return U[0], infos[0]


class TestPrediction:
    def test_one_step_horizon(self, ssd):
        cfg = MpcConfig(n_pred=1, n_ctrl=1)
        pred = build_prediction(ssd, cfg)
        np.testing.assert_allclose(pred.phi, ssd.C @ ssd.A, atol=1e-15)
        np.testing.assert_allclose(pred.gamma, ssd.C @ ssd.B, atol=1e-15)
        np.testing.assert_allclose(pred.phi_u, ssd.C @ ssd.B, atol=1e-15)

    def test_constant_previous_input(self, ssd):
        cfg = MpcConfig(n_pred=12, n_ctrl=4)
        pred = build_prediction(ssd, cfg)
        u_prev = np.array([0.3, -0.7, 1.1])
        predicted = pred.phi_u @ u_prev  # zero state, zero increments
        x = np.zeros(9)
        expected = []
        for _ in range(cfg.n_pred):
            x = step_plant(ssd, x, u_prev)
            expected.append(ssd.C @ x)
        np.testing.assert_allclose(predicted, np.concatenate(expected), atol=1e-12)

    def test_matches_step_simulation(self, ssd):
        rng = np.random.default_rng(17)
        cfg = MpcConfig(n_pred=15, n_ctrl=5)
        pred = build_prediction(ssd, cfg)
        x0 = rng.normal(size=9)
        u_prev = rng.normal(size=3)
        dU = rng.normal(size=3 * cfg.n_ctrl)
        predicted = pred.phi @ x0 + pred.phi_u @ u_prev + pred.gamma @ dU
        x = x0.copy()
        u = u_prev.copy()
        outputs = []
        for j in range(cfg.n_pred):
            if j < cfg.n_ctrl:
                u = u + dU[3 * j:3 * j + 3]
            x = step_plant(ssd, x, u)
            outputs.append(ssd.C @ x)
        np.testing.assert_allclose(predicted, np.concatenate(outputs), atol=1e-10)

    def test_sample_time_mismatch_rejected(self, params):
        ss_bad = discretize(build_continuous(params), 0.05)
        with pytest.raises(ValueError):
            build_prediction(ss_bad, MpcConfig())


class TestCost:
    def test_on_reference_gradient_vanishes(self, ssd):
        rng = np.random.default_rng(23)
        # f is zero for any jerk weight; a positive one keeps H regular.
        cfg = MpcConfig(n_pred=10, n_ctrl=4, w_jerk=(1e-4, 1e-4, 1e-4))
        pred = build_prediction(ssd, cfg)
        x = rng.normal(size=9)
        free = pred.phi @ x  # u_prev = 0
        refs = np.column_stack([free[0::3], free[1::3], free[2::3]])
        H, f = cost(pred, refs, cfg, x, np.zeros(3))
        assert np.max(np.abs(f)) < 1e-9
        assert np.max(np.abs(np.linalg.solve(H, f))) < 1e-9

    def test_uniform_weight_scaling(self, ssd):
        rng = np.random.default_rng(24)
        cfg = MpcConfig(n_pred=8, n_ctrl=3)
        cfg2 = MpcConfig(n_pred=8, n_ctrl=3, w_zmp=40.0, w_stance=40.0, w_swing=40.0,
                         w_jerk=(2e-4, 2e-4, 2e-4))
        pred = build_prediction(ssd, cfg)
        x = rng.normal(size=9)
        u_prev = rng.normal(size=3)
        refs = constant_refs(8, 0.1, -0.2, 0.05)
        H1, f1 = cost(pred, refs, cfg, x, u_prev)
        H2, f2 = cost(pred, refs, cfg2, x, u_prev)
        np.testing.assert_allclose(H2, 2.0 * H1, rtol=1e-12)
        np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.solve(H2, f2), np.linalg.solve(H1, f1), atol=1e-10)

    def test_single_step_hand_expansion(self, ssd):
        cfg = MpcConfig(n_pred=1, n_ctrl=1, w_zmp=3.0, w_stance=5.0, w_swing=7.0,
                        w_jerk=(0.1, 0.2, 0.3))
        pred = build_prediction(ssd, cfg)
        rng = np.random.default_rng(25)
        x = rng.normal(size=9)
        u_prev = rng.normal(size=3)
        refs = constant_refs(1, 0.02, -0.01, 0.03)
        H, f = cost(pred, refs, cfg, x, u_prev)
        W = np.diag([5.0, 7.0, 3.0])
        CB = ssd.C @ ssd.B
        Wu = np.diag([0.1, 0.2, 0.3])
        H_hand = 2.0 * (CB.T @ W @ CB + Wu)
        err = ssd.C @ ssd.A @ x + CB @ u_prev - np.array([0.02, -0.01, 0.03])
        f_hand = 2.0 * (CB.T @ W @ err + Wu @ u_prev)
        np.testing.assert_allclose(H, H_hand, atol=1e-12)
        np.testing.assert_allclose(f, f_hand, atol=1e-12)


def foot_box(params, cfg, centers, swing_side=None):
    """(axis, lo/hi, output) bounds of feet of nominal extents at ``centers`` (k, 2)."""
    half = np.tile([params.foot_length / 2.0, params.foot_width / 2.0], (len(centers), 1))
    return build_constraints(centers, half, params, cfg, swing_side)


def window_box(box, cfg):
    """One phase's (lo, hi) box repeated over the whole constraint window."""
    lo, hi = box
    n = cfg.constraint_window
    return np.tile(lo, (n, 1)), np.tile(hi, (n, 1))


class TestConstraints:
    # Raw support-polygon arithmetic, without the optional headroom features.
    plain = dict(zmp_margin=0.0, zmp_bias=0.0)

    def test_single_support_zmp_bounds(self, params):
        lo, hi = foot_box(params, MpcConfig(**self.plain), [[0.3, 0.0]], 1.0)[0]
        assert (lo[2], hi[2]) == pytest.approx((0.21, 0.39))

    def test_stand_zmp_bounds_symmetric(self, params):
        lo, hi = foot_box(params, MpcConfig(**self.plain), [[0.0, 0.0], [0.0, 0.0]])[0]
        assert hi[2] == pytest.approx(0.09) and lo[2] == pytest.approx(-0.09)

    def test_double_support_hull(self, params):
        lo, hi = foot_box(params, MpcConfig(**self.plain), [[0.0, 0.0], [0.1, 0.0]])[0]
        assert (lo[2], hi[2]) == pytest.approx((-0.09, 0.19))

    def test_margin_and_bias_shift_bounds(self, params):
        cfg = MpcConfig(zmp_margin=0.01, zmp_bias=0.005)
        (lo, hi), (_, hi_y) = foot_box(params, cfg, [[0.3, 0.3]], 1.0)
        assert (lo[2], hi[2]) == pytest.approx((0.21 + 0.01 + 0.005, 0.39 - 0.01 + 0.005))
        assert hi_y[2] == pytest.approx(0.3 + 0.045 - 0.01)  # bias is sagittal only

    def test_frontal_mirroring(self, params):
        cfg = MpcConfig()
        lo_p, hi_p = foot_box(params, cfg, [[0.0, 0.1]], -1.0)[1]
        lo_n, hi_n = foot_box(params, cfg, [[0.0, -0.1]], 1.0)[1]
        for out_idx in (0, 1, 2):
            assert (lo_p[out_idx], hi_p[out_idx]) == (-hi_n[out_idx], -lo_n[out_idx])

    def test_swing_corridor_band_in_single_support(self, params):
        cfg = MpcConfig()
        lo, hi = foot_box(params, cfg, [[0.0, 0.1]], -1.0)[1]
        assert (lo[1], hi[1]) == pytest.approx((0.1 - 0.30, 0.1 - 0.05))

    def test_stance_corridor_present_every_phase(self, params):
        cfg = MpcConfig()
        for support, side in (((0.0,), 1.0), ((0.0, 0.1), None), ((0.0, 0.0), None)):
            lo, hi = foot_box(params, cfg, [[c, 0.0] for c in support], side)[0]
            centers = np.atleast_1d(support)
            assert (lo[0], hi[0]) == pytest.approx((centers.min() - cfg.swing_reach,
                                                    centers.max() + cfg.swing_reach))

    def test_jerk_rows_present(self, ssd, params):
        cfg = MpcConfig()
        ctrl = AxisController(ssd, cfg)
        lo, hi = window_box(
            foot_box(params, cfg, [[0.0, 0.0], [0.0, 0.0]])[0], cfg)
        _, b = condensed_qp_data(ctrl.pred, cfg, np.zeros(9), np.zeros(3),
                                 constant_refs(cfg.n_pred), lo, hi)
        jerk = slice(6 * cfg.constraint_window, None)
        assert ctrl.A[jerk].shape[0] == 6 * cfg.n_ctrl == b[jerk].shape[0]
        assert set(np.unique(ctrl.A[jerk])) == {-1.0, 0.0, 1.0}
        assert np.all(b[jerk] == 500.0)

    def test_inconsistent_geometry_rejected(self, params):
        with pytest.raises(ValueError):
            build_constraints([[0.0, 0.0]], [[-0.1, 0.05]], params, MpcConfig(), 1.0)

    def test_frontal_needs_swing_side(self, params):
        with pytest.raises(ValueError):
            foot_box(params, MpcConfig(), [[0.0, 0.0]])


coords = st.floats(-5.0, 5.0)
extents = st.floats(0.0, 0.15)


class TestPhaseBox:
    @settings(max_examples=300, deadline=None)
    @given(feet=st.lists(st.tuples(coords, coords, extents, extents), min_size=1, max_size=2),
           side=st.sampled_from([-1.0, 1.0]), margin=st.floats(0.0, 0.05),
           bias=st.floats(-0.01, 0.01), reach=st.floats(0.05, 0.5),
           band=st.tuples(st.floats(0.0, 0.2), st.floats(0.01, 0.3)))
    def test_matches_per_axis_oracle(self, params, feet, side, margin, bias, reach, band):
        """Both axes at once, bitwise the per-axis scalar rule, for one or
        two feet; where that rule finds the ZMP box empty, so does this one."""
        cfg = MpcConfig(zmp_margin=margin, zmp_bias=bias, swing_reach=reach,
                        swing_band=(band[0], band[0] + band[1]))
        centers, half = [f[:2] for f in feet], [f[2:] for f in feet]
        side = side if len(feet) == 1 else None
        try:
            expected = phase_box_per_axis(centers, half, params, cfg, side)
        except ValueError:
            with pytest.raises(ValueError, match="inconsistent ZMP bounds"):
                build_constraints(centers, half, params, cfg, side)
            return
        got = build_constraints(centers, half, params, cfg, side)
        assert got.shape == (2, 2, 3)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("centers, side", [
        ([[0.0, 0.0]], 0.5), ([[0.0, 0.0], [0.1, 0.0]], 1.0),
        ([[0.0, 0.0]] * 3, None), ([[0.0, 0.0, 0.0]], 1.0), ([[np.nan, 0.0]], 1.0),
    ])
    def test_phase_follows_the_feet(self, params, centers, side):
        # One foot needs a swing side of +-1 (``test_frontal_needs_swing_side``
        # omits it), two feet none; k is 1 or 2 and the centers finite.
        with pytest.raises(ValueError):
            build_constraints(centers, np.full(np.shape(centers), 0.05), params, MpcConfig(),
                              side)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("jerk_limit", np.nan), ("jerk_limit", np.inf), ("soft_penalty", np.nan),
        ("w_zmp", np.nan), ("w_jerk", (1e-4, np.inf, 1e-4)), ("ts", np.nan),
        ("zmp_bias", -np.inf), ("swing_reach", -0.1), ("swing_reach", 0.0),
        ("swing_band", (0.30, 0.05)), ("swing_band", (-0.01, 0.30)), ("swing_band", (0.1, 0.1)),
        ("w_jerk", (0.0, 0.0, 0.0)), ("w_jerk", (1e-4, 0.0, 1e-4)), ("w_jerk", (1e-4, 1e-4, -1e-4)),
    ])
    def test_non_finite_or_inverted_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MpcConfig(**{field: value})

    @pytest.mark.parametrize("config, field, value", [
        (MpcConfig, "w_jerk", (1e-4,)), (MpcConfig, "w_jerk", 1e-4),
        (MpcConfig, "swing_band", (0.05,)), (MpcConfig, "swing_band", (0.05, 0.3, 0.4)),
        (ObserverConfig, "jerk_noise", (1.0,)), (ObserverConfig, "jerk_noise", 1.0),
        (ObserverConfig, "measurement_noise", (0.1, 0.1)),
        (ObserverConfig, "measurement_noise", 0.1),
    ])
    def test_wrong_lengths_rejected(self, config, field, value):
        with pytest.raises(ValueError, match=f"^{field} must hold"):
            config(**{field: value})


class TestControlStep:
    def make_controller(self, ssd, **kwargs):
        # Bounds over the whole prediction horizon.
        cfg = MpcConfig(**kwargs)
        cfg = replace(cfg, n_constrained=cfg.n_pred)
        return AxisController(ssd, cfg), cfg

    def test_equilibrium_zero_command(self, ssd, params):
        ctrl, cfg = self.make_controller(ssd)
        # Output-consistent standing posture: torso placed so the static ZMP
        # sits exactly on its reference.
        x = make_state((0.0, 0.015, -0.05))
        refs = constant_refs(cfg.n_pred, 0.0, -0.05, 0.0)
        lo, hi = window_box(
            foot_box(params, cfg, [[-0.05, 0.0], [0.05, 0.0]])[0], cfg)
        u, info = step_both(ctrl, x, refs, lo, hi)
        assert np.linalg.norm(u) < 1e-6
        assert info.status == "optimal"

    def test_constant_zmp_offset_tracked(self, ssd, params):
        ctrl, cfg = self.make_controller(ssd)
        target = 0.05
        refs = constant_refs(cfg.n_pred, 0.0, 0.0, target)
        lo, hi = window_box(
            foot_box(params, cfg, [[-0.1, 0.0], [0.1, 0.0]])[0], cfg)
        x = np.zeros(9)
        zmp_row = ssd.C[2]
        for _ in range(100):  # 2 s of closed loop
            u, _ = step_both(ctrl, x, refs, lo, hi)
            x = step_plant(ssd, x, u)
        assert abs(zmp_row @ x - target) < 2e-3

    def test_zmp_bound_saturates_without_violation(self, ssd, params):
        ctrl, cfg = self.make_controller(ssd)
        refs = constant_refs(cfg.n_pred, 0.0, 0.0, 0.2)  # outside the support polygon
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        bound = 0.9 * params.foot_length / 2.0
        x = np.zeros(9)
        zmp_values = []
        for _ in range(150):
            u, info = step_both(ctrl, x, refs, lo, hi)
            x = step_plant(ssd, x, u)
            zmp_values.append(ssd.C[2] @ x)
        assert max(zmp_values) <= bound + 1e-8
        assert max(zmp_values[-20:]) > 0.8 * bound

    def test_hard_rows_hold_on_predicted_trajectory(self, ssd, params):
        ctrl, cfg = self.make_controller(ssd)
        rng = np.random.default_rng(31)
        refs = constant_refs(cfg.n_pred, 0.0, 0.0, 0.15)
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        x = rng.normal(size=9) * 0.01
        A = ctrl.A
        _, b = condensed_qp_data(ctrl.pred, cfg, x, ctrl.u_prev[0], refs, lo, hi)
        u, info = step_both(ctrl, x, refs, lo, hi)
        assert info.status == "optimal"
        dU = np.zeros(3 * cfg.n_ctrl)
        dU[:3] = u - 0.0  # u_prev was zero
        # Reconstruct the full decision from the solver through a fresh solve.
        ctrl2, _ = self.make_controller(ssd)
        H, f = cost(ctrl2.pred, refs, cfg, x, np.zeros(3))
        sol = ctrl2.solver.solve(QpProblem(QpFactors.build(H, A), f, b))
        assert np.max(A @ sol.z - b) <= 1e-8

    def test_receding_increments_shrink(self, ssd, params):
        ctrl, cfg = self.make_controller(ssd)
        refs = constant_refs(cfg.n_pred, 0.02, -0.03, 0.01)
        lo, hi = window_box(
            foot_box(params, cfg, [[-0.1, 0.0], [0.1, 0.0]])[0], cfg)
        x = np.zeros(9)
        u_last = np.zeros(3)
        diffs = []
        for _ in range(120):
            u, _ = step_both(ctrl, x, refs, lo, hi)
            x = step_plant(ssd, x, u)
            diffs.append(np.linalg.norm(u - u_last))
            u_last = u
        windows = [max(diffs[i:i + 20]) for i in range(20, 120, 20)]
        assert all(b <= a + 1e-12 for a, b in zip(windows, windows[1:]))

    @staticmethod
    def record_solves(ctrl, monkeypatch):
        """Every (problem, solution) of ``ctrl``'s solver from now on."""
        calls = []
        solve = ctrl.solver.solve
        monkeypatch.setattr(ctrl.solver, "solve", lambda problem, warm_start=None: calls.append(
            (problem, solve(problem, warm_start=warm_start))) or calls[-1][1])
        return calls

    def test_softening_fallback_on_infeasible_state(self, ssd, params, monkeypatch):
        # Both sides of ``_SOFTENED_SLACK``: a cycle whose hard problem is
        # infeasible softens; a hard-feasible cycle with active output rows
        # moves them by far less than the threshold and does not.
        ctrl, cfg = self.make_controller(ssd, jerk_limit=1.0, swing_reach=0.01)
        refs = constant_refs(cfg.n_pred)
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        calls = self.record_solves(ctrl, monkeypatch)
        x = make_state((0.0, 0.0, 1.0))  # swing mass far outside its corridor
        u, info = step_both(ctrl, x, refs, lo, hi)
        problem, sol = calls[0]
        assert polyhedron_is_empty(ctrl.A, problem.b)
        assert info.softened and sol.slacks.max() > mpc._SOFTENED_SLACK
        assert np.all(np.isfinite(u))
        assert np.all(np.abs(u) <= 1.0 + 1e-9)  # input rows stayed hard

        ctrl, cfg = self.make_controller(ssd)
        refs = constant_refs(cfg.n_pred, 0.0, 0.0, 0.2)  # outside the support polygon
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        calls = self.record_solves(ctrl, monkeypatch)
        _, info = step_both(ctrl, np.zeros(9), refs, lo, hi)
        problem, sol = calls[0]
        assert not polyhedron_is_empty(ctrl.A, problem.b)
        assert np.any(np.asarray(sol.active_set) < problem.factors.soft_rows.size)
        assert not info.softened and 0.0 < sol.slacks.max() <= 1e-4

    def test_one_solve_per_axis_per_cycle(self, ssd, params, monkeypatch):
        # Hard-feasible or not, each axis solves its softened QP once, and
        # the cycle reports that solve's status, objective and iterations.
        ctrl, cfg = self.make_controller(ssd, jerk_limit=1.0, swing_reach=0.01)
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        calls = self.record_solves(ctrl, monkeypatch)
        X = np.stack([make_state((0.0, 0.0, 1.0)), np.zeros(9)])
        refs = np.stack([constant_refs(cfg.n_pred), constant_refs(cfg.n_pred, 0.0, 0.0, 0.02)])
        for cycle in range(3):
            U, infos = ctrl.control_step(X, refs, np.stack([lo, lo]), np.stack([hi, hi]))
            assert len(calls) == 2 * (cycle + 1)
            for (problem, sol), info in zip(calls[-2:], infos):
                assert problem.factors is ctrl._factors
                assert (info.status, info.objective, info.iterations) == (
                    sol.status, sol.objective, sol.iterations)
            if not cycle:
                assert [info.softened for info in infos] == [True, False]
                assert infos[0].iterations > 0
            X = np.stack([step_plant(ssd, x, u) for x, u in zip(X, U)])

    def test_warm_start_carries_through_a_softened_streak(self, ssd, params, monkeypatch):
        # A torso pushed at 3 m/s makes three cycles in a row hard-infeasible;
        # the fourth is feasible again, but so barely that the penalty still
        # prefers 7 cm of violation: a quadratic penalty is not exact, and
        # all four cycles soften.  Every solve is seeded with the previous
        # cycle's active set.
        cfg = MpcConfig()
        ctrl = AxisController(ssd, cfg)
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        calls, rhs = [], []
        solve = ctrl.solver.solve
        monkeypatch.setattr(ctrl.solver, "solve", lambda problem, warm_start=None: calls.append(
            (problem, warm_start, solve(problem, warm_start=warm_start))) or calls[-1][2])
        condense = mpc.condense_constraints
        monkeypatch.setattr(mpc, "condense_constraints",
                            lambda *args: rhs.append(condense(*args)) or rhs[-1])
        x = make_state((0.1, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 50.0, 0.0))
        cycles, iterations = [], 0
        for _ in range(4):
            start = len(calls)
            U, infos = ctrl.control_step(*(np.stack([a, a]) for a in
                                           (x, constant_refs(cfg.n_pred), lo, hi)))
            assert all(info.softened for info in infos)
            cycles.append(calls[start:])
            iterations += sum(info.iterations for info in infos)
            x = step_plant(ssd, x, U[0])
        assert [len(c) for c in cycles] == [2, 2, 2, 2]   # both axes
        assert cycles[3][0][2].status == STATUS_OPTIMAL
        for prev, cur in zip(cycles, cycles[1:]):
            # Each axis starts from its own last active set, which carries
            # its factor.
            for (_, _, sol), (problem, warm, _) in zip(prev, cur):
                assert warm is sol.active_set and warm.factors is problem.factors
        assert [[polyhedron_is_empty(ctrl.A, b) for b in B] for B in rhs] == (
            [[True, True]] * 3 + [[False, False]])
        assert 0.05 < cycles[3][0][2].slacks.max() < 0.1

        cold_iterations = 0
        for problem, _, sol in (call for cycle in cycles for call in cycle):
            cold = ActiveSetSolver().solve(problem)
            cold_iterations += cold.iterations
            assert cold.status == sol.status
            scale = 1.0 + np.max(np.abs(problem.f)) + np.max(np.abs(ctrl._factors.H @ sol.z))
            assert kkt_residual(problem, sol.z) <= 1e-8 * scale
            assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
            np.testing.assert_allclose(sol.z, cold.z, atol=1e-5)
        # Cold solves of the same problems are what a cleared warm start costs.
        assert iterations < cold_iterations

    def test_qp_factored_once_per_controller(self, ssd, params, monkeypatch):
        # (H, A) are fixed by the model and config, so the QP is factored
        # once per configuration: by the first controller built from it, in
        # no cycle, with or without active rows, softened or not, and not by
        # a second controller of an equal configuration.
        shapes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
        mpc._controller_matrices.cache_clear()
        cfg = MpcConfig()
        ctrl = AxisController(ssd, cfg)
        assert shapes == [(3 * cfg.n_ctrl,) * 2]
        refs = constant_refs(cfg.n_pred, 0.0, 0.0, 0.15)  # drives the ZMP onto its bound
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        x = np.zeros(9)
        iterations = 0
        for _ in range(50):
            u, info = step_both(ctrl, x, refs, lo, hi)
            assert info.status == "optimal"
            iterations += info.iterations
            x = step_plant(ssd, x, u)
        assert iterations > 0
        assert len(shapes) == 1
        assert not ctrl.A.flags.writeable

        # An equal model built apart and an equal config factor nothing.
        again = AxisController(discretize(build_continuous(params), 0.02), MpcConfig())
        assert len(shapes) == 1 and again._factors is ctrl._factors
        # Another soft penalty or prediction horizon factors anew.
        AxisController(ssd, replace(cfg, soft_penalty=1e5))
        AxisController(ssd, replace(cfg, n_pred=60))
        assert len(shapes) == 3

        cfg = MpcConfig(jerk_limit=1.0, swing_reach=0.01)
        soft = AxisController(ssd, cfg)
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        for _ in range(2):
            _, info = step_both(soft, make_state((0.0, 0.0, 1.0)), constant_refs(cfg.n_pred),
                                        lo, hi)
            assert info.softened
        assert len(shapes) == 4


class TestSharedMatrices:
    """Controllers and observers of equal configurations share their fixed
    arrays, read-only."""

    def test_shared_arrays_are_read_only(self, ssd, params):
        ctrl = AxisController(ssd, MpcConfig())
        twin = AxisController(discretize(build_continuous(params), 0.02), MpcConfig())
        obs = Observer(ssd)
        shared = (ctrl.pred.free_map, ctrl.pred.phi, ctrl.pred.phi_u, ctrl.pred.gamma,
                  ctrl.pred.u_map, ctrl._f_err, ctrl._f_held, *ctrl._rhs, ctrl._factors.G,
                  obs.gain, obs.gain_boost, obs.innovation_std)
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1.0
        assert twin.pred is ctrl.pred and twin._rhs is ctrl._rhs
        assert Observer(discretize(build_continuous(params), 0.02)).gain is obs.gain

    def test_undetectable_config_raises_on_every_construction(self, ssd):
        config = ObserverConfig(jerk_noise=(1e-6,) * 3, measurement_noise=(1e10,) * 3)
        before = mpc._observer_gains.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ValueError, match="not detectable"):
                Observer(ssd, config)
        assert mpc._observer_gains.cache_info().currsize == before

    def test_sequences_stored_as_tuples(self, ssd):
        cfg = MpcConfig(w_jerk=np.array([1e-4, 1e-4, 1e-4]), swing_band=[0.05, 0.30])
        assert cfg == MpcConfig() and hash(cfg) == hash(MpcConfig())
        assert AxisController(ssd, cfg)._factors is AxisController(ssd, MpcConfig())._factors
        assert ObserverConfig(jerk_noise=[1, 1, 1]).jerk_noise == (1.0, 1.0, 1.0)


class TestTwoAxes:
    """Row i of every (2, ...) array is axis i, computed exactly as a
    one-axis call computes it."""

    def test_helpers_match_per_row_calls_bitwise(self, ssd):
        # The block-by-block oracle the controller's maps are checked against.
        rng = np.random.default_rng(51)
        cfg = MpcConfig()
        pred = build_prediction(ssd, cfg)
        GtW, UtW = tracking_transposes(pred, cfg)
        X, u_prev = rng.normal(size=(2, 9)), rng.normal(size=(2, 3))
        refs = rng.normal(size=(2, cfg.n_pred, 3))
        err = np.matvec(pred.phi, X) + np.matvec(pred.phi_u, u_prev) - refs.reshape(2, -1)
        lo = rng.normal(size=(2, cfg.constraint_window, 3)) - 1.0
        hi = lo + 2.0
        F, B = condensed_qp_data(pred, cfg, X, u_prev, refs, lo, hi)
        assert F.shape == (2, 3 * cfg.n_ctrl) and B.shape == (2, len(B[0]))
        for i in range(2):
            f, b = condensed_qp_data(pred, cfg, X[i], u_prev[i], refs[i], lo[i], hi[i])
            np.testing.assert_array_equal(F[i], f)
            # The matrix-vector products a one-axis controller would take.
            np.testing.assert_array_equal(
                f, 2.0 * (GtW @ err[i] + UtW @ np.tile(u_prev[i], cfg.n_pred)))
            np.testing.assert_array_equal(B[i], b)

    def test_swapping_axes_swaps_results(self, ssd, params):
        # Axis 0 carries a torso pushed at 3 m/s and softens; axis 1 tracks a
        # ZMP offset in double support.
        cfg = MpcConfig()
        single = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        double = window_box(
            foot_box(params, cfg, [[-0.1, 0.0], [0.1, 0.0]])[0], cfg)
        lo, hi = (np.stack(pair) for pair in zip(single, double))
        refs = np.stack([constant_refs(cfg.n_pred), constant_refs(cfg.n_pred, 0.0, 0.0, 0.05)])
        X = np.stack([make_state((0.1, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 50.0, 0.0)),
                      np.zeros(9)])
        ctrl, swapped = AxisController(ssd, cfg), AxisController(ssd, cfg)
        softened = []
        for _ in range(5):
            U, infos = ctrl.control_step(X, refs, lo, hi)
            U_s, infos_s = swapped.control_step(X[::-1], refs[::-1], lo[::-1], hi[::-1])
            np.testing.assert_array_equal(U_s, U[::-1])
            for a, b in zip(infos, infos_s[::-1]):
                assert (a.status, a.softened, a.objective, a.iterations) == (
                    b.status, b.softened, b.objective, b.iterations)
                np.testing.assert_array_equal(a.predicted_output, b.predicted_output)
            assert swapped._warm == ctrl._warm[::-1]
            softened.append(tuple(info.softened for info in infos))
            X = np.stack([step_plant(ssd, x, u) for x, u in zip(X, U)])
        assert softened == [(True, False)] * 5


class _RecordingSolver:
    """Stands in for the QP solver: keeps every problem's (f, b) and returns
    a zero step."""

    def __init__(self):
        self.problems = []

    def solve(self, problem, warm_start=None):
        self.problems.append((problem.f, problem.b))
        return SimpleNamespace(status=STATUS_OPTIMAL, z=np.zeros(problem.factors.n),
                               active_set=(), objective=0.0, iterations=0,
                               slacks=np.zeros(problem.factors.soft_rows.size))


class TestCondensedMaps:
    """The controller forms each cycle's (F, B) with fixed affine maps; the
    block-wise oracle forms them from the free response."""

    # The last config weighs every output and every jerk differently, so a
    # map that mixes up weights does not match the oracle.
    CONFIGS = (MpcConfig(), MpcConfig(n_constrained=12), MpcConfig(n_constrained=35),
               MpcConfig(n_pred=6, n_ctrl=3), MpcConfig(n_pred=6, n_ctrl=3, n_constrained=2),
               MpcConfig(n_pred=10, n_ctrl=4, w_zmp=3.0, w_stance=5.0, w_swing=7.0,
                         w_jerk=(0.1, 0.2, 0.3)))

    @pytest.fixture(scope="class")
    def controllers(self, ssd):
        return [AxisController(ssd, cfg) for cfg in self.CONFIGS]

    @staticmethod
    def qp_data(ctrl, X, u_prev, refs, lo, hi):
        """The (F, B) rows the controller hands the solver, and its infos."""
        ctrl.solver = _RecordingSolver()
        ctrl.reset(u_prev)
        _, infos = ctrl.control_step(X, refs, lo, hi)
        F, B = (np.array(rows) for rows in zip(*ctrl.solver.problems))
        return F, B, infos

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, len(CONFIGS) - 1), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-3.0, 2.0))
    def test_maps_match_the_oracle(self, controllers, which, seed, scale):
        ctrl = controllers[which]
        cfg, pred = ctrl.config, ctrl.pred
        rng = np.random.default_rng(seed)
        X = 10.0 ** scale * rng.normal(size=(2, 9))
        u_prev = cfg.jerk_limit * rng.uniform(-2.0, 2.0, (2, 3))
        refs = rng.normal(size=(2, cfg.n_pred, 3))
        lo = rng.normal(size=(2, cfg.constraint_window, 3))
        hi = lo + rng.exponential(size=lo.shape)
        F, B, infos = self.qp_data(ctrl, X, u_prev, refs, lo, hi)
        F_o, B_o = condensed_qp_data(pred, cfg, X, u_prev, refs, lo, hi)
        n_out = 6 * cfg.constraint_window
        for got, want in ((F, F_o), (B[:, :n_out], B_o[:, :n_out])):
            assert np.all(np.abs(got - want).max(axis=1) <= 1e-12 * np.abs(want).max(axis=1))
        np.testing.assert_array_equal(B[:, n_out:], B_o[:, n_out:])   # lim -+ u_prev
        first = (np.matvec(pred.phi, X) + np.matvec(pred.phi_u, u_prev))[:, :3]
        predicted = np.array([info.predicted_output for info in infos])
        assert np.abs(predicted - first).max() <= 1e-12 * np.abs(first).max()

        # Each axis's rows are computed alone, exactly as one-axis products,
        # so swapping the axes swaps them.
        for i in range(2):
            xu = np.concatenate([X[i], u_prev[i]])
            free = np.matvec(pred.free_map, xu)
            f = np.matvec(ctrl._f_err, free - refs[i].ravel()) + np.matvec(ctrl._f_held, u_prev[i])
            np.testing.assert_array_equal(F[i], f)
            bounds = np.concatenate([lo[i].ravel(), hi[i].ravel()])
            np.testing.assert_array_equal(B[i], mpc.condense_constraints(ctrl._rhs, xu, bounds))
        F_s, B_s, infos_s = self.qp_data(ctrl, X[::-1], u_prev[::-1], refs[::-1], lo[::-1],
                                         hi[::-1])
        np.testing.assert_array_equal(F_s, F[::-1])
        np.testing.assert_array_equal(B_s, B[::-1])
        for a, b in zip(infos, infos_s[::-1]):
            np.testing.assert_array_equal(a.predicted_output, b.predicted_output)

    @pytest.fixture
    def pushed(self, ssd, params):
        """A controller after one cycle of the 3 m/s push, which leaves both
        axes a held input and a warm set; and that cycle's arguments."""
        cfg = MpcConfig()
        ctrl = AxisController(ssd, cfg)
        lo, hi = window_box(foot_box(params, cfg, [[0.0, 0.0]], 1.0)[0], cfg)
        x = make_state((0.1, 0.0, 0.0), (0.0, 3.0, 0.0), (0.0, 50.0, 0.0))
        args = dict(zip(("X", "refs", "lo", "hi"), (np.stack([a, a]) for a in
                                                    (x, constant_refs(cfg.n_pred), lo, hi))))
        ctrl.control_step(**args)
        assert all(ctrl._warm)
        return ctrl, args

    @staticmethod
    def assert_rejected_untouched(ctrl, args, match):
        before = ctrl.u_prev.copy(), list(ctrl._warm)
        with pytest.raises(ValueError, match=match):
            ctrl.control_step(**args)
        np.testing.assert_array_equal(ctrl.u_prev, before[0])
        assert all(a is b for a, b in zip(ctrl._warm, before[1]))

    @pytest.mark.parametrize("name, index", [("X", (0, 0)), ("lo", (0, 0, 0)),
                                             ("hi", (0, 0, 0)), ("refs", (1, 7, 2))])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected_by_name(self, pushed, name, index, bad):
        # A NaN estimate or bound used to surface as an infeasible cycle.
        ctrl, args = pushed
        args[name] = args[name].copy()
        args[name][index] = bad
        self.assert_rejected_untouched(ctrl, args, f"^{name} must be a finite")

    @pytest.mark.parametrize("name", ["X", "refs", "lo", "hi"])
    def test_misshapen_parameter_rejected_by_name(self, pushed, name):
        ctrl, args = pushed
        args[name] = args[name][:, :-1]
        self.assert_rejected_untouched(ctrl, args, f"^{name} must be a finite")


class TestObserver:
    def test_exact_measurements_converge(self, ssd):
        # The slowest error pole is pinned by the pendulum zero of the ZMP
        # output (about 0.944 per cycle), so convergence below 1e-6 takes a
        # few hundred cycles from a realistic initial offset.
        rng = np.random.default_rng(41)
        obs = Observer(ssd)
        x_true = rng.normal(size=9) * 0.1
        x_est = x_true + rng.normal(size=9) * 1e-4
        for _ in range(300):
            u = rng.normal(size=3) * 0.5
            x_true = step_plant(ssd, x_true, u)
            x_est = obs.step(x_est, u, ssd.C @ x_true)
        assert np.max(np.abs(x_true - x_est)) < 1e-6

    def test_error_contracts_from_large_offset(self, ssd):
        rng = np.random.default_rng(43)
        obs = Observer(ssd)
        x_true = rng.normal(size=9) * 0.1
        x_est = np.zeros(9)
        err0 = np.linalg.norm(x_true - x_est)
        for _ in range(300):
            u = rng.normal(size=3) * 0.5
            x_true = step_plant(ssd, x_true, u)
            x_est = obs.step(x_est, u, ssd.C @ x_true)
        assert np.linalg.norm(x_true - x_est) < 1e-3 * err0

    def test_low_measurement_weight_follows_prediction(self, ssd):
        obs = Observer(ssd, ObserverConfig(measurement_noise=(1e6, 1e6, 1e6)))
        assert np.max(np.abs(obs.gain)) < 1e-3
        x_est = make_state((0.1, 0.2, 0.3), (0.01, 0.0, -0.02))
        u = np.array([1.0, -1.0, 0.5])
        stepped = obs.step(x_est, u, ssd.C @ (ssd.A @ x_est + ssd.B @ u) + 1.0)
        np.testing.assert_allclose(stepped, ssd.A @ x_est + ssd.B @ u, atol=2e-3)

    def test_noisy_position_estimate_beats_measurement(self, ssd):
        rng = np.random.default_rng(42)
        bound, sigma = 0.05, 0.05 / 3.0
        obs = Observer(ssd)
        x_true = np.zeros(9)
        x_est = np.zeros(9)
        errs = []
        for k in range(10_000):
            u = np.array([np.sin(k * 0.01), np.cos(k * 0.013), np.sin(k * 0.007)]) * 2.0
            x_true = step_plant(ssd, x_true, u)
            noise = rng.normal(0.0, sigma, size=3)
            while np.any(np.abs(noise) > bound):
                bad = np.abs(noise) > bound
                noise[bad] = rng.normal(0.0, sigma, size=bad.sum())
            x_est = obs.step(x_est, u, ssd.C @ x_true + noise)
            if k > 500:
                errs.append((x_true - x_est)[[0, 3, 6]])
        stds = np.std(np.asarray(errs), axis=0)
        # Leg masses are measured directly; the torso only through the ZMP row,
        # whose torso weight (m2/M) sets its effective measurement noise.
        assert stds[0] < sigma and stds[2] < sigma
        assert stds[1] < sigma / 0.625

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ObserverConfig(jerk_noise=(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("measurement_noise", [1e-4, 1e-2, 1.0, 1e6])
    @pytest.mark.parametrize("jerk_noise", [1e-3, 1.0, 1e3])
    def test_gain_from_stabilizing_riccati_solution(self, ssd, jerk_noise, measurement_noise):
        obs = Observer(ssd, ObserverConfig((jerk_noise,) * 3, (measurement_noise,) * 3))
        Q = jerk_noise ** 2 * ssd.B @ ssd.B.T
        R = measurement_noise ** 2 * np.eye(3)
        P = Observer._steady_state_covariance(ssd.A, ssd.C, Q, R)
        assert riccati_residual(ssd.A, ssd.C, Q, R, P) <= 1e-11
        np.testing.assert_allclose(obs.gain, P @ ssd.C.T @ np.linalg.inv(ssd.C @ P @ ssd.C.T + R))
        assert np.max(np.abs(np.linalg.eigvals((np.eye(9) - obs.gain @ ssd.C) @ ssd.A))) < 1.0

    def test_undetectable_model_fails_fast(self, ssd):
        # Without the ZMP row nothing observes the torso, whose covariance
        # then grows without bound.
        C = ssd.C.copy()
        C[2] = 0.0
        start = time.perf_counter()
        with pytest.raises(ValueError, match="did not converge"):
            Observer(replace(ssd, C=C))
        assert time.perf_counter() - start < 1.0


def run_gate(sigma_rows, gate=None):
    """Feed per-cycle innovations (in sigmas) to a gate; boosted flag per cycle."""
    gate = gate or PushGate()
    return [gate.update(np.asarray(row, float)) for row in sigma_rows]


class TestPushGate:
    def test_spike_boosts_for_hold_cycles(self):
        flags = run_gate([[0.0, 0.0, 4.5]] + [[0.0, 0.0, 0.0]] * 20)
        assert sum(flags) == mpc._BOOST_HOLD == 8
        assert all(flags[:8]) and not any(flags[8:])

    def test_persistent_bias_engages_on_fourth_cycle(self):
        flags = run_gate([[0.0, 2.5, 0.0]] * 4)
        assert flags == [False, False, False, True]

    def test_moderate_innovation_rearms_but_does_not_start(self):
        assert run_gate([[3.5, 0.0, 0.0]]) == [False]
        gate = PushGate()
        flags = run_gate([[4.5, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * 5 + [[-3.5, 0.0, 0.0]]
                         + [[0.0, 0.0, 0.0]] * 20, gate)
        # Engaged at cycle 0 and re-armed at cycle 6: boosted through cycle 13.
        assert all(flags[:14]) and not any(flags[14:])

    def test_alternating_noise_never_engages(self):
        flags = run_gate([[2.9, -2.9, 2.9], [-2.9, 2.9, -2.9]] * 50)
        assert not any(flags)

    def test_window_keeps_last_boost_window_cycles(self):
        gate = PushGate()
        run_gate([[float(k), 0.0, 0.0] for k in range(-3, 3)], gate)
        assert [row[0] for row in gate.window] == [-1.0, 0.0, 1.0, 2.0]
