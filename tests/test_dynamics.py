import numpy as np
import pytest

from triwalk.dynamics import (
    ACC_SLOTS,
    ThreeMassParams,
    build_continuous,
    discretize,
    make_state,
    step_plant,
    zmp,
    zmp_output_row,
)

from oracles import zoh_discretize_series


@pytest.fixture
def params():
    return ThreeMassParams.nominal()


class TestParams:
    def test_total_mass_computed(self, params):
        assert params.M == 80.0

    def test_total_mass_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ThreeMassParams(m1=15.0, m2=50.0, m3=15.0, z1=0.5, z2=1.2, z3=0.5, M=81.0)

    @pytest.mark.parametrize("field,value", [
        ("m1", 0.0), ("m2", -1.0), ("z3", 0.0), ("g", -9.81), ("zmp_safety_scale", 0.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        kwargs = dict(m1=15.0, m2=50.0, m3=15.0, z1=0.5, z2=1.2, z3=0.5)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ThreeMassParams(**kwargs)


class TestContinuousModel:
    def test_zmp_row_nominal(self, params):
        ss = build_continuous(params)
        assert ss.C[2, 0] == pytest.approx(15.0 / 80.0)
        assert ss.C[2, 0] == pytest.approx(0.1875)
        assert ss.C[2, 2] == pytest.approx(-15.0 * 0.5 / (80.0 * 9.81), abs=1e-12)
        assert ss.C[2, 2] == pytest.approx(-9.556e-3, abs=1e-6)

    def test_input_matrix_structure(self, params):
        B = build_continuous(params).B
        nonzero = np.argwhere(B != 0.0)
        assert [tuple(rc) for rc in nonzero] == [(2, 0), (5, 1), (8, 2)]
        assert np.all(B[B != 0.0] == 1.0)

    def test_zmp_row_symmetric_params(self):
        p = ThreeMassParams(m1=1.0, m2=1.0, m3=1.0, z1=1.0, z2=1.0, z3=1.0)
        row = build_continuous(p).C[2]
        block = [1.0 / 3.0, 0.0, -1.0 / (3.0 * 9.81)]
        np.testing.assert_allclose(row, np.tile(block, 3), atol=1e-15)

    def test_state_matrix_is_shift_blocks(self, params):
        A = build_continuous(params).A
        expected = np.zeros((9, 9))
        for base in (0, 3, 6):
            expected[base, base + 1] = 1.0
            expected[base + 1, base + 2] = 1.0
        np.testing.assert_array_equal(A, expected)

    def test_axes_share_identical_matrices(self, params):
        first = build_continuous(params)
        second = build_continuous(params)
        np.testing.assert_array_equal(first.A, second.A)
        np.testing.assert_array_equal(first.B, second.B)
        np.testing.assert_array_equal(first.C, second.C)


class TestDiscretize:
    def test_block_values_at_20ms(self, params):
        ssd = discretize(build_continuous(params), 0.02)
        np.testing.assert_allclose(ssd.B[:3, 0], [1.3333333333e-6, 2.0e-4, 0.02], rtol=1e-9)
        block = ssd.A[:3, :3]
        np.testing.assert_allclose(block, [[1.0, 0.02, 2e-4], [0.0, 1.0, 0.02], [0.0, 0.0, 1.0]], rtol=1e-12)

    def test_output_map_unchanged(self, params):
        ss = build_continuous(params)
        ssd = discretize(ss, 0.5)
        np.testing.assert_array_equal(ss.C, ssd.C)

    @pytest.mark.parametrize("ts", [0.001, 0.02, 0.1])
    def test_matches_series_oracle(self, params, ts):
        ss = build_continuous(params)
        ssd = discretize(ss, ts)
        Ad, Bd = zoh_discretize_series(ss.A, ss.B, ts, terms=20)
        np.testing.assert_allclose(ssd.A, Ad, atol=1e-10)
        np.testing.assert_allclose(ssd.B, Bd, atol=1e-10)

    def test_rejects_bad_sample_time(self, params):
        ss = build_continuous(params)
        with pytest.raises(ValueError):
            discretize(ss, 0.0)
        with pytest.raises(ValueError):
            discretize(discretize(ss, 0.02), 0.02)


class TestZmp:
    def test_zero_state(self, params):
        assert zmp(params, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == 0.0

    def test_static_positions(self, params):
        assert zmp(params, (0.1, 0.2, 0.3), (0.0, 0.0, 0.0)) == pytest.approx(0.2)

    def test_acceleration_term(self, params):
        expected = (80.0 * 0.2 * 9.81 - 50.0 * 1.2) / (80.0 * 9.81)
        got = zmp(params, (0.1, 0.2, 0.3), (0.0, 1.0, 0.0))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.12354, abs=1e-5)

    def test_agrees_with_output_row(self, params):
        row = zmp_output_row(params)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=9)
            direct = zmp(params, x[[0, 3, 6]], x[[2, 5, 8]])
            assert abs(direct - row @ x) < 1e-12


class TestStepPlant:
    @pytest.fixture
    def ssd(self, params):
        return discretize(build_continuous(params), 0.02)

    def test_rest_equilibrium(self, ssd):
        x = make_state((0.1, -0.2, 0.3))
        np.testing.assert_array_equal(step_plant(ssd, x, np.zeros(3)), x)

    def test_single_jerk_pulse(self, ssd):
        x = step_plant(ssd, np.zeros(9), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(x[:3], [1.3333333333e-6, 2.0e-4, 0.02], rtol=1e-9)
        np.testing.assert_array_equal(x[3:], np.zeros(6))

    def test_disturbance_injection(self, ssd):
        force, m2 = 100.0, 50.0
        x = step_plant(ssd, np.zeros(9), np.zeros(3), extra_accel=np.array([0.0, force / m2, 0.0]))
        assert x[ACC_SLOTS[1]] == pytest.approx(2.0)

    def test_constant_jerk_matches_cubic(self, ssd):
        jerk = 3.7
        x = np.zeros(9)
        n = 250
        for _ in range(n):
            x = step_plant(ssd, x, np.array([jerk, 0.0, 0.0]))
        t = n * ssd.ts
        assert abs(x[0] - jerk * t ** 3 / 6.0) < 1e-9
        assert abs(x[1] - jerk * t ** 2 / 2.0) < 1e-9
        assert abs(x[2] - jerk * t) < 1e-9

    def test_dimension_mismatch(self, ssd):
        with pytest.raises(ValueError):
            step_plant(ssd, np.zeros(8), np.zeros(3))
        with pytest.raises(ValueError):
            step_plant(ssd, np.zeros(9), np.zeros(2))

    def test_both_axes_equal_one_axis_steps(self, ssd):
        """A (2, 9) step, kick included, is bitwise two one-axis steps, and
        each of those is bitwise the model's ``A x + B u`` plus the kick."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            X = rng.normal(size=(2, 9))
            U = rng.normal(scale=50.0, size=(2, 3))
            kick = np.zeros((2, 3))
            kick[rng.integers(2), rng.integers(3)] = rng.normal(scale=10.0)
            for extra in (None, kick):
                both = step_plant(ssd, X, U, extra)
                for i in range(2):
                    row = None if extra is None else extra[i]
                    nominal = ssd.A @ X[i] + ssd.B @ U[i]
                    if row is not None:
                        nominal[list(ACC_SLOTS)] += row
                    assert both[i].tobytes() == step_plant(ssd, X[i], U[i], row).tobytes()
                    assert both[i].tobytes() == nominal.tobytes()

    def test_batch_shapes_checked(self, ssd):
        with pytest.raises(ValueError):
            step_plant(ssd, np.zeros((2, 9)), np.zeros(3))
        with pytest.raises(ValueError):
            step_plant(ssd, np.zeros((2, 9)), np.zeros((2, 3)), extra_accel=np.zeros(3))
