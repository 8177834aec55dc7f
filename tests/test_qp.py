import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triwalk import qp
from triwalk.qp import (
    STATUS_INFEASIBLE,
    STATUS_MAX_ITERATIONS,
    STATUS_OPTIMAL,
    ActiveSet,
    ActiveSetSolver,
    ControlSolverError,
    QpFactors,
    QpProblem,
    _append,
    _drop,
    _forward,
)
from triwalk.dynamics import ThreeMassParams, build_continuous, discretize, make_state
from triwalk.mpc import (
    AxisController,
    MpcConfig,
    build_constraints,
)

from oracles import (
    condensed_qp_data,
    kkt_residual,
    polyhedron_is_empty,
    solve_qp_by_enumeration,
)


def problem(H, f, A, b, soft=None, penalty=None):
    """The QP built the way the controller builds one: the factors of (H, A),
    softened on the rows of the mask ``soft`` if given, plus (f, b)."""
    factors = QpFactors.build(H, A)
    if soft is not None:
        factors = factors.soften(soft, penalty)
    return QpProblem(factors, np.asarray(f, float), np.asarray(b, float))


def parts(p):
    """(H, f, A, b) of a hard problem, as the enumeration oracle takes them."""
    return p.factors.H, p.f, p.factors.A, p.b


def assert_same_solve(sol, ref):
    """``sol`` equals ``ref`` bit for bit: iterate, status, iterations and
    active set."""
    assert sol.status == ref.status and sol.iterations == ref.iterations
    assert sol.active_set == ref.active_set
    np.testing.assert_array_equal(sol.z, ref.z)


def random_problem(rng, n=5, m=8):
    """Random strictly feasible PD problem of the given size."""
    G = rng.normal(size=(n, n))
    H = G.T @ G + n * np.eye(n)
    f = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    z_feas = rng.normal(size=n) * 0.3
    b = A @ z_feas + rng.uniform(0.05, 1.0, size=m)
    return problem(H, f, A, b)


@pytest.fixture
def solver():
    return ActiveSetSolver()


class TestBasics:
    def test_unconstrained_quadratic(self, solver):
        p = problem(np.eye(2), [-2.0, 0.0], np.zeros((0, 2)), np.zeros(0))
        sol = solver.solve(p)
        assert sol.status == STATUS_OPTIMAL
        np.testing.assert_allclose(sol.z, [2.0, 0.0], atol=1e-12)
        assert sol.objective == pytest.approx(-2.0)

    def test_active_bound(self, solver):
        p = problem(np.eye(1), [-2.0], [[1.0]], [0.5])
        sol = solver.solve(p)
        assert sol.status == STATUS_OPTIMAL
        assert sol.z[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.active_set == (0,)

    def test_infeasible_detected(self, solver):
        p = problem(np.eye(1), [0.0], [[1.0], [-1.0]], [0.0, -1.0])
        sol = solver.solve(p)
        assert sol.status == STATUS_INFEASIBLE

    def test_non_pd_hessian_rejected(self):
        with pytest.raises(ControlSolverError):
            QpFactors.build(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros((0, 2)))

    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError):
            QpFactors.build(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((0, 2)))

    @pytest.mark.parametrize("H, A, match", [
        (np.eye(2)[:1], np.zeros((0, 2)), "H must be square"),
        (np.ones(2), np.zeros((0, 2)), "H must be square"),
        (np.eye(2), np.zeros((3, 1)), "one column per variable"),
        (np.eye(2), np.zeros(2), "one column per variable"),
    ])
    def test_shapes_checked(self, H, A, match):
        with pytest.raises(ValueError, match=match):
            QpFactors.build(H, A)

    @pytest.mark.parametrize("f, b, match", [
        (np.zeros(2), np.zeros(1), r"b must have shape \(6,\)"),
        (np.zeros(2), np.zeros((6, 1)), r"b must have shape \(6,\)"),
        (np.zeros(2), np.zeros(7), r"b must have shape \(6,\)"),
        (np.zeros(3), np.zeros(6), r"f must have shape \(2,\)"),
        (np.zeros((2, 1)), np.zeros(6), r"f must have shape \(2,\)"),
        (np.zeros(1), np.zeros(6), r"f must have shape \(2,\)"),
    ])
    def test_problem_shapes_checked(self, f, b, match):
        factors = QpFactors.build(np.eye(2), np.vstack([np.eye(2), -np.eye(2), np.ones((2, 2))]))
        with pytest.raises(ValueError, match=match):
            QpProblem(factors, f, b)
        # Softened factors take the same (f, b).
        softened = factors.soften(np.arange(6) < 3, 10.0)
        with pytest.raises(ValueError, match=match):
            QpProblem(softened, f, b)
        assert QpProblem(softened, np.zeros(2), np.zeros(6)).m == 6

    @pytest.mark.parametrize("soft, penalty, match", [
        ([True], 1.0, "one flag per row"),
        ([True, False], 0.0, "penalty must be positive"),
        ([True, False], np.nan, "penalty must be positive"),
    ])
    def test_soften_checked(self, soft, penalty, match):
        with pytest.raises(ValueError, match=match):
            QpFactors.build(np.eye(2), np.eye(2)).soften(soft, penalty)

    def test_soften_twice_rejected(self):
        # H = 1, rows z <= 0 and -z <= -1, both soft with penalty 1: the
        # optimum is z = 1/3.  Softening again would add to G's diagonal
        # but replace reg, and the solve would end at z = 0.3, not optimal.
        once = QpFactors.build(np.eye(1), [[1.0], [-1.0]]).soften([True, True], 1.0)
        sol = ActiveSetSolver().solve(QpProblem(once, np.zeros(1), np.array([0.0, -1.0])))
        assert sol.status == STATUS_OPTIMAL
        assert sol.z[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        for mask in ([True, True], [False, False]):
            with pytest.raises(ValueError, match="already softened"):
                once.soften(mask, 1.0)

    def test_max_iterations_status(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, n=6, m=12)
        p.b -= 2.0  # push several constraints active
        sol = ActiveSetSolver(max_iter=1).solve(p)
        assert sol.status != STATUS_OPTIMAL


class TestInfeasibility:
    """Hard rows that admit no common point make the solve infeasible;
    softening them makes the same rows solvable."""

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_short_of_a_common_point_are_infeasible(self, solver, seed):
        rng = np.random.default_rng(2000 + seed)
        p = random_problem(rng, n=5, m=8)
        # k rows whose weighted sum vanishes, with a right-hand side short of
        # any common point by ``gap``.
        k = int(rng.integers(2, 6))
        C = rng.normal(size=(k, 5))
        w = rng.uniform(0.5, 2.0, size=k)
        C[-1] = -(w[:-1] @ C[:-1]) / w[-1]
        c = C @ rng.normal(size=5) + rng.uniform(0.0, 1.0, size=k)
        gap = rng.uniform(0.01, 1.0)
        c[-1] -= (w @ c + gap) / w[-1]
        A, b = np.vstack([p.factors.A, C]), np.concatenate([p.b, c])
        assert polyhedron_is_empty(A, b)
        assert solver.solve(problem(p.factors.H, p.f, A, b)).status == STATUS_INFEASIBLE
        soft = np.arange(b.size) >= p.m
        sol = solver.solve(problem(p.factors.H, p.f, A, b, soft, 1e4))
        assert sol.status == STATUS_OPTIMAL and sol.slacks.max() > 0.0


class TestCertificate:
    """The rows that certify an infeasibility, read off softened solves: each
    row of the conflict, softened alone, takes the whole gap as its slack."""

    def test_one_row_infeasibility(self, solver):
        # z <= 0 and z >= 1: the two rows with equal weights sum to 0 <= -1.
        H, f, A, b = np.eye(1), [0.0], [[1.0], [-1.0]], [0.0, -1.0]
        assert solver.solve(problem(H, f, A, b)).status == STATUS_INFEASIBLE
        for row, z in ((0, 1.0), (1, 0.0)):
            sol = solver.solve(problem(H, f, A, b, np.arange(2) == row, 1e4))
            assert sol.status == STATUS_OPTIMAL
            np.testing.assert_allclose(sol.z, [z], atol=1e-12)
            np.testing.assert_allclose(sol.slacks, [1.0], atol=1e-12)


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_oracle(self, solver, seed):
        rng = np.random.default_rng(1000 + seed)
        p = random_problem(rng, n=5, m=8)
        sol = solver.solve(p)
        z_ref, obj_ref = solve_qp_by_enumeration(*parts(p))
        assert sol.status == STATUS_OPTIMAL
        assert sol.objective == pytest.approx(obj_ref, abs=1e-6)
        np.testing.assert_allclose(sol.z, z_ref, atol=1e-6)
        assert sol.kkt_residual < 1e-8
        assert kkt_residual(p, sol.z) < 1e-8

    def test_oracle_solutions_have_small_residual(self, solver):
        rng = np.random.default_rng(42)
        for _ in range(10):
            p = random_problem(rng, n=4, m=7)
            z_ref, _ = solve_qp_by_enumeration(*parts(p))
            assert kkt_residual(p, z_ref) < 1e-8


class TestKktResidual:
    def test_unconstrained_minimum(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, n=4, m=6)
        z_star = np.linalg.solve(p.factors.H, -p.f)
        if np.all(p.factors.A @ z_star <= p.b):
            assert kkt_residual(p, z_star) < 1e-12

    def test_perturbed_optimum_nonzero(self, solver):
        rng = np.random.default_rng(6)
        p = random_problem(rng, n=4, m=6)
        sol = solver.solve(p)
        assert kkt_residual(p, sol.z + 0.1) > 1e-3


class TestInvariants:
    def test_objective_beats_random_feasible_points(self, solver):
        rng = np.random.default_rng(11)
        p = random_problem(rng, n=5, m=8)
        sol = solver.solve(p)
        count = 0
        while count < 1000:
            cand = sol.z + rng.normal(size=5) * rng.uniform(0.01, 2.0)
            if np.all(p.factors.A @ cand <= p.b):
                obj = 0.5 * cand @ p.factors.H @ cand + p.f @ cand
                assert obj >= sol.objective - 1e-9
                count += 1

    def test_row_rescaling_invariance(self, solver):
        rng = np.random.default_rng(12)
        p = random_problem(rng, n=5, m=8)
        sol = solver.solve(p)
        scale = rng.uniform(0.1, 10.0, size=8)
        p2 = problem(p.factors.H, p.f, p.factors.A * scale[:, None], p.b * scale)
        sol2 = solver.solve(p2)
        np.testing.assert_allclose(sol2.z, sol.z, atol=1e-8)

    def test_bit_identical_determinism(self, solver):
        rng = np.random.default_rng(13)
        p = random_problem(rng, n=6, m=10)
        z1 = solver.solve(p).z
        z2 = solver.solve(p).z
        assert np.array_equal(z1, z2)


class TestSoftRows:
    def test_large_penalty_approaches_hard(self, solver):
        p_hard = problem(np.eye(1), [-2.0], [[1.0]], [0.5])
        p_soft = problem(np.eye(1), [-2.0], [[1.0]], [0.5], soft=[True], penalty=1e9)
        z_hard = solver.solve(p_hard).z[0]
        z_soft = solver.solve(p_soft).z[0]
        assert z_soft == pytest.approx(z_hard, abs=1e-6)

    def test_soft_row_yields_to_objective(self, solver):
        # Weak penalty: minimiser sits between the bound and the unconstrained optimum.
        p = problem(np.eye(1), [-2.0], [[1.0]], [0.5], soft=[True], penalty=1.0)
        sol = solver.solve(p)
        assert 0.5 < sol.z[0] < 2.0
        assert sol.slacks is not None and sol.slacks[0] > 0.0

    def test_soft_rows_make_problem_feasible(self, solver):
        p = problem(np.eye(1), [0.0], [[1.0], [-1.0]], [0.0, -1.0], soft=[True, True],
                    penalty=1e6)
        sol = solver.solve(p)
        assert sol.status == STATUS_OPTIMAL


class TestWarmStart:
    def test_warm_start_reaches_same_solution_faster(self, solver):
        rng = np.random.default_rng(21)
        p = random_problem(rng, n=6, m=12)
        p.b -= 0.04  # tighten so several rows go active, staying feasible
        cold = solver.solve(p)
        assert cold.status == STATUS_OPTIMAL
        warm = solver.solve(p, warm_start=cold.active_set)
        np.testing.assert_allclose(warm.z, cold.z, atol=1e-9)
        assert warm.iterations <= cold.iterations

    def test_warm_start_that_breaks_the_factor_solves_cold(self, solver, monkeypatch):
        # A carried set whose factor loses definiteness on the way is
        # dropped: the solve restarts cold instead of raising.
        rng = np.random.default_rng(21)
        p = random_problem(rng, n=6, m=12)
        p.b -= 0.04
        carried = solver.solve(p).active_set
        # Loosening a working row this far turns its multiplier negative, so
        # the warm start drops it from the carried factor.
        p.b[carried[0]] += 10.0
        cold = solver.solve(p)
        drops = []

        def indefinite(*args):
            drops.append(args)
            if len(drops) == 1:
                raise np.linalg.LinAlgError("working-set Gram matrix is not positive definite")
            return _drop(*args)

        monkeypatch.setattr(qp, "_drop", indefinite)
        sol = solver.solve(p, warm_start=carried)
        assert drops and cold.status == STATUS_OPTIMAL
        assert_same_solve(sol, cold)

    @pytest.mark.parametrize("rows", [0, 1, None])
    def test_numpy_array_warm_start_matches_the_tuple(self, solver, rows):
        # Row indices without their factor seed nothing: a tuple or an
        # array of them gives the cold solve.
        rng = np.random.default_rng(21)
        p = random_problem(rng, n=6, m=12)
        p.b -= 0.04
        cold = solver.solve(p)
        assert cold.status == STATUS_OPTIMAL and len(cold.active_set) >= 2
        warm = cold.active_set[:rows]
        for start in (warm, np.array(warm)):
            assert_same_solve(solver.solve(p, warm_start=start), cold)

    def test_stale_warm_start_is_harmless(self, solver):
        rng = np.random.default_rng(22)
        p = random_problem(rng, n=5, m=8)
        sol = solver.solve(p, warm_start=(0, 3, 7, 99, -1))
        assert_same_solve(sol, solver.solve(p))
        z_ref, obj_ref = solve_qp_by_enumeration(*parts(p))
        assert sol.objective == pytest.approx(obj_ref, abs=1e-8)


def slack_augmented(H, f, A, b, soft, penalty):
    """The soft problem written out with one physical slack per soft row."""
    idx = np.flatnonzero(soft)
    n, m, k = f.size, b.size, idx.size
    H_aug = np.zeros((n + k, n + k))
    H_aug[:n, :n] = H
    H_aug[n:, n:] = penalty * np.eye(k)
    A_aug = np.zeros((m + k, n + k))
    A_aug[:m, :n] = A
    A_aug[idx, n + np.arange(k)] = -1.0
    A_aug[m + np.arange(k), n + np.arange(k)] = -1.0
    return H_aug, np.concatenate([f, np.zeros(k)]), A_aug, np.concatenate([b, np.zeros(k)])


def dependent_rows(rng, n, m, n_dup, n_par):
    """A random PD ``H`` and ``m`` random rows followed by ``n_dup``
    duplicates and ``n_par`` parallel copies of them; returns (H, A, src),
    ``src`` naming the row each extra row copies."""
    G = rng.normal(size=(n, n))
    H = G.T @ G + n * np.eye(n)
    base = rng.normal(size=(m, n))
    # Duplicate rows repeat a row exactly; parallel rows are positive or
    # negative multiples of one, which makes boxes and redundant bounds.
    src = rng.integers(0, m, size=n_dup + n_par)
    mult = rng.choice([-2.0, -1.0, 0.5, 3.0], size=n_par)
    return H, np.vstack([base, base[src[:n_dup]], mult[:, None] * base[src[n_dup:]]]), src


class TestFactoredSequences:
    """One factorization of a fixed (H, A), solved for a sequence of (f, b)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(2, 5),
           n_dup=st.integers(0, 2), n_par=st.integers(0, 2), n_soft=st.integers(0, 2),
           n_solves=st.integers(2, 4))
    def test_matches_oracle_and_cold_solve(self, seed, n, m, n_dup, n_par, n_soft, n_solves):
        rng = np.random.default_rng(seed)
        H, A, src = dependent_rows(rng, n, m, n_dup, n_par)
        rows = A.shape[0]
        soft = np.zeros(rows, bool)
        soft[rng.choice(rows, size=n_soft, replace=False)] = True
        penalty = 100.0
        factors = QpFactors.build(H, A)
        if n_soft:
            factors = factors.soften(soft, penalty)
        solver = ActiveSetSolver()
        warm = None
        for _ in range(n_solves):
            f = rng.normal(size=n)
            margin = rng.uniform(0.05, 1.0, size=rows)
            margin[m:m + n_dup] = margin[src[:n_dup]]   # exact duplicate constraints
            b = A @ (rng.normal(size=n) * 0.3) + margin
            qp = QpProblem(factors, f, b)
            sol = solver.solve(qp, warm_start=warm)
            assert sol.status == STATUS_OPTIMAL
            if n_soft:
                z_ref, obj_ref = solve_qp_by_enumeration(
                    *slack_augmented(H, f, A, b, soft, penalty))
            else:
                z_ref, obj_ref = solve_qp_by_enumeration(H, f, A, b)
            assert sol.objective == pytest.approx(obj_ref, abs=1e-6)
            assert sol.kkt_residual < 1e-8
            assert kkt_residual(qp, sol.z) < 1e-8
            cold = ActiveSetSolver().solve(qp)
            assert cold.status == STATUS_OPTIMAL
            np.testing.assert_allclose(sol.z, cold.z, atol=1e-8)
            assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
            warm = sol.active_set

    def test_factors_are_read_only(self):
        rng = np.random.default_rng(7)
        p = random_problem(rng, n=3, m=4)
        factors = p.factors.soften(np.array([True, False, False, True]), 1e6)
        for fac in (p.factors, factors):
            for arr in (fac.H, fac.A, fac.L_inv, fac.V, fac.G, fac.soft_rows, fac.reg):
                assert not arr.flags.writeable
        assert factors.A.shape == (4, 3) and factors.n == 3
        np.testing.assert_array_equal(factors.soft_rows, [0, 3])

    def test_soften_shares_the_hard_factors(self):
        rng = np.random.default_rng(7)
        hard = random_problem(rng, n=3, m=4).factors
        mask = np.array([True, False, False, True])
        soft = hard.soften(mask, 1e6)
        for name in ("H", "A", "L_inv", "V"):
            assert getattr(soft, name) is getattr(hard, name)
        # G differs from the hard Gram matrix only on the soft diagonal.
        assert np.array_equal(soft.G != hard.G, np.diag(mask))
        np.testing.assert_allclose(np.diag(soft.G - hard.G)[mask], 1e-6, rtol=1e-9)
        np.testing.assert_array_equal(soft.reg, np.where(mask, 1e-6, 0.0))
        # Built factors are all hard rows: zero regularization, no soft rows.
        np.testing.assert_array_equal(hard.reg, np.zeros(4))
        assert hard.soft_rows.shape == (0,) and hard.soften(np.zeros(4, bool), 1e6) is hard


class TestCarriedWarmStart:
    """A solve's ``active_set`` carries its working-set factor; a warm start
    of the same factors copies it and prunes it, one of other factors seeds
    nothing."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(2, 5),
           n_dup=st.integers(0, 2), n_par=st.integers(0, 2), n_soft=st.integers(0, 2),
           n_solves=st.integers(2, 5))
    def test_matches_the_cold_solve(self, seed, n, m, n_dup, n_par, n_soft, n_solves):
        rng = np.random.default_rng(seed)
        H, A, src = dependent_rows(rng, n, m, n_dup, n_par)
        rows = A.shape[0]
        soft = np.isin(np.arange(rows), rng.choice(rows, n_soft, False))
        factors = QpFactors.build(H, A)
        if n_soft:
            factors = factors.soften(soft, 100.0)
        solver = ActiveSetSolver()
        warm = None
        for _ in range(n_solves):
            margin = rng.uniform(0.05, 1.0, size=rows)
            margin[m:m + n_dup] = margin[src[:n_dup]]   # exact duplicate constraints
            b = A @ (rng.normal(size=n) * 0.3) + margin
            qp = QpProblem(factors, rng.normal(size=n), b)
            sol = solver.solve(qp, warm_start=warm)
            assert sol.status == STATUS_OPTIMAL
            if warm:
                assert type(warm) is ActiveSet and warm.factors is factors
                ref = solver.solve(qp)
                assert sol.status == ref.status
                assert np.max(np.abs(sol.z - ref.z)) <= 1e-9 * max(1.0, np.max(np.abs(ref.z)))
                # The two solves can enter rows in another order.  A row
                # with a zero multiplier (a soft row whose slack is zero
                # beside its hard duplicate) is kept or pruned as rounding
                # decides; it is tight at z, less its slack.
                resid = factors.A @ sol.z - b
                resid[factors.soft_rows] -= sol.slacks
                tight = np.abs(resid) <= 1e-9
                assert all(tight[i] for i in set(sol.active_set) ^ set(ref.active_set))
            warm = sol.active_set

    def test_carries_the_final_factor(self, solver):
        rng = np.random.default_rng(21)
        p = random_problem(rng, n=6, m=12)
        p.b -= 0.04
        sol = solver.solve(p)
        W = list(sol.active_set)
        assert type(sol.active_set) is ActiveSet and len(W) >= 2
        assert sol.active_set == tuple(W) and sol.active_set.factors is p.factors
        R, V = sol.active_set.R, sol.active_set.V
        assert not R.flags.writeable and not V.flags.writeable
        np.testing.assert_array_equal(V, p.factors.V[:, W])
        assert np.array_equal(R, np.tril(R))
        np.testing.assert_allclose(R @ R.T, p.factors.G[np.ix_(W, W)], rtol=1e-12, atol=1e-12)

    def test_warm_start_leaves_its_solution_unchanged(self, solver):
        rng = np.random.default_rng(21)
        p = random_problem(rng, n=6, m=12)
        p.b -= 0.04
        first = solver.solve(p)
        carried = first.active_set
        before = (first.z.copy(), first.objective, first.kkt_residual, first.status,
                  tuple(carried), carried.R.copy(), carried.V.copy(), first.iterations)
        # A tighter problem of the same factors prunes and adds rows.
        p.b -= 0.3
        again = solver.solve(p, warm_start=carried)
        assert again.iterations > 0 and again.active_set != carried
        after = (first.z, first.objective, first.kkt_residual, first.status,
                 tuple(first.active_set), first.active_set.R, first.active_set.V,
                 first.iterations)
        assert first.active_set is carried
        for x, y in zip(before, after):
            assert np.array_equal(x, y)

    def test_a_pruned_hard_row_makes_room_for_another(self, solver):
        # The carried set holds n = 2 hard rows.  Loosening row 0 prunes it,
        # and row 2 must then enter beside row 1: a hard-row count not
        # lowered by the prune would call row 2 dependent.
        H, A = np.eye(2), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        factors = QpFactors.build(H, A)
        f = np.array([-1.0, -1.0])
        carried = solver.solve(QpProblem(factors, f, np.array([0.0, 0.0, 5.0]))).active_set
        assert type(carried) is ActiveSet and sorted(carried) == [0, 1]
        p = QpProblem(factors, f, np.array([10.0, 0.0, 0.5]))
        sol, ref = solver.solve(p, warm_start=carried), solver.solve(p)
        assert sol.iterations == 1 and set(sol.active_set) == {1, 2}
        assert sol.status == ref.status == STATUS_OPTIMAL
        np.testing.assert_allclose(sol.z, ref.z, rtol=0.0, atol=1e-9)
        assert sol.kkt_residual < 1e-8 * (1.0 + np.max(np.abs(f)) + np.max(np.abs(H @ sol.z)))
        # Rows are Python ints, whatever the solver keeps them in.
        for s in (carried, sol.active_set, ref.active_set):
            assert all(type(i) is int for i in s)

    def test_other_factors_take_the_blocked_seed(self):
        # A softened solve's non-empty carried set seeding a hard solve of
        # the same rows: another factors' set seeds nothing, so the solve
        # is the cold one, bit for bit.
        *hard_data, soft = TestWarmStartAcrossSoftening.soft_problem(5, 4, 5, 2)
        softened = ActiveSetSolver().solve(problem(*hard_data, soft, 100.0))
        assert type(softened.active_set) is ActiveSet and len(softened.active_set)
        hard = problem(*hard_data)
        assert softened.active_set.factors is not hard.factors
        sol = ActiveSetSolver().solve(hard, warm_start=softened.active_set)
        assert_same_solve(sol, ActiveSetSolver().solve(hard))


class TestExitPolicy:
    """A non-empty optimal exit evaluates the KKT residual of the polished
    iterate, and of the incremental one only when the polished one misses
    the gate; then the better of the two is kept and gated."""

    @staticmethod
    def record_kkt(monkeypatch, offset=0.0):
        """Record (residual, z) of every KKT evaluation, each residual raised
        by ``offset``."""
        calls = []
        kkt = ActiveSetSolver._kkt_from_multipliers

        def recorded(*args):
            res, Hz = kkt(*args)
            calls.append((res + offset, args[2].copy()))
            return res + offset, Hz

        monkeypatch.setattr(ActiveSetSolver, "_kkt_from_multipliers", staticmethod(recorded))
        return calls

    @staticmethod
    def tight_problem():
        rng = np.random.default_rng(21)
        p = random_problem(rng, n=6, m=12)
        p.b -= 0.04
        return p

    def test_cold_breakdown_ends_as_max_iterations(self, monkeypatch):
        # A cold solve whose working-set factor breaks down on a drop keeps
        # its iterate and reports the cap's status; it is not retried.
        p = random_problem(np.random.default_rng(5), n=6, m=12)
        p.b -= 2.0
        ref = ActiveSetSolver().solve(p)
        assert ref.status == STATUS_OPTIMAL and ref.iterations > len(ref.active_set)
        drops = []

        def broken(*args):
            drops.append(args[-1])
            raise np.linalg.LinAlgError("working-set Gram matrix is not positive definite")

        monkeypatch.setattr(qp, "_drop", broken)
        sol = ActiveSetSolver().solve(p)
        assert sol.status == STATUS_MAX_ITERATIONS and len(drops) == 1
        assert type(sol.active_set) is tuple and np.all(np.isfinite(sol.z))

    @pytest.mark.parametrize("warm", [False, True])
    def test_one_kkt_pass_when_the_polished_iterate_passes(self, solver, monkeypatch, warm):
        p = self.tight_problem()
        seed = solver.solve(p).active_set if warm else None
        calls = self.record_kkt(monkeypatch)
        sol = solver.solve(p, warm_start=seed)
        assert sol.status == STATUS_OPTIMAL and len(sol.active_set) >= 2
        assert (sol.iterations == 0) == warm
        assert len(calls) == 1 and sol.kkt_residual == calls[0][0]
        np.testing.assert_array_equal(sol.z, calls[0][1])

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("shift, offset, status", [
        (1e-3, 0.0, STATUS_OPTIMAL),        # the incremental iterate passes
        (0.0, 1.0, STATUS_MAX_ITERATIONS),   # neither passes
        (1e-3, 1.0, STATUS_MAX_ITERATIONS),
    ])
    def test_polish_missing_the_gate_keeps_the_better_iterate(self, solver, monkeypatch, warm,
                                                              shift, offset, status):
        p = self.tight_problem()
        seed = solver.solve(p).active_set if warm else None
        polish = ActiveSetSolver._polish

        def shifted(*args):
            z, lam = polish(*args)
            return z + shift, lam

        monkeypatch.setattr(ActiveSetSolver, "_polish", staticmethod(shifted))
        calls = self.record_kkt(monkeypatch, offset)
        sol = solver.solve(p, warm_start=seed)
        assert len(calls) == 2
        best = int(np.argmin([c[0] for c in calls]))
        if shift:
            assert best == 1
        assert sol.status == status and sol.kkt_residual == calls[best][0]
        np.testing.assert_array_equal(sol.z, calls[best][1])


class TestWarmStartAcrossSoftening:
    """A warm start that is no carried set of the problem's own factors, such
    as row indices or the set of a problem with the same rows and another
    soft mask, gives the cold solve."""

    @staticmethod
    def soft_problem(seed, n, m, n_soft):
        """A random problem whose hard rows hold at one point and whose
        ``n_soft`` soft rows may conflict with them."""
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, n))
        H = G.T @ G + n * np.eye(n)
        A = rng.normal(size=(m, n))
        soft = np.zeros(m, bool)
        soft[rng.choice(m, size=n_soft, replace=False)] = True
        margin = np.where(soft, rng.uniform(-0.5, 1.0, size=m), rng.uniform(0.05, 1.0, size=m))
        b = A @ (rng.normal(size=n) * 0.3) + margin
        return H, rng.normal(size=n), A, b, soft

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(2, 5),
           n_soft=st.integers(1, 2), warm=st.lists(st.integers(-3, 10), max_size=12))
    def test_soft_solve_from_any_index_set(self, seed, n, m, n_soft, warm):
        # Hard and soft rows, rows inactive at the optimum and indices
        # outside the problem, in any mix; then the carried set of equal
        # factors built apart.
        data = self.soft_problem(seed, n, m, n_soft)
        qp = problem(*data, penalty=100.0)
        cold = ActiveSetSolver().solve(qp)
        assert cold.status == STATUS_OPTIMAL
        twin = ActiveSetSolver().solve(problem(*data, penalty=100.0)).active_set
        for start in (warm, twin):
            assert_same_solve(ActiveSetSolver().solve(qp, warm_start=start), cold)
        z_ref, obj_ref = solve_qp_by_enumeration(*slack_augmented(*data, 100.0))
        assert cold.objective == pytest.approx(obj_ref, abs=1e-6)
        assert kkt_residual(qp, cold.z) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), m=st.integers(2, 5),
           n_soft=st.integers(1, 2))
    def test_hard_solve_ignores_slack_rows(self, seed, n, m, n_soft):
        # A softened solve's carried set seeds nothing in a hard solve of
        # the same rows, alone or with out-of-range indices (m and above).
        *hard_data, soft = self.soft_problem(seed, n, m, n_soft)
        soft_set = ActiveSetSolver().solve(problem(*hard_data, soft, 100.0)).active_set
        hard = problem(*hard_data)
        cold = ActiveSetSolver().solve(hard)
        for warm in (soft_set, soft_set + tuple(range(m, m + n_soft))):
            assert_same_solve(ActiveSetSolver().solve(hard, warm_start=warm), cold)
        if cold.status == STATUS_OPTIMAL:
            _, obj_ref = solve_qp_by_enumeration(*parts(hard))
            assert cold.objective == pytest.approx(obj_ref, abs=1e-6)


class TestMoreBindingRowsThanVariables:
    """Soft rows in opposed pairs, ``a z <= a c - w`` and ``-a z <= -a c - w``
    with w > 0, cannot both hold, so both bind: n pairs bind 2n rows in n
    variables.  Only soft rows can, each independent of the others through
    its regularized Gram diagonal."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), n_hard=st.integers(0, 2),
           n_solves=st.integers(1, 3))
    def test_matches_oracle_and_cold_solve(self, seed, n, n_hard, n_solves):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, n))
        H = G.T @ G + n * np.eye(n)
        P = rng.normal(size=(n, n))
        A = np.vstack([P, -P, rng.normal(size=(n_hard, n))])
        soft = np.arange(A.shape[0]) < 2 * n
        factors = QpFactors.build(H, A).soften(soft, 100.0)
        warm = None
        for _ in range(n_solves):
            c, w = rng.normal(size=n) * 0.3, rng.uniform(0.5, 1.0, size=n)
            b = np.concatenate([P @ c - w, -P @ c - w,
                                A[2 * n:] @ c + rng.uniform(0.05, 1.0, size=n_hard)])
            f = rng.normal(size=n)
            qp = QpProblem(factors, f, b)
            sol = ActiveSetSolver().solve(qp, warm_start=warm)
            assert sol.status == STATUS_OPTIMAL
            assert np.count_nonzero(soft[list(sol.active_set)]) > n
            _, obj_ref = solve_qp_by_enumeration(*slack_augmented(H, f, A, b, soft, 100.0))
            assert sol.objective == pytest.approx(obj_ref, abs=1e-6)
            assert sol.kkt_residual < 1e-8
            assert kkt_residual(qp, sol.z) < 1e-8
            cold = ActiveSetSolver().solve(qp)
            assert cold.status == STATUS_OPTIMAL
            np.testing.assert_allclose(sol.z, cold.z, atol=1e-8)
            assert sol.objective == pytest.approx(cold.objective, abs=1e-9)
            warm = sol.active_set


class TestWorkingSetFactor:
    """The lower Cholesky factor R of the working-set Gram matrix, updated
    in place as rows enter and leave the working set."""

    @staticmethod
    def empty_working_set(n):
        # R starts as NaN, as the solver's unzeroed buffer may hold anything:
        # every entry the factor reads must have been written.
        return (np.empty(n, np.intp), np.zeros(n), np.empty((n, n)),
                np.full((n, n), np.nan, order="F"))

    @staticmethod
    def append(W, k, lam, V, R, G, p):
        """Append row p to the k rows of W; the new count."""
        l = _forward(R, k, G[W[:k], p])
        lam[k] = p
        _append(W, k, V, R, p, np.full(V.shape[0], float(p)), l, G[p, p] - l @ l)
        return k + 1

    @staticmethod
    def assert_factor(W, lam, V, R, G):
        k = len(W)
        Rk = R[:k, :k]
        S = G[np.ix_(W, W)]
        assert np.array_equal(Rk, np.tril(Rk))
        assert np.max(np.abs(Rk @ Rk.T - S), initial=0.0) <= 1e-10 * np.max(np.abs(S), initial=0.0)
        # Multipliers and H^-1 a columns stay packed in working-set order.
        np.testing.assert_array_equal(lam[:k], W)
        np.testing.assert_array_equal(V[0, :k], W)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 16), fill=st.integers(0, 16),
           ops=st.lists(st.sampled_from(["append", "first", "middle", "last"]),
                        min_size=1, max_size=40))
    def test_append_and_drop_keep_the_factor(self, seed, m, fill, ops):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(m, m + 2)) * rng.uniform(0.1, 10.0, size=(m, 1))
        G = B @ B.T
        W, lam, V, R = self.empty_working_set(m)
        k = 0
        for op in ["append"] * fill + ops:
            if op == "append" and k < m or not k:
                free = [i for i in range(m) if i not in W[:k]]
                k = self.append(W, k, lam, V, R, G, free[rng.integers(len(free))])
            else:
                pos = {"first": 0, "middle": k // 2}.get(op, k - 1)
                kept = np.delete(W[:k], pos)
                _drop(W, k, lam, V, R, G, pos)
                k -= 1
                np.testing.assert_array_equal(W[:k], kept)
            self.assert_factor(W[:k], lam, V, R, G)

    def test_drop_refactors_a_factor_that_lost_definiteness(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(6, 8))
        G = B @ B.T
        W, lam, V, R = self.empty_working_set(6)
        k = 0
        for p in (4, 1, 5, 0, 2):
            k = self.append(W, k, lam, V, R, G, p)
        # A zero last row makes the trailing block's downdate singular, so the
        # drop must rebuild the factor from G.
        R[4, :5] = 0.0
        _drop(W, k, lam, V, R, G, 1)
        assert W[:4].tolist() == [4, 5, 0, 2]
        self.assert_factor(W[:4], lam, V, R, G)


class TestLargeSoftenedSolves:
    """The controller's softened solve when a push makes the hard cycle
    infeasible: dozens of working-set rows, entered and dropped many times."""

    @pytest.fixture(scope="class")
    def controller(self):
        params = ThreeMassParams.nominal()
        cfg = MpcConfig()
        ctrl = AxisController(discretize(build_continuous(params), cfg.ts), cfg)
        half = [[params.foot_length / 2.0, params.foot_width / 2.0]]
        box = build_constraints([[0.0, 0.0]], half, params, cfg, 1.0)[0]
        lo, hi = (np.tile(v, (cfg.constraint_window, 1)) for v in box)
        return ctrl, lo, hi

    @pytest.mark.parametrize("velocities, accelerations", [
        ((0.0, 3.0, 0.0), (0.0, 50.0, 0.0)),
        ((-1.0, 3.0, 0.0), (0.0, 100.0, 0.0)),
        ((1.0, 1.0, 1.0), (20.0, 50.0, -20.0)),
    ])
    def test_softened_solve_is_optimal(self, controller, velocities, accelerations):
        ctrl, lo, hi = controller
        x = make_state((0.1, 0.0, 0.0), velocities, accelerations)
        f, b = condensed_qp_data(ctrl.pred, ctrl.config, x, ctrl.u_prev[0],
                                 np.zeros((ctrl.config.n_pred, 3)), lo, hi)
        H = ctrl._factors.H
        hard = ActiveSetSolver().solve(QpProblem(QpFactors.build(H, ctrl.A), f, b))
        assert hard.status == STATUS_INFEASIBLE
        relaxed = QpProblem(ctrl._factors, f, b)
        sol = ActiveSetSolver().solve(relaxed)
        assert sol.status == STATUS_OPTIMAL
        assert len(sol.active_set) > 40
        # A cold solve appends once per iteration, so the surplus was dropped.
        assert sol.iterations > len(sol.active_set)
        scale = 1.0 + np.max(np.abs(f)) + np.max(np.abs(H @ sol.z))
        assert kkt_residual(relaxed, sol.z) <= 1e-8 * scale
