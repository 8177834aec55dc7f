"""Dense convex quadratic programming for the per-cycle control subproblem.

Solves

    min  1/2 z' H z + f' z      s.t.  A_ineq z <= b_ineq

with H symmetric positive definite.  The solver is a dual active-set method:
it starts from the unconstrained minimum and adds one violated constraint at a
time while keeping the working-set multipliers nonnegative, which terminates
in finitely many steps and detects infeasibility exactly.  Rows flagged soft
are reformulated internally with one nonnegative slack variable each and a
quadratic penalty, so a soft problem is always feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import nnls

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible_hard"


@dataclass
class QpProblem:
    """One inequality-constrained QP.  ``soft`` marks rows relaxed via slacks."""

    H: np.ndarray
    f: np.ndarray
    A_ineq: np.ndarray
    b_ineq: np.ndarray
    soft: np.ndarray | None = None
    soft_penalty: float | np.ndarray = 1e6

    @property
    def n(self) -> int:
        return self.f.shape[0]

    @property
    def m(self) -> int:
        return self.b_ineq.shape[0]

    def validate(self) -> None:
        n, m = self.n, self.m
        if self.H.shape != (n, n):
            raise ValueError("H must be square and match f")
        if self.A_ineq.shape != (m, n):
            raise ValueError("A_ineq shape must be (m, n)")
        if np.max(np.abs(self.H - self.H.T), initial=0.0) > 1e-10:
            raise ValueError("H must be symmetric to 1e-10")
        if self.soft is not None:
            if self.soft.shape != (m,):
                raise ValueError("soft mask must have one flag per row")
            w = np.broadcast_to(np.asarray(self.soft_penalty, float), (m,))
            if np.any(self.soft) and not np.all(w[self.soft] > 0.0):
                raise ValueError("soft penalty weights must be positive")


@dataclass
class QpSolution:
    """Solver result.  ``z`` holds the original decision variables only.

    ``objective`` is the value of the solved problem, including the quadratic
    penalty of any soft-row slacks.  ``active_set`` indexes rows of the
    internal (slack-augmented) constraint matrix and can seed the next solve's
    warm start when the problem structure is unchanged.
    """

    z: np.ndarray
    objective: float
    kkt_residual: float
    status: str
    active_set: tuple[int, ...] = ()
    iterations: int = 0
    slacks: np.ndarray | None = None


class ControlSolverError(RuntimeError):
    """Structural failure: non-PD Hessian or inconsistent problem data."""


def _augment_soft(problem: QpProblem):
    """Return hard-only (H, f, A, b, n_orig, slack_scale) with one slack per soft row.

    Slack variables are scaled by sqrt(penalty) so the augmented Hessian keeps
    the conditioning of the original H; physical slack values are the scaled
    variables divided by ``slack_scale``.
    """
    H = np.asarray(problem.H, float)
    f = np.asarray(problem.f, float)
    A = np.asarray(problem.A_ineq, float)
    b = np.asarray(problem.b_ineq, float)
    if problem.soft is None or not np.any(problem.soft):
        return H, f, A, b, f.shape[0], None
    soft_idx = np.flatnonzero(problem.soft)
    k = soft_idx.size
    n, m = f.shape[0], b.shape[0]
    w = np.broadcast_to(np.asarray(problem.soft_penalty, float), (m,))[soft_idx]
    scale = np.sqrt(w)
    H_aug = np.zeros((n + k, n + k))
    H_aug[:n, :n] = H
    H_aug[n:, n:] = np.eye(k)
    f_aug = np.concatenate([f, np.zeros(k)])
    A_aug = np.zeros((m + k, n + k))
    A_aug[:m, :n] = A
    A_aug[soft_idx, n + np.arange(k)] = -1.0 / scale   # A_i z - s_i <= b_i
    A_aug[m + np.arange(k), n + np.arange(k)] = -1.0   # scaled slack >= 0
    b_aug = np.concatenate([b, np.zeros(k)])
    return H_aug, f_aug, A_aug, b_aug, n, scale


def _drop(W: list[int], lam, V, S, pos: int) -> None:
    """Remove working-set entry ``pos`` with its multiplier, its ``H^-1 a``
    column and its Gram row and column, keeping the rest packed in order."""
    k = len(W)
    W.pop(pos)
    lam[pos:k - 1] = lam[pos + 1:k]
    V[:, pos:k - 1] = V[:, pos + 1:k]
    S[:k - 1, :k - 1] = np.delete(np.delete(S[:k, :k], pos, 0), pos, 1)


class ActiveSetSolver:
    """Dual active-set QP solver with working-set warm starts.

    One instance holds scratch arrays for a solve in flight; use one instance
    per thread.  Problems and solutions are plain values safe to share.
    """

    def __init__(self, max_iter: int = 500, feas_tol: float = 1e-9):
        self.max_iter = max_iter
        self.feas_tol = feas_tol

    def solve(self, problem: QpProblem, warm_start=None, max_iter: int | None = None) -> QpSolution:
        problem.validate()
        H, f, A, b, n_orig, slack_scale = _augment_soft(problem)
        n, m = f.shape[0], b.shape[0]
        limit = self.max_iter if max_iter is None else max_iter

        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise ControlSolverError("Hessian is not positive definite") from exc

        def hsolve(v):
            return solve_triangular(L.T, solve_triangular(L, v, lower=True), lower=False)

        z = -hsolve(f)
        W: list[int] = []
        lam = np.zeros(n)            # first len(W) entries are the multipliers
        V = np.zeros((n, n))         # columns 0..k-1 hold H^-1 A_W'
        S = np.zeros((n, n))         # leading k-by-k block holds A_W H^-1 A_W'

        if warm_start:
            self._seed_working_set(hsolve, A, b, f, z, W, lam, V, S, warm_start, m)
            if W:
                z = -hsolve(f) - V[:, :len(W)] @ lam[:len(W)]

        iterations = 0
        status = STATUS_OPTIMAL
        if m > 0:
            while True:
                resid = A @ z - b
                if W:
                    resid[W] = -np.inf
                p = int(np.argmax(resid))
                if resid[p] <= self.feas_tol:
                    break
                if iterations >= limit:
                    status = STATUS_MAX_ITERATIONS
                    break
                iterations += 1

                a_p = A[p]
                r = hsolve(a_p)
                apr = float(a_p @ r)
                lam_p = 0.0
                guard = 0
                while True:
                    guard += 1
                    if guard > n + m + 1:
                        status = STATUS_MAX_ITERATIONS
                        break
                    k = len(W)
                    if k:
                        u = V[:, :k].T @ a_p
                        e = -np.linalg.solve(S[:k, :k], u)
                        d = -r - V[:, :k] @ e
                        # One refinement pass keeps directions accurate when
                        # the working-set Gram matrix is poorly conditioned.
                        AW = A[W]
                        res1 = H @ d + AW.T @ e + a_p
                        res2 = AW @ d
                        corr = hsolve(res1)
                        de = np.linalg.solve(S[:k, :k], res2 - AW @ corr)
                        e = e + de
                        d = d - corr - V[:, :k] @ de
                    else:
                        u = np.zeros(0)
                        e = np.zeros(0)
                        d = -r
                    s = float(a_p @ d)
                    v_p = float(a_p @ z - b[p])

                    t_block = np.inf
                    blk = -1
                    if k:
                        neg = np.flatnonzero(e < -1e-12)
                        if neg.size:
                            ratios = -lam[neg] / e[neg]
                            j = int(np.argmin(ratios))
                            t_block = float(ratios[j])
                            blk = int(neg[j])
                    # A full working set makes any further row linearly
                    # dependent regardless of the computed curvature.
                    dependent = k >= n or s >= -1e-11 * max(1.0, apr)
                    t_full = np.inf if dependent else (-v_p / s)

                    t = min(t_full, t_block)
                    if not np.isfinite(t):
                        status = STATUS_INFEASIBLE
                        break
                    z += t * d
                    lam[:k] += t * e
                    lam_p += t
                    if t_full <= t_block:
                        V[:, k] = r
                        S[k, :k] = u
                        S[:k, k] = u
                        S[k, k] = apr
                        W.append(p)
                        lam[k] = lam_p
                        break
                    _drop(W, lam, V, S, blk)
                if status != STATUS_OPTIMAL:
                    break

        if status == STATUS_OPTIMAL and W:
            # Re-solving on the final working set removes drift accumulated by
            # the incremental updates, but can itself lose accuracy when the
            # working-set Gram matrix is ill conditioned; keep the better one.
            z_p, lam_p = self._polish(H, hsolve, A, b, f, W)
            k = len(W)
            if (self._kkt_from_multipliers(H, f, A, b, z_p, W, lam_p)
                    <= self._kkt_from_multipliers(H, f, A, b, z, W, lam[:k])):
                z = z_p
                lam[:k] = lam_p

        k = len(W)
        kkt = self._kkt_from_multipliers(H, f, A, b, z, W, lam[:k])
        # The convergence check is relative to the gradient scale so that
        # heavily penalised soft rows do not mask an accurate solve.
        scale = 1.0 + float(np.max(np.abs(f), initial=0.0)) + float(np.max(np.abs(H @ z), initial=0.0))
        if status == STATUS_OPTIMAL and kkt >= 1e-8 * scale:
            status = STATUS_MAX_ITERATIONS
        objective = float(0.5 * z @ H @ z + f @ z)
        slacks = (z[n_orig:] / slack_scale) if n_orig < n else None
        return QpSolution(
            z=z[:n_orig].copy(),
            objective=objective,
            kkt_residual=kkt,
            status=status,
            active_set=tuple(W),
            iterations=iterations,
            slacks=slacks,
        )

    @staticmethod
    def _seed_working_set(hsolve, A, b, f, z, W, lam, V, S, warm_start, m) -> None:
        """Recreate a dual-feasible working set from a previous active set."""
        n = V.shape[0]
        for i in sorted({int(i) for i in warm_start if 0 <= int(i) < m}):
            if len(W) >= n:
                break
            k = len(W)
            col = hsolve(A[i])
            u = V[:, :k].T @ A[i]
            s_new = float(A[i] @ col)
            if k:
                # Schur complement must stay safely positive for independence.
                w = np.linalg.solve(S[:k, :k], u)
                schur = s_new - float(u @ w)
            else:
                schur = s_new
            if schur <= 1e-10 * max(1.0, s_new):
                continue
            V[:, k] = col
            S[k, :k] = u
            S[:k, k] = u
            S[k, k] = s_new
            W.append(i)
        # Prune until the equality-constrained multipliers are all nonnegative.
        z0 = -hsolve(f)
        while W:
            k = len(W)
            rhs = b[W] - A[W] @ z0
            mult = -np.linalg.solve(S[:k, :k], rhs)
            if np.min(mult) >= 0.0:
                lam[:k] = mult
                return
            _drop(W, lam, V, S, int(np.argmin(mult)))

    @staticmethod
    def _polish(H, hsolve, A, b, f, W):
        """Re-solve the equality-constrained problem on the final working set,
        with one iterative-refinement pass on the KKT system."""
        AW = A[W]
        z0 = -hsolve(f)
        V = hsolve(AW.T)
        S = AW @ V
        lam = -np.linalg.solve(S, b[W] - AW @ z0)
        z = z0 - V @ lam
        res1 = H @ z + f + AW.T @ lam
        res2 = AW @ z - b[W]
        corr = hsolve(res1)
        dlam = np.linalg.solve(S, res2 - AW @ corr)
        lam = lam + dlam
        z = z - corr - V @ dlam
        return z, lam

    @staticmethod
    def _kkt_from_multipliers(H, f, A, b, z, W, lam) -> float:
        grad = H @ z + f
        if len(W):
            grad = grad + A[W].T @ lam
            compl = float(np.max(np.abs(lam * (A[W] @ z - b[W]))))
            dual = max(0.0, float(-np.min(lam)))
        else:
            compl = 0.0
            dual = 0.0
        stationarity = float(np.max(np.abs(grad), initial=0.0))
        primal = float(np.max(A @ z - b, initial=0.0)) if b.shape[0] else 0.0
        return max(stationarity, max(primal, 0.0), compl, dual)


def kkt_residual(problem: QpProblem, z: np.ndarray, active_tol: float = 1e-6) -> float:
    """Max of stationarity, primal-feasibility and complementarity residuals.

    Multipliers are fitted by nonnegative least squares over the rows active
    at ``z`` (within ``active_tol``); the result is zero exactly when ``z`` is
    a KKT point.  For problems with soft rows the slacks are reconstructed as
    the penalty-optimal values ``max(0, A z - b)``.
    """
    H, f, A, b, n_orig, slack_scale = _augment_soft(problem)
    z = np.asarray(z, float)
    if z.shape != (n_orig,):
        raise ValueError("z length must match the number of decision variables")
    if n_orig < f.shape[0]:
        soft_idx = np.flatnonzero(problem.soft)
        s = np.maximum(0.0, problem.A_ineq[soft_idx] @ z - problem.b_ineq[soft_idx])
        z = np.concatenate([z, s * slack_scale])

    grad = H @ z + f
    if b.shape[0] == 0:
        return float(np.max(np.abs(grad), initial=0.0))
    resid = A @ z - b
    act = np.flatnonzero(resid >= -active_tol)
    primal = max(0.0, float(np.max(resid)))
    if act.size == 0:
        return max(float(np.max(np.abs(grad))), primal)
    lam, _ = nnls(A[act].T, -grad)
    stationarity = float(np.max(np.abs(grad + A[act].T @ lam)))
    compl = float(np.max(np.abs(lam * resid[act])))
    return max(stationarity, primal, compl)
