"""Dense convex quadratic programming for the per-cycle control subproblem.

Solves

    min  1/2 z' H z + f' z      s.t.  A z <= b

with H symmetric positive definite.  The solver is a dual active-set method:
it starts from the unconstrained minimum and adds one violated constraint at a
time while keeping the working-set multipliers nonnegative, which terminates
in finitely many steps and detects infeasibility exactly.  A soft row's
violation s costs (rho/2) s^2, so a soft problem is always feasible; as s =
lam/rho at the optimum, it is solved over the same rows with 1/rho added to
their Gram diagonal, a soft working row held at ``a z - b = lam/rho``.  A
hard row is a row whose added 1/rho is 0, so hard and soft rows share one
code path.

Everything that depends on (H, A) alone is computed once per (H, A) and held
read-only in ``QpFactors``: the inverse Cholesky factor, ``H^-1 A'`` and the
Gram matrix ``A H^-1 A'``.  A solve then needs only ``f`` and ``b``: a cycle
whose active set stays empty costs a few matrix-vector products, and an
active-set step reads its columns and Gram entries instead of solving.  So a
problem is its factors plus (f, b), ``QpProblem(factors, f, b)``, with
``QpFactors.build(H, A)`` as the factors, or its ``.soften(mask, penalty)``.

Within a solve, the working set W is an index buffer whose first k entries
are its rows, with a kept count of its hard rows; like R and V it is made
on first use, so a cold solve that adds no row makes none of them.  W keeps
a lower Cholesky factor R of its Gram block ``A_W H^-1 A_W' = R R'`` in a
Fortran-ordered buffer whose leading block LAPACK reads in place.  A step
direction costs two triangular solves; appending a row extends R by one
row, and dropping one deletes its row of R and re-triangularises the rows
below it.  The final R travels with the solution's ``active_set`` (rows as
Python ints), and a warm start from that set copies it and prunes rows with
negative multipliers; any other warm start is ignored, and the solve starts
cold.  On the final working set, ``_polish`` runs one refinement pass,
re-solving first only if the loop took steps, and the KKT gate checks the
incremental iterate only when the polished one misses it, keeping the
better.  Should rounding leave the working-set Gram block indefinite, a
warm-started solve starts over cold, and a cold solve ends there with
status ``max_iterations``, as at the iteration cap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtrs

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_INFEASIBLE = "infeasible_hard"

# A row whose residual is at most this is treated as satisfied.
_FEAS_TOL = 1e-9


class ControlSolverError(RuntimeError):
    """Structural failure: non-PD Hessian or inconsistent problem data."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _peak(v: np.ndarray) -> float:
    """Largest entry of a non-empty vector (``argmax`` is far cheaper than ``max``)."""
    return float(v[v.argmax()])


@dataclass(frozen=True, eq=False)
class QpFactors:
    """The fixed part of a family of QPs sharing (H, A); arrays are read-only.

    ``reg`` (m,) holds 1/penalty on the soft rows, listed in ``soft_rows``,
    and 0 on the hard ones, and ``G`` is the hard Gram matrix plus
    diag(reg).  ``build`` makes every row hard.
    """

    H: np.ndarray       # (n, n)
    A: np.ndarray       # (m, n)
    L_inv: np.ndarray   # (n, n) lower triangular, H^-1 = L_inv' L_inv
    V: np.ndarray       # (n, m) H^-1 A'
    G: np.ndarray       # (m, m) A H^-1 A' + diag(reg)
    n: int
    soft_rows: np.ndarray   # (k,) indices of the soft rows
    reg: np.ndarray         # (m,) Gram regularization

    @classmethod
    def build(cls, H, A) -> QpFactors:
        """Validate and factor a hard problem's (H, A)."""
        H = np.array(H, float)
        A = np.array(A, float)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise ValueError("H must be square")
        if A.ndim != 2 or A.shape[1] != H.shape[0]:
            raise ValueError("A needs one column per variable")
        if np.max(np.abs(H - H.T), initial=0.0) > 1e-10:
            raise ValueError("H must be symmetric to 1e-10")
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise ControlSolverError("Hessian is not positive definite") from exc
        L_inv = solve_triangular(L, np.eye(H.shape[0]), lower=True)
        K = L_inv @ A.T
        return cls(H=_frozen(H), A=_frozen(A), L_inv=_frozen(L_inv),
                   V=_frozen(L_inv.T @ K), G=_frozen(K.T @ K), n=H.shape[0],
                   soft_rows=_frozen(np.zeros(0, int)), reg=_frozen(np.zeros(A.shape[0])))

    def soften(self, soft, penalty: float) -> QpFactors:
        """Factors of the problem with the rows in the mask ``soft`` relaxed,
        each with the quadratic weight ``penalty`` on its violation: these
        factors' own H, A, L_inv and V, and G regularized by 1/penalty on the
        soft diagonal.  Without soft rows the factors are returned unchanged.
        Factors that are already softened raise ``ValueError``: their ``G``
        holds the earlier regularization, which ``reg`` would no longer match.
        """
        if self.soft_rows.size:
            raise ValueError("factors are already softened")
        soft = np.asarray(soft, bool)
        if soft.shape != (self.A.shape[0],):
            raise ValueError("soft mask must have one flag per row")
        if not penalty > 0.0:
            raise ValueError("soft penalty must be positive")
        if not soft.any():
            return self
        reg = np.where(soft, 1.0 / float(penalty), 0.0)
        return replace(self, G=_frozen(self.G + np.diag(reg)),
                       soft_rows=_frozen(np.flatnonzero(soft)), reg=_frozen(reg))

    def hsolve(self, v: np.ndarray) -> np.ndarray:
        return self.L_inv.T @ (self.L_inv @ v)


@dataclass
class QpProblem:
    """One QP of the family that shares ``factors``: its gradient ``f`` (n,)
    and right-hand side ``b`` (m,)."""

    factors: QpFactors
    f: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        m, n = self.factors.A.shape
        if np.shape(self.f) != (n,):
            raise ValueError(f"f must have shape ({n},)")
        if np.shape(self.b) != (m,):
            raise ValueError(f"b must have shape ({m},), one entry per row")

    @property
    def n(self) -> int:
        return self.f.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[0]


class ActiveSet(tuple):
    """Working-set rows with their ``factors``, Gram factor R and H^-1 A_W' columns V."""

    def __new__(cls, rows=(), factors=None, R=None, V=None):
        self = super().__new__(cls, rows)
        self.factors, self.R, self.V = factors, R, V
        return self


@dataclass
class QpSolution:
    """Solver result.

    ``objective`` is the value of the solved problem, including the penalty
    of any soft-row violations, and ``slacks`` those violations, one per soft
    row (empty without soft rows).  ``active_set`` holds row indices in
    working-set order; when it is an ``ActiveSet`` it carries its factor and
    can warm-start the next solve over the same factors.
    """

    z: np.ndarray
    objective: float
    kkt_residual: float
    status: str
    active_set: tuple[int, ...] = ()    # an ActiveSet when non-empty and optimal
    iterations: int = 0
    slacks: np.ndarray | None = None


def _forward(R, k: int, v: np.ndarray) -> np.ndarray:
    """``R_k^-1 v`` for the leading k-by-k block ``R_k`` of the working-set
    factor (read in place: ``R`` is Fortran-ordered)."""
    return dtrtrs(R[:, :k], v, lower=1)[0]


def _gram_solve(R, k: int, v: np.ndarray) -> np.ndarray:
    """``S^-1 v`` for the working-set Gram matrix ``S = R_k R_k'``."""
    return dtrtrs(R[:, :k], _forward(R, k, v), lower=1, trans=1)[0]


def _append(W, k: int, V, R, p: int, v_p: np.ndarray, l: np.ndarray, schur: float) -> None:
    """Append row ``p`` with its ``H^-1 a`` column ``v_p`` to the k rows of W.
    ``l = R_k^-1 G[W, p]`` and ``schur = G[p, p] - l.l > 0`` give the new
    factor row [l', sqrt(schur)], with zeros above it in its column."""
    V[:, k] = v_p
    R[:k, k] = 0.0
    R[k, :k] = l
    R[k, k] = np.sqrt(schur)
    W[k] = p


def _drop(W, k: int, lam, V, R, G, pos: int) -> None:
    """Remove entry ``pos`` of the k rows of W with its multiplier, its
    ``H^-1 a`` column and its factor row, keeping the rest packed in order.

    Without row ``pos`` of R, the rows below it still hold the Gram entries
    among themselves in ``T = R[pos+1:k, pos:k]``; refactoring ``T T'``
    re-triangularises them.  Should rounding have cost that block its
    definiteness, the whole factor is rebuilt from ``G``.
    """
    W[pos:k - 1] = W[pos + 1:k]
    lam[pos:k - 1] = lam[pos + 1:k]
    V[:, pos:k - 1] = V[:, pos + 1:k]
    T = R[pos + 1:k, pos:k]
    R[pos:k - 1, :pos] = R[pos + 1:k, :pos]
    block, info = dpotrf(T @ T.T, lower=1)
    if info:
        pos = 0
        block, info = dpotrf(G[np.ix_(W[:k - 1], W[:k - 1])], lower=1)
        if info:
            raise np.linalg.LinAlgError("working-set Gram matrix is not positive definite")
    R[pos:k - 1, pos:k - 1] = block


class ActiveSetSolver:
    """Dual active-set QP solver with working-set warm starts.

    One instance holds no state between solves; problems, factors and
    solutions are plain values safe to share.  ``max_iter`` caps the
    constraint additions of one solve; the default is the controller's.
    """

    def __init__(self, max_iter: int = 2000):
        self.max_iter = max_iter

    def solve(self, problem: QpProblem, warm_start=None) -> QpSolution:
        """Solve ``problem``, warm-started from ``warm_start`` when it is the
        non-empty ``active_set`` of an earlier solve over the same factors.
        Any other warm start (None, empty, row indices, another factors'
        set) is only a hint that does not apply, and the solve starts cold."""
        # Only an ``ActiveSet`` has ``factors``; testing it first keeps None
        # away from ``len``.
        if getattr(warm_start, "factors", None) is problem.factors and len(warm_start):
            try:
                return self._solve(problem, warm_start)
            except np.linalg.LinAlgError:
                # Rounding can cost a pruned or extended carried factor its
                # definiteness; the warm start is only a hint.
                pass
        return self._solve(problem, None)

    def _solve(self, problem: QpProblem, warm_start) -> QpSolution:
        fac = problem.factors
        f, b = np.asarray(problem.f, float), np.asarray(problem.b, float)
        A, V_all, G, reg = fac.A, fac.V, fac.G, fac.reg
        m, n = A.shape
        # At most n hard rows are independent; soft rows always are.
        N = n + fac.soft_rows.size

        z0 = -fac.hsolve(f)
        z = z0
        k = hard = 0                 # rows in the working set, and its hard rows
        lam = np.zeros(N)            # first k entries are the multipliers
        # Working-set buffers, made on first use.  The first k entries of
        # the index buffer W are the working rows; columns 0..k-1 of V hold
        # their H^-1 A_W' (columns of V_all).  The leading k-by-k block of
        # the Fortran-ordered R is the lower Cholesky factor of the Gram
        # block G[W, W], zero above its diagonal, which ``_drop`` reads.  R
        # is not zeroed when made: with soft rows it holds n + k_soft rows,
        # and clearing them cost more than a small solve, so each row that
        # enters W clears its column above the diagonal instead.
        W = V = R = None

        if warm_start is not None:
            # Copy the carried factor, then drop the most negative
            # equality-constrained multiplier until none is negative.  A
            # row's gap b_i - a_i z0 does not depend on the rest of W.
            k = len(warm_start)
            W, V, R = np.empty(N, np.intp), np.empty((n, N)), np.empty((N, N), order="F")
            W[:k] = warm_start
            R[:k, :k], V[:, :k] = warm_start.R, warm_start.V
            gap = b[W[:k]] - A[W[:k]] @ z0
            while k:
                mult = -_gram_solve(R, k, gap)
                if mult.min() >= 0.0:
                    lam[:k] = mult
                    z = z0 - V[:, :k] @ lam[:k]
                    break
                pos = int(mult.argmin())
                _drop(W, k, lam, V, R, G, pos)
                k -= 1
                gap[pos:-1] = gap[pos + 1:]
                gap = gap[:-1]
            hard = k - np.count_nonzero(reg[W[:k]])

        iterations = 0
        status = STATUS_OPTIMAL
        resid = A @ z - b            # kept current with z; W's rows are skipped
        if m > 0:
            while True:
                viol = resid
                if k:
                    viol = resid.copy()
                    viol[W[:k]] = -np.inf
                p = int(viol.argmax())
                if viol[p] <= _FEAS_TOL:
                    break
                if iterations >= self.max_iter:
                    status = STATUS_MAX_ITERATIONS
                    break
                iterations += 1
                if R is None:
                    W, V, R = np.empty(N, np.intp), np.empty((n, N)), np.empty((N, N), order="F")

                a_p = A[p]
                r = V_all[:, p]
                apr = float(G[p, p])
                reg_p = float(reg[p])
                lam_p = 0.0
                # Each pass that does not break drops a row, so this loop
                # makes at most k + 1 passes.
                while True:
                    if k:
                        l = _forward(R, k, G[W[:k], p])
                        e = -dtrtrs(R[:, :k], l, lower=1, trans=1)[0]
                        d = -r - V[:, :k] @ e
                    else:
                        l = e = np.zeros(0)
                        d = -r
                    # Curvature and violation of row p, held at a z - b = reg lam
                    # (reg_p is 0 on a hard row, which leaves both bitwise).
                    s = float(a_p @ d) - reg_p
                    v_p = float(a_p @ z - b[p]) - reg_p * lam_p

                    t_block = np.inf
                    blk = -1
                    if k:
                        neg = (e < -1e-12).nonzero()[0]
                        if neg.size:
                            ratios = -lam[neg] / e[neg]
                            j = int(ratios.argmin())
                            t_block = float(ratios[j])
                            blk = int(neg[j])
                    # A working set of n hard rows (rows with zero reg) makes
                    # any further hard row linearly dependent regardless of
                    # the computed curvature.
                    dependent = (not reg_p and hard >= n
                                 or s >= -1e-11 * max(1.0, apr))
                    t_full = np.inf if dependent else (-v_p / s)

                    t = min(t_full, t_block)
                    if not np.isfinite(t):
                        status = STATUS_INFEASIBLE
                        break
                    z = z + t * d
                    lam[:k] += t * e
                    lam_p += t
                    if t_full <= t_block:
                        # apr - l.l equals -s, which ``dependent`` keeps positive.
                        _append(W, k, V, R, p, r, l, apr - l @ l)
                        lam[k] = lam_p
                        k += 1
                        hard += not reg_p
                        break
                    # The row leaves W even when its refactor fails.
                    hard -= not reg[W[blk]]
                    k -= 1
                    try:
                        _drop(W, k + 1, lam, V, R, G, blk)
                    except np.linalg.LinAlgError:
                        # A near-dependent working set: a warm start is
                        # retried cold, a cold solve keeps its iterate.
                        if warm_start is not None:
                            raise
                        status = STATUS_MAX_ITERATIONS
                        break
                resid = A @ z - b
                if status != STATUS_OPTIMAL:
                    break

        W = W[:k] if k else None
        AW = A[W] if k else None
        iterates = [(z, resid, lam[:k])]
        if status == STATUS_OPTIMAL and k:
            # Polishing removes drift accumulated by the incremental updates,
            # but can itself lose accuracy when the working-set Gram matrix is
            # ill conditioned: the incremental iterate is checked only when
            # the polished one misses the KKT gate, and the better one kept.
            z_p, lam_p = self._polish(fac, f, b[W], z0, W, AW, V[:, :k], R,
                                      None if iterations else (z, lam[:k]))
            iterates.insert(0, (z_p, A @ z_p - b, lam_p))
        for i, (z_i, resid_i, lam_i) in enumerate(iterates):
            kkt_i, Hz_i = self._kkt_from_multipliers(fac, f, z_i, resid_i, W, AW, lam_i)
            if not i or kkt_i < kkt:
                z, kkt, Hz, lam_k = z_i, kkt_i, Hz_i, lam_i
                # The gate is relative to the gradient scale so that heavily
                # penalised soft rows do not mask an accurate solve.
                passed = kkt < 1e-8 * (1.0 + _peak(np.abs(f)) + _peak(np.abs(Hz)))
            if passed:
                break
        if status == STATUS_OPTIMAL and not passed:
            status = STATUS_MAX_ITERATIONS
        objective = float(z @ (0.5 * Hz + f))
        # A working row's slack is reg lam (0 if hard), any other row's 0; an
        # empty exit, the common one, builds no per-row array.
        slacks = np.zeros(fac.soft_rows.size)
        rows = ()
        if k:
            slack = np.zeros(m)
            slack[W] = reg[W] * lam_k
            objective += 0.5 * float(slack[W] @ lam_k)
            slacks = slack[fac.soft_rows]
            rows = W.tolist()        # Python ints, as the set's API promises
        return QpSolution(
            z=z,
            objective=objective,
            kkt_residual=kkt,
            status=status,
            active_set=(ActiveSet(rows, fac, _frozen(R[:k, :k].copy(order="F")),
                                  _frozen(V[:, :k].copy()))
                        if k and status == STATUS_OPTIMAL else tuple(rows)),
            iterations=iterations,
            slacks=slacks,
        )

    @staticmethod
    def _polish(fac: QpFactors, f, bW, z0, W, AW, V, R, start=None):
        """One iterative-refinement pass on the KKT system of the final
        working set ``W`` (rows ``AW``, bounds ``bW``, ``H^-1 A_W'`` columns
        ``V``, Gram factor ``R``) from ``start`` = (z, lam), which must solve
        its equality-constrained problem; None re-solves that problem first."""
        k = len(bW)
        if start is None:
            lam = -_gram_solve(R, k, bW - AW @ z0)
            start = z0 - V @ lam, lam
        z, lam = start
        res1 = fac.H @ z + f + AW.T @ lam
        res2 = AW @ z - bW - fac.reg[W] * lam
        corr = fac.hsolve(res1)
        dlam = _gram_solve(R, k, res2 - AW @ corr)
        return z - corr - V @ dlam, lam + dlam

    @staticmethod
    def _kkt_from_multipliers(fac: QpFactors, f, z, resid, W, AW, lam):
        """Return the KKT residual of (z, lam) on the working set W (row
        indices, None when empty) with rows ``AW``, given ``resid = A z - b``,
        and H z."""
        Hz = fac.H @ z
        grad = Hz + f
        if W is not None:
            grad = grad + AW.T @ lam
            resid = resid.copy()
            resid[W] -= fac.reg[W] * lam
            compl = _peak(np.abs(lam * resid[W]))
            dual = max(0.0, -float(lam.min()))
        else:
            compl = dual = 0.0
        primal = max(0.0, _peak(resid)) if resid.size else 0.0
        return max(_peak(np.abs(grad)), primal, compl, dual), Hz
