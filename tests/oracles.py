"""Independent reference implementations used to cross-check the main code paths.

Everything here is deliberately brute force or off the shelf: truncated
series, exhaustive enumeration, a path's length, uniform-cost search, an
A* over dicts and sets, a linear-programming feasibility check, a
nonnegative-least-squares KKT residual, a footstep follower over a two-feet
state with swing flags, a controller cycle's QP data written block by block
and a Riccati equation's residual.
None of it shares code with the package.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
from scipy.optimize import linprog, nnls


def zoh_discretize_series(A: np.ndarray, B: np.ndarray, ts: float, terms: int = 20):
    """Zero-order-hold discretization via truncated matrix-exponential series.

    Ad = sum_k (A ts)^k / k!,   Bd = (sum_k A^k ts^(k+1) / (k+1)!) B
    """
    n = A.shape[0]
    Ad = np.zeros((n, n))
    S = np.zeros((n, n))
    term = np.eye(n)
    for k in range(terms):
        Ad += term / math.factorial(k)
        S += term * ts / math.factorial(k + 1)
        term = term @ (A * ts)
    return Ad, S @ B


def solve_qp_by_enumeration(H, f, A, b, tol=1e-8):
    """Global minimum of  1/2 z'Hz + f'z  s.t.  Az <= b  by active-set enumeration.

    Tries every subset of constraints as a candidate active set, solves the
    equality-constrained problem, and keeps the best feasible candidate with
    nonnegative multipliers.  Returns (z, objective) or (None, None) when the
    problem is infeasible.
    """
    H = np.asarray(H, float)
    f = np.asarray(f, float)
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    n = f.size
    m = b.size

    Hinv_f = np.linalg.solve(H, f)
    HinvAT = np.linalg.solve(H, A.T)          # (n, m)
    S_all = A @ HinvAT                         # (m, m)
    r_all = A @ Hinv_f + b                     # (m,)

    def objective(z):
        return 0.5 * z @ H @ z + f @ z

    best_z = None
    best_obj = np.inf

    z0 = -Hinv_f
    if np.all(A @ z0 <= b + tol):
        best_z, best_obj = z0, objective(z0)

    P = HinvAT.T                               # (m, n) rows are H^-1 a_i
    for k in range(1, min(n, m) + 1):
        combos = np.array(list(itertools.combinations(range(m), k)))
        Ssub = S_all[combos[:, :, None], combos[:, None, :]]
        rhs = -r_all[combos]
        try:
            lam = np.linalg.solve(Ssub, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            lam = np.full((len(combos), k), np.nan)
            for i, c in enumerate(combos):
                try:
                    lam[i] = np.linalg.solve(Ssub[i], rhs[i])
                except np.linalg.LinAlgError:
                    pass
        ok = np.all(lam >= -tol, axis=1) & np.all(np.isfinite(lam), axis=1)
        if not np.any(ok):
            continue
        z = -Hinv_f[None, :] - np.einsum("nk,nkj->nj", lam[ok], P[combos[ok]])
        feasible = np.all(z @ A.T <= b[None, :] + tol, axis=1)
        for zc in z[feasible]:
            obj = objective(zc)
            if obj < best_obj - 1e-12:
                best_z, best_obj = zc, obj
    if best_z is None:
        return None, None
    return best_z, best_obj


def polyhedron_is_empty(A, b) -> bool:
    """True when no z satisfies ``A z <= b``, by the HiGHS LP solver on a
    zero objective with free variables."""
    A = np.asarray(A, float)
    result = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b, bounds=(None, None), method="highs")
    if result.status not in (0, 2):
        raise RuntimeError(f"feasibility LP inconclusive: {result.message}")
    return result.status == 2


def riccati_residual(A, C, Q, R, P) -> float:
    """Relative residual of ``P`` in the prediction-form discrete Riccati
    equation: max |A P A' - A P C' (C P C' + R)^-1 C P A' + Q - P| / max |P|."""
    APC = A @ P @ C.T
    residual = A @ P @ A.T - APC @ np.linalg.solve(C @ P @ C.T + R, APC.T) + Q - P
    return float(np.max(np.abs(residual)) / np.max(np.abs(P)))


def kkt_residual(problem, z: np.ndarray, active_tol: float = 1e-6) -> float:
    """Max of stationarity, primal-feasibility and complementarity residuals
    of ``z`` for a ``triwalk.qp.QpProblem``.

    Multipliers are fitted by nonnegative least squares over the rows active
    at ``z`` (within ``active_tol``); the result is zero exactly when ``z`` is
    a KKT point.  A problem with soft rows (``factors.reg`` 1/penalty on them)
    is checked as the slack-augmented problem it stands for: one slack per
    soft row, scaled by sqrt(penalty) so its Hessian block is the identity,
    with a nonnegativity row each, at the penalty-optimal slacks
    ``max(0, A z - b)``.
    """
    fac = problem.factors
    H, A = fac.H, fac.A
    f = np.asarray(problem.f, float)
    b = np.asarray(problem.b, float)
    z = np.asarray(z, float)
    if z.shape != (fac.n,):
        raise ValueError("z length must match the number of decision variables")
    if fac.soft_rows.size:
        idx = fac.soft_rows
        n, m, k = z.size, b.size, idx.size
        root = np.sqrt(fac.reg[idx])
        H = np.block([[H, np.zeros((n, k))], [np.zeros((k, n)), np.eye(k)]])
        A_aug = np.zeros((m + k, n + k))
        A_aug[:m, :n] = A
        A_aug[idx, n + np.arange(k)] = -root          # a z - sqrt(reg) s <= b
        A_aug[m + np.arange(k), n + np.arange(k)] = -1.0   # s >= 0
        s = np.maximum(0.0, A[idx] @ z - b[idx]) / root
        A, f, b = A_aug, np.concatenate([f, np.zeros(k)]), np.concatenate([b, np.zeros(k)])
        z = np.concatenate([z, s])

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


def path_cost(grid, path) -> float:
    """Length of a cell path on ``grid``: a cell per orthogonal move and
    sqrt(2) cells per diagonal one."""
    cost = 0.0
    for a, b in zip(path, path[1:]):
        diagonal = a[0] != b[0] and a[1] != b[1]
        cost += grid.cell_size * (math.sqrt(2.0) if diagonal else 1.0)
    return cost


class FeetState:
    """Pose of both feet plus swing flags (+1 = swing foot, -1 = support)."""

    def __init__(self, x_l, y_l, theta_l, phi_l, x_r, y_r, theta_r, phi_r):
        if phi_l not in (-1, 1) or phi_r != -phi_l:
            raise ValueError("swing flags must be +1/-1 and opposite")
        self.x_l, self.y_l, self.theta_l, self.phi_l = x_l, y_l, theta_l, phi_l
        self.x_r, self.y_r, self.theta_r, self.phi_r = x_r, y_r, theta_r, phi_r

    @property
    def swing_is_left(self) -> bool:
        return self.phi_l == 1

    def left(self) -> np.ndarray:
        return np.array([self.x_l, self.y_l])

    def right(self) -> np.ndarray:
        return np.array([self.x_r, self.y_r])

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.left() + self.right())

    def footprint(self, side: str, closing: bool = False) -> tuple:
        if side == "L":
            return (self.x_l, self.y_l, self.theta_l, "L", closing)
        return (self.x_r, self.y_r, self.theta_r, "R", closing)


def _feet_transition(state: FeetState, distance: float, angle: float,
                     sigma_max: float) -> FeetState:
    """The swing foot moves ``distance`` along its heading turned by
    ``angle``, its heading updates, and the swing flags toggle."""
    if distance <= 0.0:
        raise ValueError("step distance must be positive")
    if abs(angle) > sigma_max + 1e-12:
        raise ValueError(f"step angle {angle:.3f} exceeds limit {sigma_max:.3f}")
    if state.swing_is_left:
        heading = state.theta_l + angle
        return FeetState(state.x_l + distance * math.cos(heading),
                         state.y_l + distance * math.sin(heading), heading, -1,
                         state.x_r, state.y_r, state.theta_r, 1)
    heading = state.theta_r + angle
    return FeetState(state.x_l, state.y_l, state.theta_l, 1,
                     state.x_r + distance * math.cos(heading),
                     state.y_r + distance * math.sin(heading), heading, -1)


def _wrap(a: float) -> float:
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


def footsteps_by_feet_state(path_xy, step_distance=0.1, sigma_max=math.radians(20.0),
                            lookahead=0.3, occupancy=None, cell_size=0.1,
                            step_width=0.2) -> tuple:
    """Footsteps along a waypoint path, followed in a two-feet state with
    swing flags: the right foot swings first from a stance astride the first
    waypoint; each step turns the swing heading toward the furthest waypoint
    within ``lookahead`` of the feet midpoint, clamped to ``sigma_max``; two
    closing steps set the feet side by side.  Returns the footprints as
    ``(x, y, theta, side, closing)`` tuples, initial stance first.  A
    placement on a blocked or off-grid cell of ``occupancy`` (cells of
    ``cell_size``), an empty path or a spent step budget raises a
    RuntimeError.
    """
    pts = np.atleast_2d(np.asarray(path_xy, dtype=float))
    if pts.shape[0] == 0:
        raise RuntimeError("path is empty")
    goal = pts[-1]

    direction = pts[-1] - pts[0]
    for p in pts[1:]:
        if np.linalg.norm(p - pts[0]) > 1e-9:
            direction = p - pts[0]
            break
    heading = math.atan2(direction[1], direction[0]) if np.linalg.norm(direction) > 1e-12 else 0.0
    lateral = np.array([-math.sin(heading), math.cos(heading)]) * (step_width / 2.0)
    left, right = pts[0] + lateral, pts[0] - lateral
    state = FeetState(left[0], left[1], heading, -1, right[0], right[1], heading, 1)

    def check(f: tuple) -> tuple:
        if occupancy is not None:
            r, c = math.floor(f[1] / cell_size), math.floor(f[0] / cell_size)
            rows, cols = occupancy.shape
            if not (0 <= r < rows and 0 <= c < cols) or occupancy[r, c]:
                raise RuntimeError(f"footprint {f[3]} at ({f[0]:.2f}, {f[1]:.2f}) is in collision")
        return f

    prints = [check(state.footprint("R")), check(state.footprint("L"))]
    width = float(np.linalg.norm(state.left() - state.right()))
    max_total = int(20 * (np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)) / step_distance + 10))
    for _ in range(max_total):
        mid = state.midpoint()
        if np.linalg.norm(goal - mid) <= 0.6 * step_distance:
            break
        dists = np.linalg.norm(pts - mid, axis=1)
        near = np.flatnonzero(dists <= lookahead)
        target = pts[near[-1]] if near.size else pts[int(np.argmin(dists))]
        if np.allclose(target, mid):
            target = goal
        heading = state.theta_l if state.swing_is_left else state.theta_r
        desired = math.atan2(target[1] - mid[1], target[0] - mid[0])
        sigma = max(-sigma_max, min(sigma_max, _wrap(desired - heading)))
        moving = "L" if state.swing_is_left else "R"
        state = _feet_transition(state, step_distance, sigma, sigma_max)
        prints.append(check(state.footprint(moving)))
    else:
        raise RuntimeError("step budget exhausted before reaching the goal")

    for _ in range(2):
        moving = "L" if state.swing_is_left else "R"
        if state.swing_is_left:
            sup, heading = state.right(), state.theta_r
            offset = np.array([-math.sin(heading), math.cos(heading)]) * width
            state = FeetState(sup[0] + offset[0], sup[1] + offset[1], heading, -1,
                              state.x_r, state.y_r, heading, 1)
        else:
            sup, heading = state.left(), state.theta_l
            offset = np.array([math.sin(heading), -math.cos(heading)]) * width
            state = FeetState(state.x_l, state.y_l, heading, 1,
                              sup[0] + offset[0], sup[1] + offset[1], heading, -1)
        prints.append(check(state.footprint(moving, closing=True)))
    return tuple(prints)


def dijkstra_grid(occupancy: np.ndarray, start, goal, cell_size: float):
    """Uniform-cost search over the same 8-connected grid the planner uses.

    Diagonal moves are allowed only when both orthogonal neighbours are free.
    Returns the minimal path cost or None when the goal is unreachable.
    """
    rows, cols = occupancy.shape
    start = tuple(start)
    goal = tuple(goal)
    dist = {start: 0.0}
    heap = [(0.0, start)]
    diag = cell_size * math.sqrt(2.0)
    while heap:
        d, cell = heapq.heappop(heap)
        if cell == goal:
            return d
        if d > dist.get(cell, np.inf):
            continue
        r, c = cell
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1),
                       (-1, -1), (-1, 1), (1, -1), (1, 1)):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols) or occupancy[nr, nc]:
                continue
            if dr and dc and (occupancy[r + dr, c] or occupancy[r, c + dc]):
                continue
            step = diag if dr and dc else cell_size
            nd = d + step
            if nd < dist.get((nr, nc), np.inf) - 1e-15:
                dist[(nr, nc)] = nd
                heapq.heappush(heap, (nd, (nr, nc)))
    return None


def astar_by_dicts(occupancy: np.ndarray, start, goal, cell_size: float) -> list:
    """The planner's A* as it stood over tuple cells, dicts and a set: the
    same heap key (f, h, row-major index), heuristic and ``- 1e-12``
    improvement test, so it returns the same cell list.  Where the planner
    raises a ``PlanningError`` this raises a RuntimeError with the same
    text."""
    rows, cols = occupancy.shape
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))

    def is_free(cell):
        return 0 <= cell[0] < rows and 0 <= cell[1] < cols and not occupancy[cell]

    for name, cell in (("start", start), ("goal", goal)):
        if not is_free(cell):
            raise RuntimeError(f"{name} cell {cell} is not free")

    def heuristic(cell):
        return cell_size * math.hypot(cell[0] - goal[0], cell[1] - goal[1])

    g_cost = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    h0 = heuristic(start)
    heap = [(h0, h0, start[0] * cols + start[1], start)]
    closed = set()
    while heap:
        f, h, _, cell = heapq.heappop(heap)
        if cell in closed:
            continue
        if cell == goal:
            path = [cell]
            while cell in parent:
                cell = parent[cell]
                path.append(cell)
            return path[::-1]
        closed.add(cell)
        r, c = cell
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1),
                       (-1, -1), (-1, 1), (1, -1), (1, 1)):
            nr, nc = r + dr, c + dc
            nxt = (nr, nc)
            if not (0 <= nr < rows and 0 <= nc < cols) or occupancy[nr, nc] or nxt in closed:
                continue
            if dr and dc and (occupancy[r + dr, c] or occupancy[r, c + dc]):
                continue
            step = cell_size * math.sqrt(2.0) if dr and dc else cell_size
            cand = g_cost[cell] + step
            if cand < g_cost.get(nxt, math.inf) - 1e-12:
                g_cost[nxt] = cand
                parent[nxt] = cell
                hn = heuristic(nxt)
                heapq.heappush(heap, (cand + hn, hn, nr * cols + nc, nxt))
    raise RuntimeError(
        f"goal {goal} unreachable from {start}: {len(g_cost)} of "
        f"{int(np.sum(~occupancy))} free cells reachable")


def dijkstra_all_costs(occupancy: np.ndarray, start, cell_size: float):
    """Exact cost-to-come from ``start`` for every reachable cell."""
    rows, cols = occupancy.shape
    dist = np.full(occupancy.shape, np.inf)
    dist[tuple(start)] = 0.0
    heap = [(0.0, tuple(start))]
    diag = cell_size * math.sqrt(2.0)
    while heap:
        d, (r, c) = heapq.heappop(heap)
        if d > dist[r, c]:
            continue
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1),
                       (-1, -1), (-1, 1), (1, -1), (1, 1)):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols) or occupancy[nr, nc]:
                continue
            if dr and dc and (occupancy[r + dr, c] or occupancy[r, c + dc]):
                continue
            step = diag if dr and dc else cell_size
            if d + step < dist[nr, nc] - 1e-15:
                dist[nr, nc] = d + step
                heapq.heappush(heap, (d + step, (nr, nc)))
    return dist


def inflate_by_components(occupancy: np.ndarray, scale: float) -> np.ndarray:
    """Obstacle inflation by an explicit 8-connected flood fill: each
    component's bounding box grows about its centroid to ``scale`` times its
    extent (rounded half up, split evenly, clipped), along each axis within
    the component's extent on the other axis."""
    rows, cols = occupancy.shape
    out = occupancy.copy()
    seen = np.zeros_like(occupancy)
    for r0, c0 in itertools.product(range(rows), range(cols)):
        if not occupancy[r0, c0] or seen[r0, c0]:
            continue
        stack, cells = [(r0, c0)], []
        seen[r0, c0] = True
        while stack:
            r, c = stack.pop()
            cells.append((r, c))
            for dr, dc in itertools.product((-1, 0, 1), repeat=2):
                nr, nc = r + dr, c + dc
                if (0 <= nr < rows and 0 <= nc < cols and occupancy[nr, nc]
                        and not seen[nr, nc]):
                    seen[nr, nc] = True
                    stack.append((nr, nc))
        (r_lo, c_lo), (r_hi, c_hi) = np.min(cells, axis=0), np.max(cells, axis=0)
        grown = []
        for lo, hi, limit in ((r_lo, r_hi, rows), (c_lo, c_hi, cols)):
            extent = hi - lo + 1
            total = max(extent, int(math.floor(extent * scale + 0.5)))
            pad_lo = (total - extent) // 2
            grown.append((max(0, lo - pad_lo), min(limit, hi + total - extent - pad_lo + 1)))
        out[grown[0][0]:grown[0][1], c_lo:c_hi + 1] = True
        out[r_lo:r_hi + 1, grown[1][0]:grown[1][1]] = True
    return out


def dilate_by_shifts(occupancy: np.ndarray, margin: int) -> np.ndarray:
    """Chebyshev dilation as the union of every shift by up to ``margin``
    cells; cells shifted in from beyond the map are free."""
    rows, cols = occupancy.shape
    padded = np.zeros((rows + 2 * margin, cols + 2 * margin), dtype=bool)
    padded[margin:margin + rows, margin:margin + cols] = occupancy
    out = np.zeros_like(occupancy)
    for dr, dc in itertools.product(range(2 * margin + 1), repeat=2):
        out |= padded[dr:dr + rows, dc:dc + cols]
    return out


def phase_box_per_axis(centers, half, params, config, swing_side=None) -> np.ndarray:
    """Output bounds (axis, lo/hi, output) of one support phase, axis by axis
    in scalar arithmetic.

    ``centers`` and ``half`` are (k, 2) per contact foot; one foot is single
    support.  Per axis: the ZMP box spans the feet shrunk by the safety
    scale, narrowed by ``zmp_margin`` and shifted by ``zmp_bias`` along x
    only; the stance corridor spans the foot centers widened by
    ``swing_reach``; the swing corridor equals it, except along y in single
    support, where it is the ``swing_band`` on the ``swing_side``.
    """
    out = np.empty((2, 2, 3))
    for axis in range(2):
        cs = [float(c[axis]) for c in centers]
        margins = [params.zmp_safety_scale * float(h[axis]) for h in half]
        bias = config.zmp_bias if axis == 0 else 0.0
        z_lo = min(c - m for c, m in zip(cs, margins)) + config.zmp_margin + bias
        z_hi = max(c + m for c, m in zip(cs, margins)) - config.zmp_margin + bias
        if z_lo > z_hi:
            raise ValueError("inconsistent ZMP bounds")
        st_lo, st_hi = min(cs) - config.swing_reach, max(cs) + config.swing_reach
        sw_lo, sw_hi = st_lo, st_hi
        if len(cs) == 1 and axis == 1:
            a, b = (cs[0] + swing_side * w for w in config.swing_band)
            sw_lo, sw_hi = min(a, b), max(a, b)
        out[axis] = [[st_lo, sw_lo, z_lo], [st_hi, sw_hi, z_hi]]
    return out


def tracking_transposes(pred, config):
    """The weighted transposes ``GtW`` and ``UtW`` of the tracking cost: they
    map the free-response error and the held input over the prediction
    horizon to the gradient."""
    w_out = np.tile([config.w_stance, config.w_swing, config.w_zmp], config.n_pred)
    w_in = np.tile(config.w_jerk, config.n_pred)
    return (pred.gamma * w_out[:, None]).T, (pred.u_map * w_in[:, None]).T


def condensed_qp_data(pred, config, X, u_prev, refs, lo, hi):
    """A controller cycle's QP gradient F and right-hand side B, formed block
    by block from the free response.

    The free response is the predicted output at zero increments, ``phi x +
    phi_u u_prev``.  F is ``2 GtW (free - refs) + 2 UtW tile(u_prev)``.
    B is written per output (zmp, stance, swing), upper bounds ``hi - free``
    then lower ``free - lo`` over the constraint window, then per input the
    jerk rows ``lim - u_prev`` and ``lim + u_prev`` over the control horizon.
    Leading dimensions of X (..., 9), u_prev (..., 3), refs (..., n_pred, 3),
    lo and hi (..., window, 3) index the axes; ``np.matvec`` keeps each row
    bitwise equal to a one-axis call.
    """
    window, lim, nc = config.constraint_window, config.jerk_limit, config.n_ctrl
    u_prev = np.asarray(u_prev, float)
    lead = u_prev.shape[:-1]
    GtW, UtW = tracking_transposes(pred, config)
    free = np.matvec(pred.phi, np.asarray(X, float)) + np.matvec(pred.phi_u, u_prev)
    err = free - np.asarray(refs, float).reshape(*lead, -1)
    F = 2.0 * (np.matvec(GtW, err) + np.matvec(UtW, np.tile(u_prev, config.n_pred)))
    y = free.reshape(*lead, -1, 3)[..., :window, :]
    B = np.empty((*lead, 6 * (window + nc)))
    out = B[..., :6 * window].reshape(*lead, 3, 2, window)
    out[..., 0, :] = np.swapaxes(hi - y, -1, -2)[..., [2, 0, 1], :]
    out[..., 1, :] = np.swapaxes(y - lo, -1, -2)[..., [2, 0, 1], :]
    jerk = B[..., 6 * window:].reshape(*lead, 3, 2, nc)
    jerk[..., 0, :], jerk[..., 1, :] = (lim - u_prev)[..., None], (lim + u_prev)[..., None]
    return F, B
