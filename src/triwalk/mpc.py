"""Receding-horizon walking controller for the two horizontal axes of the
three-mass model.

The sagittal (x) and frontal (y) axes have the same dynamics and the same
controller, so one set of prediction, cost and constraint matrices serves
both; row i of every (2, ...) array is axis i.  Per axis, the controller
optimizes input increments over a control horizon against a prediction of the
three outputs (stance mass, swing mass, zero-moment point), subject to
phase-dependent bounds on the swing-mass position, the ZMP and the jerk
inputs.  The QP's Hessian and constraint matrix are fixed; its gradient and
right-hand side are affine in the cycle's state estimate, held input,
reference window and bound window, so each cycle forms them with maps fixed
at construction (``cost_matrices``, ``constraint_maps``).  A steady-state Kalman
observer reconstructs each axis's 9-entry state from its three measured
outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import N_INPUTS, N_OUTPUTS, N_STATES, StateSpace, ThreeMassParams
from .qp import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    ActiveSetSolver,
    QpFactors,
    QpProblem,
    _peak,
)

# Horizontal axes (x, y), which share one controller.
N_AXES = 2
# A cycle reports ``softened`` when its largest output-row slack exceeds this
# (m).  A quadratic penalty is not exact: it moves even a hard-feasible
# optimum by lambda/rho.  That reached 4.4e-5 m in the tracking and
# omnidirectional walks and 6.8e-4 m in the +-300 N and -440 N push runs,
# which survive, while in the +440 N and -540 N runs, which fall, no cycle
# whose hard problem is infeasible had a slack below 3.9e-3 m.
_SOFTENED_SLACK = 1e-3
# Standard deviation (m/s^2) added to the prior of each acceleration state
# for the observer's push-recovery gain.
_BOOST_ACCEL_NOISE = 6.0
# Push detection: an innovation beyond ``_BOOST_GATE_HIGH`` standard
# deviations cannot be measurement noise and engages the recovery gain
# immediately.  A smaller push biases the signed innovation of one channel
# persistently while noise is zero-mean, so a rolling ``_BOOST_WINDOW``-cycle
# signed sum crossing ``_BOOST_GATE_SUM`` also engages it, for
# ``_BOOST_HOLD`` cycles; ``_BOOST_GATE`` keeps it engaged while evidence
# remains.
_BOOST_GATE = 3.0
_BOOST_GATE_HIGH = 4.0
_BOOST_GATE_SUM = 9.0
_BOOST_WINDOW = 4
_BOOST_HOLD = 8
# Robustness against outliers: while boosted, the per-cycle correction of
# each acceleration estimate is clipped to this magnitude (m/s^2), so the
# time to absorb a push grows with its size.
_BOOST_RATE = 1.6
# Cap on the observer's Riccati doublings: doubling k stands for 2^k
# recursion steps, and a detectable model settles in 10-22 of them.
_RICCATI_DOUBLINGS = 64


def _check_lengths(config, **lengths: int) -> None:
    """Raise ``ValueError`` naming the first field of ``config`` that does
    not hold its number of values."""
    for name, n in lengths.items():
        if np.shape(getattr(config, name)) != (n,):
            raise ValueError(f"{name} must hold {n} values")


class ControllerFault(RuntimeError):
    """The controller could not produce a command: its hard jerk rows admit
    no input sequence."""


@dataclass(frozen=True)
class MpcConfig:
    """Horizons, sample time, tracking weights and constraint geometry."""

    n_pred: int = 80
    n_ctrl: int = 20
    ts: float = 0.02
    w_zmp: float = 20.0
    w_stance: float = 20.0
    w_swing: float = 20.0
    w_jerk: tuple[float, float, float] = (1e-4, 1e-4, 1e-4)
    jerk_limit: float = 500.0
    swing_reach: float = 0.25            # sagittal swing-mass corridor, +- about the support
    swing_band: tuple[float, float] = (0.05, 0.30)  # lateral swing-mass separation band
    soft_penalty: float = 1e6
    # Extra absolute headroom (m) inside the scaled ZMP box, covering the
    # estimation bias that hides in the ZMP output's zero direction after a
    # disturbance; keeps millimetre-scale drifts inside the true polygon.
    zmp_margin: float = 0.02
    # Toe-ward shift of the sagittal enforcement box (m).  Forward walking
    # leaves more braking budget behind the ZMP than ahead of it; the bias
    # rebalances push tolerance between the two directions.
    zmp_bias: float = 0.005
    # Output constraints are enforced over this many predicted samples.  The
    # input is frozen beyond the control horizon, so constraining the ballistic
    # tail makes gait subproblems structurally infeasible whenever the support
    # box moves inside the horizon; None means "same as n_ctrl".
    n_constrained: int | None = None

    def __post_init__(self) -> None:
        _check_lengths(self, w_jerk=N_INPUTS, swing_band=2)
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"{f.name} must be finite")
        if not 1 <= self.n_ctrl <= self.n_pred:
            raise ValueError("need 1 <= n_ctrl <= n_pred")
        if self.n_constrained is not None and not 1 <= self.n_constrained <= self.n_pred:
            raise ValueError("n_constrained must lie within the prediction horizon")
        if self.ts <= 0.0:
            raise ValueError("ts must be positive")
        if max(self.w_zmp, self.w_stance, self.w_swing) <= 0.0:
            raise ValueError("at least one output weight must be positive")
        if min(self.w_zmp, self.w_stance, self.w_swing, *self.w_jerk) < 0.0:
            raise ValueError("weights must be nonnegative")
        if self.jerk_limit <= 0.0 or self.soft_penalty <= 0.0:
            raise ValueError("jerk_limit and soft_penalty must be positive")
        if self.zmp_margin < 0.0:
            raise ValueError("zmp_margin must be nonnegative")
        if self.swing_reach <= 0.0:
            raise ValueError("swing_reach must be positive")
        if not 0.0 <= self.swing_band[0] < self.swing_band[1]:
            raise ValueError("swing_band must satisfy 0 <= low < high")

    @property
    def constraint_window(self) -> int:
        return self.n_ctrl if self.n_constrained is None else self.n_constrained


@dataclass(frozen=True)
class PredictionMatrices:
    """Condensed prediction: ``Y = phi x + phi_u u_prev + gamma dU`` and
    ``U = tile(u_prev) + u_map dU`` with dU zero beyond the control horizon."""

    free_map: np.ndarray  # (3 n_pred, 12): the free response [phi, phi_u] [x; u_prev]
    phi: np.ndarray      # (3 n_pred, 9), a view of free_map
    phi_u: np.ndarray    # (3 n_pred, 3), a view of free_map
    gamma: np.ndarray    # (3 n_pred, 3 n_ctrl)
    u_map: np.ndarray    # (3 n_pred, 3 n_ctrl)
    n_pred: int
    n_ctrl: int


def build_prediction(ss: StateSpace, config: MpcConfig) -> PredictionMatrices:
    if not ss.is_discrete:
        raise ValueError("prediction requires a discrete model")
    if abs(ss.ts - config.ts) > 1e-12:
        raise ValueError("model sample time must match the controller")
    np_, nc = config.n_pred, config.n_ctrl
    Ad, Bd, Cd = ss.A, ss.B, ss.C

    # S[j] = sum_{l<j} Ad^l Bd is the state response to a constant unit input.
    S = [np.zeros((N_STATES, N_INPUTS)), Bd.copy()]
    powers = [np.eye(N_STATES), Ad.copy()]
    for j in range(2, np_ + 1):
        S.append(Ad @ S[-1] + Bd)
        powers.append(Ad @ powers[-1])

    # Output sample j responds to x through C Ad^j and to a unit input held
    # from move l on through C S[j-l], zero for l >= j.
    CS = Cd @ np.stack(S)
    free_map = np.concatenate([Cd @ np.stack(powers[1:]), CS[1:]], axis=2)
    free_map = free_map.reshape(N_OUTPUTS * np_, N_STATES + N_INPUTS)
    lag = np.maximum(np.arange(1, np_ + 1)[:, None] - np.arange(nc), 0)
    gamma = CS[lag].transpose(0, 2, 1, 3).reshape(N_OUTPUTS * np_, N_INPUTS * nc)
    u_map = np.kron(np.tri(np_, nc), np.eye(N_INPUTS))
    return PredictionMatrices(free_map, free_map[:, :N_STATES], free_map[:, N_STATES:],
                              gamma, u_map, np_, nc)


def cost_matrices(pred: PredictionMatrices, config: MpcConfig):
    """H and the maps of f = f_err (free - refs) + f_held u_prev: 2 GtW, 2 UtW tile(I).
    Mapping the error keeps f in GtW's range; a map folding GtW phi adds rounding
    that H^-1 amplifies by cond(H), 2e9 without jerk weights."""
    w_out = np.tile([config.w_stance, config.w_swing, config.w_zmp], config.n_pred)
    w_in = np.tile(config.w_jerk, config.n_pred)
    G, U = pred.gamma, pred.u_map
    GW, UW = G * w_out[:, None], U * w_in[:, None]
    H = 2.0 * (G.T @ GW + U.T @ UW)
    held = np.tile(np.eye(N_INPUTS), (config.n_pred, 1))
    return 0.5 * (H + H.T), 2.0 * GW.T, 2.0 * (UW.T @ held)


def build_constraints(centers, half, params: ThreeMassParams, config: MpcConfig,
                      swing_side: float | None = None) -> np.ndarray:
    """Output bounds of both axes for one support phase: (2, 2, 3) as (axis,
    lo/hi, output), outputs in stacked order (stance, swing, zmp).

    ``centers`` and ``half`` are (k, 2): per contact foot, its center and
    half-extents along the working frame's (x, y).  One foot is single
    support, where ``swing_side`` (+1 or -1) signs the swing foot's lateral
    offset; two feet (double support or standing) take none.  The jerk
    bounds are ``config.jerk_limit`` in every phase.
    """
    centers = np.asarray(centers, dtype=float)
    half = np.asarray(half, dtype=float)
    if centers.shape not in ((1, 2), (2, 2)) or half.shape != centers.shape:
        raise ValueError("centers and half must both have shape (k, 2), k = 1 or 2")
    if swing_side not in ((-1.0, 1.0) if len(centers) == 1 else (None,)):
        raise ValueError("single support needs swing_side of +1 or -1, two feet none")
    if not np.all(np.isfinite(centers)):
        raise ValueError("support centers must be finite")

    # The toe-ward bias is sagittal only.
    margin = params.zmp_safety_scale * half
    z_lo = (centers - margin).min(axis=0) + config.zmp_margin + (config.zmp_bias, 0.0)
    z_hi = (centers + margin).max(axis=0) - config.zmp_margin + (config.zmp_bias, 0.0)
    if np.any(z_lo > z_hi):
        raise ValueError(f"inconsistent ZMP bounds [{z_lo}, {z_hi}]")

    # The stance-leg mass belongs to a planted foot, so its position is
    # mechanically confined near the support.  The corridor also removes the
    # escape route along the ZMP output's unstable zero direction, where a
    # mass position can run away without moving the ZMP.
    st_lo = centers.min(axis=0) - config.swing_reach
    st_hi = centers.max(axis=0) + config.swing_reach
    # The swing-role mass shares that corridor, except in single support
    # along y, where it keeps the swing band on the swing side.
    lo = np.column_stack([st_lo, st_lo, z_lo])
    hi = np.column_stack([st_hi, st_hi, z_hi])
    if swing_side is not None:
        lo[1, 1], hi[1, 1] = np.sort(centers[0, 1] + swing_side * np.array(config.swing_band))
    return np.stack([lo, hi], axis=1)


def constraint_maps(pred: PredictionMatrices, config: MpcConfig):
    """The fixed rows A of ``A dU <= b`` and b's map (b_map, b0, cols, sign).
    Per output (zmp, stance, swing), upper then lower bound rows over samples
    k+1 .. k+window; then, per input, upper then lower jerk rows over the
    n_ctrl decided moves.  Row r signs one entry v_r of the outputs over the
    window and the inputs over the control horizon, ``s v_r <= s bound``: A's
    row is s times v_r's response to dU, b's is s times the bound (hi, lo or
    +-jerk_limit) less v_r at zero increments."""
    window, nc = config.constraint_window, pred.n_ctrl
    entries = ([N_OUTPUTS * np.arange(window) + i for i in (2, 0, 1)]
               + [N_OUTPUTS * window + N_INPUTS * np.arange(nc) + i for i in range(N_INPUTS)])
    rows = np.concatenate([np.r_[e, e] for e in entries])
    sign = np.concatenate([np.repeat([1.0, -1.0], len(e)) for e in entries])
    n_y, n_free = N_OUTPUTS * window, N_STATES + N_INPUTS
    dU_response = np.vstack([pred.gamma[:n_y], pred.u_map[:N_INPUTS * nc]])
    # The response to (x, u_prev) at zero increments: the free response over
    # the window, then the held input at every move.
    zero_response = np.vstack([pred.free_map[:n_y],
                               np.eye(n_free)[N_STATES + np.arange(N_INPUTS * nc) % N_INPUTS]])
    out = rows < n_y   # output rows come first
    return sign[:, None] * dU_response[rows], (
        -sign[:, None] * zero_response[rows], np.where(out, 0.0, config.jerk_limit),
        rows[out] + n_y * (sign[out] > 0), sign[out])


def condense_constraints(rhs, xu: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """A cycle's right-hand sides ``b_map [x; u_prev] + b0``, plus on each
    output row its sign times entry ``cols`` of the bound window [lo; hi];
    xu (..., 12) and bounds (..., 6 window) are flattened per axis.
    ``np.matvec`` and the gather compute each axis's row as a one-axis call."""
    b_map, b0, cols, sign = rhs
    b = np.matvec(b_map, xu) + b0
    b[..., :len(cols)] += sign * bounds.take(cols, axis=-1)
    return b


@dataclass(frozen=True)
class ObserverConfig:
    """Noise levels (standard deviations) defining the steady-state filter.

    ``jerk_noise`` covers model mismatch entering through the input channels.
    The torso is observed only through the ZMP output, so its channels
    dominate the smoothing/responsiveness trade-off.

    A single gain cannot be both smooth under heavy measurement noise and
    fast after a push, so a second, stiffer gain (with inflated acceleration
    priors) is engaged while ``PushGate`` detects a push.
    """

    jerk_noise: tuple[float, float, float] = (1.0, 1.0, 1.0)
    measurement_noise: tuple[float, float, float] = (0.0167, 0.0167, 0.0167)

    def __post_init__(self) -> None:
        _check_lengths(self, jerk_noise=N_INPUTS, measurement_noise=N_OUTPUTS)
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise ValueError(f"{f.name} must be finite")
        if min(self.jerk_noise) <= 0.0 or min(self.measurement_noise) <= 0.0:
            raise ValueError("noise levels must be positive")


class PushGate:
    """Push detection for one axis: decides each cycle whether the observer
    corrects with its recovery gain.

    A huge innovation is a push; so is a persistent one-signed bias in any
    channel (noise is zero-mean).  Either engages the recovery gain for
    ``_BOOST_HOLD`` cycles; while engaged, any innovation beyond
    ``_BOOST_GATE`` re-arms the hold.
    """

    def __init__(self):
        self.window: deque[np.ndarray] = deque(maxlen=_BOOST_WINDOW)
        self.hold = 0

    def update(self, sigmas: np.ndarray) -> bool:
        """Record one cycle's innovations (in sigmas); True while boosted."""
        self.window.append(sigmas)
        peak = float(np.abs(sigmas).max())
        bias = float(np.abs(sum(self.window)).max())   # rows in order, bitwise as np.sum(axis=0)
        if (peak > _BOOST_GATE_HIGH or bias > _BOOST_GATE_SUM
                or (self.hold > 0 and peak > _BOOST_GATE)):
            self.hold = _BOOST_HOLD
        boosted = self.hold > 0
        self.hold = max(0, self.hold - 1)
        return boosted


class Observer:
    """Steady-state Kalman filter: predict with the model, correct with a
    precomputed gain.  Two gains are prepared: the nominal one and a stiffer
    push-recovery gain used while innovations are implausibly large, both
    from the Riccati solution of ``_steady_state_covariance``.  The object
    is immutable; callers own the estimate and a ``PushGate`` per axis."""

    def __init__(self, ss: StateSpace, config: ObserverConfig = ObserverConfig()):
        if not ss.is_discrete:
            raise ValueError("observer requires a discrete model")
        self.ss = ss
        r = np.asarray(config.measurement_noise, dtype=float) ** 2
        R = np.diag(r)
        Q = ss.B @ np.diag(np.asarray(config.jerk_noise, dtype=float) ** 2) @ ss.B.T
        P = self._steady_state_covariance(ss.A, ss.C, Q, R)
        self.gain = P @ ss.C.T @ np.linalg.inv(ss.C @ P @ ss.C.T + R)
        poles = np.abs(np.linalg.eigvals((np.eye(N_STATES) - self.gain @ ss.C) @ ss.A))
        if np.max(poles) >= 1.0 - 1e-9:
            raise ValueError("observer configuration is not detectable")
        # Normalization for innovation gating under nominal operation.
        self.innovation_std = np.sqrt(np.diag(ss.C @ P @ ss.C.T + R))
        # Push recovery: a fresh impulse corrupts the acceleration states
        # only, so the stiff gain comes from inflating their prior variance
        # while positions and velocities keep the nominal one.
        Pb = P.copy()
        for slot in (2, 5, 8):
            Pb[slot, slot] += _BOOST_ACCEL_NOISE ** 2
        self.gain_boost = Pb @ ss.C.T @ np.linalg.inv(ss.C @ Pb @ ss.C.T + R)

    @staticmethod
    def _steady_state_covariance(A, C, Q, R) -> np.ndarray:
        """The stabilizing solution of ``P = A P A' - A P C' (C P C' + R)^-1 C P A' + Q``.

        Structure-preserving doubling (Lin & Xu, SIAM J. Matrix Anal. Appl.
        28(1), 2006): from A_0 = A', G_0 = C' R^-1 C, H_0 = Q and with W = I +
        G H, H <- H + A' H W^-1 A, G <- G + A W^-1 G A', A <- A W^-1 A.  H_k
        is the Riccati recursion's iterate 2^k from P = 0; an undetectable
        model never settles and raises ``ValueError``.  One Newton step
        (Hewer, IEEE TAC 16(4), 1971), the Stein equation ``X = F X F' + Q +
        L R L'`` of the predictor's closed loop F = A - L C with L = A P C'
        (C P C' + R)^-1, then restores what doubling loses to cancellation
        (a relative residual of 2.5e-7 at jerk noise 1e3, measurement 1e-4).
        """
        n = A.shape[0]
        Ak, G, H = A.T, C.T @ np.linalg.solve(R, C), Q
        for _ in range(_RICCATI_DOUBLINGS):
            W_AG = np.linalg.solve(np.eye(n) + G @ H, np.hstack([Ak, G]))
            W_A = W_AG[:, :n]
            step = Ak.T @ H @ W_A
            G = G + Ak @ W_AG[:, n:] @ Ak.T
            Ak = Ak @ W_A
            H = H + 0.5 * (step + step.T)
            if np.max(np.abs(step)) <= 1e-12 * np.max(np.abs(H)):
                break
        else:
            raise ValueError("steady-state covariance iteration did not converge")
        L = A @ H @ C.T @ np.linalg.inv(C @ H @ C.T + R)
        F = A - L @ C
        P = np.linalg.solve(np.eye(n * n) - np.kron(F, F), (Q + L @ R @ L.T).ravel())
        P = P.reshape(n, n)
        return 0.5 * (P + P.T)

    def step(self, x_est: np.ndarray, u_prev: np.ndarray, y_meas: np.ndarray,
             boosted: bool = False) -> np.ndarray:
        """One predict/correct cycle; returns the new estimate.

        Boosted cycles use the push-recovery gain with the acceleration
        corrections rate-limited, so outlier innovations are absorbed over
        several cycles instead of being written in at once.
        """
        x_pred = self.ss.A @ x_est + self.ss.B @ u_prev
        gain = self.gain_boost if boosted else self.gain
        correction = gain @ (np.asarray(y_meas, dtype=float) - self.ss.C @ x_pred)
        if boosted:
            for slot in (2, 5, 8):
                correction[slot] = min(_BOOST_RATE, max(-_BOOST_RATE, correction[slot]))
        return x_pred + correction

    def innovation_sigmas(self, x_est: np.ndarray, u_prev: np.ndarray,
                          y_meas: np.ndarray) -> np.ndarray:
        """Signed per-output innovations in nominal standard deviations."""
        x_pred = self.ss.A @ x_est + self.ss.B @ u_prev
        innovation = np.asarray(y_meas, dtype=float) - self.ss.C @ x_pred
        return innovation / self.innovation_std


@dataclass
class ControlCycleInfo:
    status: str
    softened: bool                 # largest slack above _SOFTENED_SLACK
    objective: float
    iterations: int                # QP iterations of the cycle's one solve
    predicted_output: np.ndarray   # first predicted sample (stance, swing, zmp)


class AxisController:
    """Receding-horizon controller of both axes.

    Both axes share the model and ``MpcConfig``, so one instance holds the
    fixed cost and constraint matrices, factored once for the QP solver, for
    a whole walk session.  Row i of the (2, 3) previous applied inputs
    ``u_prev`` and of every ``control_step`` argument is axis i (x, y), and
    each axis keeps its own previous active set for warm starts.

    Every output row is soft: its violation s costs ``soft_penalty``/2 s^2,
    so each axis's cycle is one always-feasible QP, solved once
    (``QpFactors.soften``: the hard factors with 1/rho on the output rows'
    Gram diagonal); only the jerk rows stay hard.  A cycle reports
    ``softened`` when its largest slack exceeds ``_SOFTENED_SLACK``.
    Because ``A`` never changes, a warm-start row index always names the
    same (bound family, sample): after every optimal cycle the axis keeps
    that cycle's active set (``qp.ActiveSet``, which carries its factor)
    and seeds its next solve with it.
    """

    def __init__(self, ss: StateSpace, config: MpcConfig):
        self.config = config
        self.pred = build_prediction(ss, config)
        self.solver = ActiveSetSolver()
        H, self._f_err, self._f_held = cost_matrices(self.pred, config)
        A, self._rhs = constraint_maps(self.pred, config)
        # Soft output rows come first; the jerk rows after them stay hard.
        output_rows = np.arange(A.shape[0]) < 2 * N_OUTPUTS * config.constraint_window
        self._factors = QpFactors.build(H, A).soften(output_rows, config.soft_penalty)
        self.A = self._factors.A
        # Shapes of a cycle's parameters (refs, X, u_prev, lo, hi), which
        # each axis flattens in this order.
        window = (N_AXES, config.constraint_window, N_OUTPUTS)
        self._shapes = ((N_AXES, config.n_pred, N_OUTPUTS), (N_AXES, N_STATES),
                        (N_AXES, N_INPUTS), window, window)
        self.reset()

    def reset(self, u_prev=None) -> None:
        """Hold ``u_prev`` (2, 3), zero by default, and drop both warm
        starts (after a frame rotation their rows bound other directions)."""
        self.u_prev = (np.zeros((N_AXES, N_INPUTS)) if u_prev is None
                       else np.array(u_prev, dtype=float))
        self._warm: list[tuple[int, ...] | None] = [None] * N_AXES

    def control_step(self, X: np.ndarray, refs: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> tuple[np.ndarray, tuple[ControlCycleInfo, ...]]:
        """Solve both axes' cycle subproblems and return the (2, 3) inputs to
        apply now, with one ``ControlCycleInfo`` per axis.

        Row i of the state estimates ``X`` (2, 9), ``refs`` (2, n_pred, 3),
        ``lo`` and ``hi`` (2, constraint_window, 3) belongs to axis i; row j
        of an axis's window holds the (stance, swing, zmp) target and bounds
        at sample k+1+j.  Samples beyond the window follow the references
        only; the jerks are boxed by ``config.jerk_limit``.

        Every axis applies its solve's first move, whatever its status.
        On ``STATUS_MAX_ITERATIONS`` (iteration cap, a cold solve whose
        working-set factor broke down, or KKT gate missed) that is the
        solver's last iterate: it meets the working-set rows and may violate
        others.  The cycle reports the status, the axis's warm set is
        dropped so the next cycle starts cold, and ``RunMetrics`` counts the
        cycle in ``nonoptimal_cycles``.  Only a solve whose hard jerk rows
        are infeasible raises ``ControllerFault``.  An argument, or the held
        input, of another shape or with a non-finite entry raises
        ``ValueError`` naming it, before any state changes.
        """
        args = tuple(map(np.asarray, (refs, X, self.u_prev, lo, hi)))
        P = (np.concatenate([a.reshape(N_AXES, -1) for a in args], axis=1)
             if tuple(map(np.shape, args)) == self._shapes else None)
        if P is None or not np.isfinite(P).all():
            for name, a, shape in zip(("refs", "X", "u_prev", "lo", "hi"), args, self._shapes):
                if np.shape(a) != shape or not np.isfinite(a).all():
                    raise ValueError(f"{name} must be a finite {shape} array")
        n_refs, n_free = self.pred.gamma.shape[0], N_STATES + N_INPUTS
        xu = P[:, n_refs:n_refs + n_free]
        free = np.matvec(self.pred.free_map, xu)
        F = np.matvec(self._f_err, free - P[:, :n_refs]) + np.matvec(self._f_held, self.u_prev)
        B = condense_constraints(self._rhs, xu, P[:, n_refs + n_free:])

        sols, infos = [], []
        for f, b, warm, y_free in zip(F, B, self._warm, free):
            sol = self.solver.solve(QpProblem(self._factors, f, b), warm_start=warm)
            if sol.status == STATUS_INFEASIBLE:
                raise ControllerFault("cycle subproblem infeasible in its hard jerk rows")
            sols.append(sol)
            infos.append(ControlCycleInfo(
                status=sol.status, softened=_peak(sol.slacks) > _SOFTENED_SLACK,
                objective=sol.objective, iterations=sol.iterations,
                predicted_output=y_free[:N_OUTPUTS] + self.pred.gamma[:N_OUTPUTS] @ sol.z))
        self._warm = [sol.active_set if sol.status == STATUS_OPTIMAL else None for sol in sols]
        U = self.u_prev + np.array([sol.z[:N_INPUTS] for sol in sols])
        self.u_prev = U.copy()
        return U, tuple(infos)
