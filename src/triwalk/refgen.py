"""Reference trajectories for walking: ZMP, hip, swing foot and mass targets.

Given a footstep plan and gait timing this module produces, per control
cycle, the three per-axis references the controller tracks (stance mass,
swing mass, ZMP) together with the hip and swing-foot curves they derive
from.  Within a step the ZMP holds at the support foot during single support
and ramps linearly to the next support during double support; the hip follows
the analytic constant-height pendulum solution between step boundary
positions; the swing foot follows polynomial arcs with zero end velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .dynamics import ThreeMassParams
from .footstep import Footprint, FootstepPlan


@dataclass(frozen=True)
class GaitTiming:
    """Phase durations and swing apex height.

    The default 70/30 single/double split leaves enough double-support time
    per step to re-center the masses under heavy measurement noise.
    """

    t_single: float = 0.7
    t_double: float = 0.3
    swing_height: float = 0.05

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.t_single <= 0.0 or self.t_double < 0.0:
            raise ValueError("need t_single > 0 and t_double >= 0")
        if self.swing_height <= 0.0:
            raise ValueError("swing_height must be positive")

    @property
    def step_period(self) -> float:
        return self.t_single + self.t_double

    def cycles(self, ts: float) -> tuple[int, int]:
        """Phase durations in control cycles; durations must be multiples of ts."""
        out = []
        for name, dur in (("t_single", self.t_single), ("t_double", self.t_double)):
            n = round(dur / ts)
            if abs(n * ts - dur) > 1e-9:
                raise ValueError(f"{name} must be an integer multiple of the sample time")
            out.append(n)
        return out[0], out[1]


def _xy(point) -> np.ndarray:
    if hasattr(point, "xy"):
        return point.xy()
    return np.asarray(point, dtype=float)


def zmp_reference(plan: FootstepPlan, timing: GaitTiming, t: float) -> np.ndarray:
    """ZMP reference at time ``t`` from the start of the first step.

    Holds at the step's support foot for the single-support window, then
    ramps linearly toward the next support anchor over double support.  The
    final step ramps to the midpoint of the terminal stance so the walk ends
    in balanced standing.
    """
    n_steps = plan.n_steps
    period = timing.step_period
    total = n_steps * period
    if not 0.0 <= t <= total + 1e-12:
        raise ValueError(f"time {t} outside the plan duration [0, {total}]")
    i = min(int(t / period), n_steps - 1)
    t_local = t - i * period
    anchor = _xy(plan.support(i))
    if t_local < timing.t_single or timing.t_double == 0.0:
        return anchor
    fps = plan.footprints
    target = fps[i + 2].xy() if i < n_steps - 1 else 0.5 * (fps[-2].xy() + fps[-1].xy())
    frac = min((t_local - timing.t_single) / timing.t_double, 1.0)
    return anchor + (target - anchor) * frac


def hip_reference(p_st, p_h0, p_hf, t0: float, tf: float, t: float, omega: float):
    """Constant-height pendulum solution between step boundary positions.

    Evaluates the hyperbolic-sine interpolation anchored at the support point
    ``p_st`` with boundary values ``p_h0`` at ``t0`` and ``p_hf`` at ``tf``.
    """
    if tf == t0:
        raise ValueError("degenerate step interval")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if not min(t0, tf) <= t <= max(t0, tf):
        raise ValueError(f"time {t} outside step interval [{t0}, {tf}]")
    p_st = np.asarray(p_st, dtype=float)
    p_h0 = np.asarray(p_h0, dtype=float)
    p_hf = np.asarray(p_hf, dtype=float)
    num = (p_st - p_hf) * math.sinh((t - t0) * omega) + (p_h0 - p_st) * math.sinh((t - tf) * omega)
    return p_st + num / math.sinh((t0 - tf) * omega)


def swing_reference(f_prev, f_next, timing: GaitTiming, t: float) -> np.ndarray:
    """Swing-foot position (x, y, z) at time ``t`` into the step.

    The horizontal components travel from ``f_prev`` to ``f_next`` along a
    polynomial arc with zero end velocity (repeated end control points); the
    height is a symmetric quartic peaking at ``swing_height`` mid-swing.  The
    foot rests on ``f_next`` through double support.
    """
    if not 0.0 <= t <= timing.step_period + 1e-12:
        raise ValueError(f"time {t} outside the step window")
    p0 = _xy(f_prev)
    p1 = _xy(f_next)
    if t >= timing.t_single:
        return np.array([p1[0], p1[1], 0.0])
    tau = t / timing.t_single
    blend = tau * tau * (3.0 - 2.0 * tau)
    xy = p0 + (p1 - p0) * blend
    z = 16.0 * timing.swing_height * tau * tau * (1.0 - tau) * (1.0 - tau)
    return np.array([xy[0], xy[1], z])


def mass_references(zmp_ref, hip_ref, swing_ref):
    """Targets for the three model masses from the planned curves.

    The stance-leg mass sits midway between ZMP and hip, the swing-leg mass
    midway between swing foot and hip; the torso target is the hip itself.
    """
    zmp_ref = np.asarray(zmp_ref, dtype=float)
    hip_ref = np.asarray(hip_ref, dtype=float)
    swing_xy = np.asarray(swing_ref, dtype=float)[:2]
    r_st = 0.5 * (zmp_ref + hip_ref)
    r_sw = 0.5 * (swing_xy + hip_ref)
    return r_st, hip_ref.copy(), r_sw


def contact_feet(plan: FootstepPlan, key: tuple[str, int]) -> tuple[Footprint, ...]:
    """Footprints of ``plan`` on the ground in the timeline phase ``key``."""
    name, idx = key
    if name == "single":
        return (plan.support(idx),)
    if name == "double":
        return (plan.support(idx), plan.swing_to(idx))
    return plan.footprints[:2] if name == "initialize" or idx < 0 else plan.footprints[-2:]


@dataclass(frozen=True)
class RefSample:
    """All reference signals at one control cycle (world frame, read-only)."""

    zmp: np.ndarray          # (2,)
    hip: np.ndarray          # (2,)
    swing: np.ndarray        # (3,) swing-foot position incl. height
    stance_mass: np.ndarray  # (2,)
    swing_mass: np.ndarray   # (2,)


@lru_cache(maxsize=8)
def _step_weights(timing: GaitTiming, ts: float, omega: float):
    """Per-sample weights of one step, t = j * ts into the step, as read-only
    columns: landed (bool), the double-support ramp fraction, the two
    ``hip_reference`` sinh terms, the swing blend and the swing lift.  They
    are computed once per process for each equal (timing, ts, omega)."""
    t = [j * ts for j in range(sum(timing.cycles(ts)))]
    landed = [t_j >= timing.t_single for t_j in t]
    frac = [min((t_j - timing.t_single) / timing.t_double, 1.0) if done and timing.t_double
            else 0.0 for t_j, done in zip(t, landed)]
    s_from = [math.sinh((t_j - 0.0) * omega) for t_j in t]
    s_to = [math.sinh((t_j - timing.step_period) * omega) for t_j in t]
    tau = [0.0 if done else t_j / timing.t_single for t_j, done in zip(t, landed)]
    blend = [a * a * (3.0 - 2.0 * a) for a in tau]
    lift = [16.0 * timing.swing_height * a * a * (1.0 - a) * (1.0 - a) for a in tau]
    columns = tuple(np.array(w) for w in (landed, frac, s_from, s_to, blend, lift))
    for w in columns:
        w.flags.writeable = False
    return columns


class WalkTimeline:
    """Cycle-indexed references for one footstep plan.

    Layout: an optional initialization window (one double-support duration,
    ramping the ZMP from between the feet onto the first support foot),
    followed by the plan's steps, followed by standing on the terminal feet.
    Cycle indices below zero return the initial standing posture, so windows
    that start before the walk are well defined.

    Every cycle from -1 to ``total_cycles`` is evaluated once, at
    construction, into read-only tables of references and phase ids, and each
    phase's contact feet into one tuple of plan footprints, ``feet[key]``.  A
    step's curves are its endpoints times per-sample weights, evaluated in
    the scalar arithmetic of the free functions, which they match exactly,
    once per process for each equal (timing, ts, omega) (``_step_weights``).
    """

    def __init__(self, plan: FootstepPlan, timing: GaitTiming, params: ThreeMassParams,
                 ts: float, include_initialize: bool = True):
        self.plan = plan
        self.timing = timing
        self.params = params
        self.ts = ts
        self.n_single, self.n_double = timing.cycles(ts)
        self.n_step = self.n_single + self.n_double
        if self.n_step == 0:
            raise ValueError("step period must span at least one cycle")
        self.n_init = self.n_double if include_initialize else 0
        self.total_cycles = self.n_init + plan.n_steps * self.n_step
        n = plan.n_steps
        # ``keys`` holds the distinct phases in time order and row c + 1 of
        # ``_ids`` the index of cycle c's phase, so a window's ids are one
        # contiguous range.
        init = [("initialize", -1)] if self.n_init else []
        names = ["single", "double"] if self.n_double else ["single"]
        self.keys = (("stand", -1), *init, *((m, i) for i in range(n) for m in names), ("stand", n))
        self.feet = {key: contact_feet(plan, key) for key in self.keys}
        in_double = np.arange(self.n_step) >= self.n_single
        steps = 1 + len(init) + np.arange(n)[:, None] * len(names) + in_double
        self._ids = np.concatenate([[0], np.ones(self.n_init, int), steps.ravel(),
                                    [len(self.keys) - 1]])
        self._ids.flags.writeable = False
        # Row c + 1 holds cycle c: zmp, stance mass, swing mass, hip (xy
        # pairs), then the swing foot (x, y, z).
        zmp, hip, swing = self._curves()
        self._table = np.column_stack(
            [zmp, 0.5 * (zmp + hip), 0.5 * (swing[:, :2] + hip), hip, swing])
        self._table.flags.writeable = False

    def phase(self, cycle: int) -> tuple[str, int]:
        """Phase name and step index at a cycle: stand/initialize/single/double."""
        return self.keys[self._ids[min(max(cycle, -1), self.total_cycles) + 1]]

    def phase_ids(self, cycle: int, n: int) -> np.ndarray:
        """``keys`` indices of the ``n`` cycles after ``cycle`` (clamped)."""
        return self._ids[self._rows(cycle, n)]

    def sample(self, cycle: int) -> RefSample:
        """References at one cycle; cycles outside the walk hold the stance."""
        row = self._table[min(max(cycle, -1), self.total_cycles) + 1]
        return RefSample(zmp=row[0:2], stance_mass=row[2:4], swing_mass=row[4:6],
                         hip=row[6:8], swing=row[8:11])

    def window(self, cycle: int, n: int) -> np.ndarray:
        """World-frame (zmp, stance mass, swing mass) xy rows of the ``n``
        cycles after ``cycle``, shape (n, 3, 2), clamped like ``sample``."""
        return self._table[self._rows(cycle, n), :6].reshape(n, 3, 2)

    def _rows(self, cycle: int, n: int) -> np.ndarray:
        return np.clip(np.arange(cycle + 1, cycle + 1 + n), -1, self.total_cycles) + 1

    def _curves(self):
        """ZMP, hip (rows, 2) and swing foot (rows, 3) of every table row."""
        timing, omega = self.timing, self.params.omega
        n = self.plan.n_steps
        xy = np.array([fp.xy() for fp in self.plan.footprints])
        mid0 = 0.5 * (xy[0] + xy[1])
        mid_final = 0.5 * (xy[-2] + xy[-1])

        def col(w):
            return w[None, :, None]

        landed, frac, s_from, s_to, blend, lift = _step_weights(timing, self.ts, omega)
        ramp = col(landed) & (timing.t_double != 0.0)
        s_span = math.sinh((0.0 - timing.step_period) * omega)

        # Per-step endpoints, shape (steps, 1, 2).
        sup = xy[1:n + 1, None]
        target = np.concatenate([xy[2:n + 1], mid_final[None]])[:n, None]
        h0 = 0.5 * (xy[:n] + xy[1:n + 1])[:, None]
        hf = 0.5 * (xy[1:n + 1] + xy[2:n + 2])[:, None]
        src, dst = xy[:n, None], xy[2:n + 2, None]

        shape = (n * self.n_step, 2)
        step_zmp = np.where(ramp, sup + (target - sup) * col(frac), sup).reshape(shape)
        num = (sup - hf) * col(s_from) + (h0 - sup) * col(s_to)
        step_hip = (sup + num / s_span).reshape(shape)
        step_xy = np.where(col(landed), dst, src + (dst - src) * col(blend)).reshape(shape)

        # Cycle -1 and the initialize window stand on the initial feet.
        pre = self.n_init + 1
        init_zmp = mid0 + (xy[1] - mid0) * (np.arange(self.n_init)[:, None] / max(self.n_init, 1))
        zmp = np.vstack([mid0, init_zmp, step_zmp, mid_final])
        hip = np.vstack([np.tile(mid0, (pre, 1)), step_hip, mid_final])
        swing = np.vstack([np.tile([*xy[0], 0.0], (pre, 1)),
                           np.column_stack([step_xy, np.tile(lift, n)]), [*xy[-1], 0.0]])
        return zmp, hip, swing
