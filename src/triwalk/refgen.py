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


@lru_cache(maxsize=32)
def _layout(n_steps: int, n_init: int, n_single: int, n_double: int):
    """A timeline's distinct phases in time order, ``keys``, and the read-only
    ``keys`` index of every table row, computed once per process for each
    layout.  Row c + 1 holds cycle c's, so a window's ids are one contiguous
    range."""
    init = [("initialize", -1)] if n_init else []
    names = ["single", "double"] if n_double else ["single"]
    keys = (("stand", -1), *init, *((m, i) for i in range(n_steps) for m in names),
            ("stand", n_steps))
    in_double = np.arange(n_single + n_double) >= n_single
    steps = 1 + len(init) + np.arange(n_steps)[:, None] * len(names) + in_double
    ids = np.concatenate([[0], np.ones(n_init, int), steps.ravel(), [len(keys) - 1]])
    ids.flags.writeable = False
    return keys, ids


@lru_cache(maxsize=32)
def _clamped_rows(first: int, n: int, total_cycles: int) -> np.ndarray:
    """Read-only table rows of cycles ``first .. first + n - 1``, clamped to
    -1 .. ``total_cycles``; computed once per process for each window, so
    the engine's per-timeline windows, which recur, take one index each."""
    rows = np.clip(np.arange(first, first + n), -1, total_cycles) + 1
    rows.flags.writeable = False
    return rows


class WalkTimeline:
    """Cycle-indexed references for one footstep plan.

    Layout: an optional initialization window (one double-support duration,
    ramping the ZMP from between the feet onto the first support foot),
    followed by the plan's steps, followed by standing on the terminal feet.
    Cycle indices below zero return the initial standing posture, so windows
    that start before the walk are well defined.

    Every cycle from -1 to ``total_cycles`` is evaluated once, at
    construction, into a read-only table of references, and each phase's
    contact feet into one tuple of plan footprints, ``feet[key]``; the phase
    keys and each cycle's phase id depend on the layout alone and are shared
    by the timelines of one layout (``_layout``).  A step's curves are its
    endpoints times per-sample weights, evaluated in the scalar arithmetic of
    the free functions, which they match exactly, once per process for each
    equal (timing, ts, omega) (``_step_weights``).
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
        self.keys, self._ids = _layout(plan.n_steps, self.n_init, self.n_single, self.n_double)
        self.feet = {key: contact_feet(plan, key) for key in self.keys}
        self._table = self._build_table()
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
        return _clamped_rows(cycle + 1, n, self.total_cycles)

    def _build_table(self) -> np.ndarray:
        """The (rows, 11) table, row c + 1 for cycle c: zmp, stance mass,
        swing mass, hip (xy pairs), then the swing foot (x, y, z).

        It is filled as its transpose, one buffer of 11 columns each running
        along the cycles, so every array operation below works on whole
        curves rather than on pairs; one copy returns it row by row."""
        timing, omega = self.timing, self.params.omega
        n, fps = self.plan.n_steps, self.plan.footprints
        xy = np.array([[fp.x for fp in fps], [fp.y for fp in fps]])
        mids = 0.5 * (xy[:, :-1] + xy[:, 1:])   # between consecutive footprints
        mid0, mid_final = mids[:, :1], mids[:, -1:]

        # Per-sample weights broadcast along the last axis of the per-step
        # endpoints, shape (xy, steps, 1).  The last step ramps the ZMP to
        # the terminal midpoint.
        landed, frac, s_from, s_to, blend, lift = _step_weights(timing, self.ts, omega)
        ramp = landed & (timing.t_double != 0.0)
        s_span = math.sinh((0.0 - timing.step_period) * omega)
        sup = xy[:, 1:n + 1, None]
        target = np.concatenate([xy[:, 2:n + 1], mid_final], axis=1)[..., None]
        h0, hf = mids[:, :n, None], mids[:, 1:n + 1, None]
        src, dst = xy[:, :n, None], xy[:, 2:n + 2, None]

        # Cycle -1 and the initialize window stand on the initial feet; the
        # last row stands on the terminal ones.
        pre = self.n_init + 1
        cols = np.empty((11, pre + n * self.n_step + 1))
        cols[0:2, :1] = cols[6:8, :pre] = mid0
        if self.n_init:
            cols[0:2, 1:pre] = mid0 + (xy[:, 1:2] - mid0) * (np.arange(self.n_init)
                                                             / self.n_init)
        cols[8:10, :pre] = xy[:, :1]
        cols[0:2, -1:] = cols[6:8, -1:] = mid_final
        cols[8:10, -1:] = xy[:, -1:]
        cols[10, :pre] = cols[10, -1] = 0.0
        # A view of the steps' columns, (column, steps, cycles).
        steps = cols[:, pre:-1].reshape(11, n, self.n_step)
        steps[0:2] = np.where(ramp, sup + (target - sup) * frac, sup)
        np.add(sup, ((sup - hf) * s_from + (h0 - sup) * s_to) / s_span, out=steps[6:8])
        steps[8:10] = np.where(landed, dst, src + (dst - src) * blend)
        steps[10] = lift
        # The stance and swing masses sit midway between the hip and the
        # ZMP or the swing foot.
        for mass, of in ((2, 0), (4, 8)):
            np.add(cols[of:of + 2], cols[6:8], out=cols[mass:mass + 2])
            cols[mass:mass + 2] *= 0.5
        return np.ascontiguousarray(cols.T)
