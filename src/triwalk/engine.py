"""Walking engine: wires planner output, reference sampling and the
two-axis controller into a closed loop.

The engine advances one control cycle per ``tick``: it filters operator
setpoints, runs the state observer on the measured outputs (with a gated
push-recovery gain), windows the reference trajectories over the prediction
horizon, schedules the output bounds of the upcoming support phases sample by
sample over the constraint window, and returns the jerk commands for both
axes.

The ``WalkTimeline`` the engine holds is its only clock and its only record
of the feet on the ground: each cycle's phase, step index, footstep plan and
contact feet are read from it, and the engine acts only at the cycle
boundaries where the timeline's phase key changes (rotating the frame or
rolling the next setpoint step) or, standing, holds (starting a queued walk).
A finished walk keeps its timeline, which past its end stands on the plan's
last two footprints.

Turning support: the controller treats its two axes as decoupled, so the
engine keeps a working frame aligned with the current support heading.  At
step boundaries the frame rotates with the gait and the stateful quantities
(the (2, 9) estimates, the (2, 3) previous inputs) are re-projected, one
matrix product each; straight walking leaves the frame at the world axes and
every re-projection is the identity.

Setpoint walking rolls its plan at each step boundary: the two feet on the
ground, one committed landing and ``ceil((n_pred + n_double) / n_step)``
provisional ones (two at the defaults).  A plan's last step ramps the ZMP to
its closing stance from its first double-support cycle on (the ramp's weight
there is zero only up to the rounding of ``j * ts``), and the last horizon
before the next roll ends ``n_step - 1 + n_pred`` cycles into the plan's
first step.  That count is the fewest landings that keep the ramp out of
every horizon; a landing more would change no tick.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dynamics import (
    N_OUTPUTS,
    N_STATES,
    StateSpace,
    ThreeMassParams,
    build_continuous,
    discretize,
)
from .footstep import DEFAULT_SIGMA_MAX, DEFAULT_STEP_WIDTH, Footprint, FootstepPlan, wrap_angle
from .mpc import (
    AxisController,
    ControllerFault,
    MpcConfig,
    Observer,
    ObserverConfig,
    PushGate,
    build_constraints,
)
from .refgen import GaitTiming, RefSample, WalkTimeline

# First-order lag (s) of the operator setpoint filter.
_LAG_TAU = 0.5
# Standing feet of a new engine, ordered as a finished walk's last two
# footprints: the terminal one, here the right foot, swings first.
_HOME = (Footprint(0.0, DEFAULT_STEP_WIDTH / 2.0, 0.0, "L"),
         Footprint(0.0, -DEFAULT_STEP_WIDTH / 2.0, 0.0, "R"))


class WalkPhase(Enum):
    IDLE = "idle"
    INITIALIZE = "initialize"
    SINGLE_SUPPORT = "single_support"
    DOUBLE_SUPPORT = "double_support"


_PHASE_OF = {"stand": WalkPhase.IDLE, "initialize": WalkPhase.INITIALIZE,
             "single": WalkPhase.SINGLE_SUPPORT, "double": WalkPhase.DOUBLE_SUPPORT}


@dataclass(frozen=True)
class Setpoints:
    """Omnidirectional walk command plus its low-pass-filtered state."""

    x: float = 0.0           # step length (m)
    y: float = 0.0           # step width offset (m)
    alpha_deg: float = 0.0   # turning rate (deg/s)
    filtered_x: float = 0.0
    filtered_y: float = 0.0
    filtered_alpha_deg: float = 0.0


def filter_setpoints(sp: Setpoints, ts: float, lag_tau: float) -> Setpoints:
    """One first-order lag update of the filtered setpoints."""
    if lag_tau <= 0.0:
        raise ValueError("lag_tau must be positive")
    a = ts / lag_tau
    return replace(
        sp,
        filtered_x=sp.filtered_x + a * (sp.x - sp.filtered_x),
        filtered_y=sp.filtered_y + a * (sp.y - sp.filtered_y),
        filtered_alpha_deg=sp.filtered_alpha_deg + a * (sp.alpha_deg - sp.filtered_alpha_deg),
    )


@dataclass
class CycleDiagnostics:
    """Per-cycle record emitted by ``tick`` (world frame throughout)."""

    k: int
    t: float
    phase: WalkPhase
    u_x: np.ndarray
    u_y: np.ndarray
    qp_status: tuple[str, str]
    softened: tuple[bool, bool]
    qp_iterations: tuple[int, int]
    zmp_pred: np.ndarray
    refs: RefSample
    support_feet: tuple[Footprint, ...]   # the plan's, one shared tuple per phase
    clamped_step: bool = False
    step_index: int = -1
    swing_target: np.ndarray | None = None   # landing position during single support


# Reference window columns (zmp, stance mass, swing mass) in stacked output
# order (stance, swing, zmp).
_STACKED = np.array([1, 2, 0])


def _rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _inscribed_extents(half_length: float, half_width: float, rel_angle: float):
    """Axis-aligned box guaranteed to fit inside a rectangle rotated by
    ``rel_angle``; exact at zero angle, conservative otherwise."""
    c, s = abs(math.cos(rel_angle)), abs(math.sin(rel_angle))
    return half_length * c - half_width * s, half_width * c - half_length * s


class WalkEngine:
    """Closed-loop walking driven by its timeline; advance with ``tick`` once
    per cycle."""

    def __init__(self, params: ThreeMassParams, config: MpcConfig, timing: GaitTiming,
                 observer: ObserverConfig | None = None):
        n_single, n_double = timing.cycles(config.ts)
        if n_double < 1:
            raise ValueError("double-support duration must span at least one cycle")
        self.params = params
        self.config = config
        self.timing = timing

        self.model: StateSpace = discretize(build_continuous(params), config.ts)
        self.controller = AxisController(self.model, config)
        self.observer = Observer(self.model, observer or ObserverConfig())

        # Provisional landings of a rolled plan; see the module docstring.
        self._provisional = -(-(config.n_pred + n_double) // (n_single + n_double))
        self.k = 0
        self.frame_angle = 0.0
        # World -> frame and back; see ``_update_frame``.
        self._R_wf, self._R_fw = _rot(-self.frame_angle), _rot(self.frame_angle)
        self.setpoints = Setpoints()
        self._queued: FootstepPlan | None = None   # walked from the next stand
        self._rolling = False   # setpoints drive the walk
        self._clamped_step = False
        self._followed: WalkTimeline | None = None   # see ``_timeline``
        self._refs = None

        self.gates = (PushGate(), PushGate())
        self.reset_posture()

    # ------------------------------------------------------------------ setup

    def standing_states(self) -> np.ndarray:
        """Static standing posture on the followed plan's last two
        footprints, or the home stance before any timeline: the (2, 9)
        world-frame states, row i for axis i.

        Leg masses sit on their standing references and the torso is placed so
        the static ZMP falls exactly on the feet midpoint, making the posture
        a true equilibrium of the standing references.
        """
        p = self.params
        other, last = _HOME if self._followed is None else self._followed.plan.footprints[-2:]
        mid = 0.5 * (other.xy() + last.xy())
        c3 = 0.5 * (last.xy() + mid)
        c2 = (p.M * mid - p.m1 * mid - p.m3 * c3) / p.m2
        states = np.zeros((2, N_STATES))
        states[:, ::3] = np.transpose((mid, c2, c3))   # the position slots 0, 3 and 6
        return states

    @property
    def phase(self) -> WalkPhase:
        """Phase of the next cycle, as the timeline fixes it."""
        if self._followed is None:
            return WalkPhase.IDLE
        return _PHASE_OF[self._timeline.phase(self._local_cycle(self.k))[0]]

    def fork(self) -> WalkEngine:
        """Copy that ticks on from this engine's state, leaving this engine as
        it is.  The copy owns what a tick writes: the estimates, the push
        gates' windows (``PushGate.__copy__``), the controller's held input
        and warm starts, and the bounds table.  Everything else is copied by
        reference: the model, the controller and observer matrices, the
        timeline (the feet on the ground included), the queued plan, the
        reference table and the sigma arrays in the gates' windows are never
        written.  A ``copy.deepcopy`` ticks on alike, but copies the shared
        parts too."""
        twin = copy.copy(self)
        twin.estimates = self.estimates.copy()
        twin.gates = tuple(map(copy.copy, self.gates))
        # A controller rebinds its held input and warm starts every cycle
        # and writes neither in place, so a shallow copy owns them.
        twin.controller = copy.copy(self.controller)
        if self._refs is not None:
            twin._lohi = self._lohi.copy()
            twin._lohi.flags.writeable = False
        return twin

    def command_path(self, plan: FootstepPlan) -> None:
        """Queue a planned walk from standing; it starts at the end of the
        current cycle, on the plan's initial feet.

        Raises ValueError, leaving the engine untouched, unless the engine is
        idle and the plan has a step.
        """
        if self.phase != WalkPhase.IDLE:
            raise ValueError(f"command_path needs an idle engine, not {self.phase.value}")
        if plan.n_steps < 1:
            raise ValueError("plan must contain at least one step")
        first, second = plan.footprints[0], plan.footprints[1]
        self._queued, self._rolling = plan, False
        self._update_frame(wrap_angle(0.5 * (first.theta + second.theta)))
        # Standing on the plan's initial feet, the first to swing last.
        self._set_timeline(FootstepPlan((second, first), step_distance=None))
        self.reset_posture()

    def command_setpoints(self, x: float = 0.0, y: float = 0.0, alpha_deg: float = 0.0) -> None:
        """Start setpoint-driven walking.  It never stops: zero setpoints walk
        in place, the engine is never idle again and ``command_path`` raises."""
        self.set_setpoints(x, y, alpha_deg)
        self._queued, self._rolling = None, True

    def reset_posture(self) -> None:
        """Re-seed the state estimates with the current standing posture,
        expressed in the working frame."""
        self.estimates = self._R_wf @ self.standing_states()
        self.controller.reset()

    def set_setpoints(self, x: float, y: float, alpha_deg: float) -> None:
        self.setpoints = replace(self.setpoints, x=x, y=y, alpha_deg=alpha_deg)

    # ------------------------------------------------------------- main cycle

    def tick(self, y_meas_x, y_meas_y) -> CycleDiagnostics:
        """Advance one control cycle with the measured outputs of both axes.

        Raises ValueError, leaving the engine untouched, unless each
        measurement is a finite (3,) array.
        """
        try:
            y_meas = np.array((y_meas_x, y_meas_y), dtype=float)
        except ValueError:   # a ragged pair
            y_meas = None
        if np.shape(y_meas) != (2, N_OUTPUTS) or not np.isfinite(y_meas).all():
            raise ValueError("measurements must be finite (3,) arrays")
        self.setpoints = filter_setpoints(self.setpoints, self.config.ts, _LAG_TAU)

        tl = self._timeline   # built here if no command set one
        refs = self._references()   # builds the frame's tables and rotations if stale
        y_pair = self._R_wf @ y_meas   # world -> frame
        local = self._local_cycle(self.k)
        key = (name, idx) = tl.phase(local)
        phase = _PHASE_OF[name]
        ctrl = self.controller
        for i, gate in enumerate(self.gates):
            sigmas = self.observer.innovation_sigmas(self.estimates[i], ctrl.u_prev[i], y_pair[i])
            self.estimates[i] = self.observer.step(self.estimates[i], ctrl.u_prev[i], y_pair[i],
                                                   boosted=gate.update(sigmas))
        try:
            u_frame, infos = ctrl.control_step(self.estimates, refs, *self._bounds())
        except ControllerFault as exc:
            raise ControllerFault(f"cycle {self.k}, phase {phase.value}: {exc}") from exc

        u_pair = self._R_fw @ u_frame
        zmp_pred_world = self._R_fw @ np.array([info.predicted_output[2] for info in infos])

        diag = CycleDiagnostics(
            k=self.k,
            t=self.k * self.config.ts,
            phase=phase,
            u_x=u_pair[0].copy(),
            u_y=u_pair[1].copy(),
            qp_status=tuple(info.status for info in infos),
            softened=tuple(info.softened for info in infos),
            qp_iterations=tuple(info.iterations for info in infos),
            zmp_pred=zmp_pred_world,
            refs=tl.sample(local),
            support_feet=tl.feet[key],
            clamped_step=self._clamped_step,
            step_index=idx if name in ("single", "double") else -1,
            swing_target=tl.plan.swing_to(idx).xy() if name == "single" else None,
        )
        self.k += 1
        self._advance_state_machine(key)
        return diag

    # ------------------------------------------------------- state machine

    def _advance_state_machine(self, prev: tuple[str, int]) -> None:
        """Act on the timeline's phase change at the boundary just crossed
        (``prev`` is the phase of the cycle that ended)."""
        tl = self._followed
        key = tl.phase(self._local_cycle(self.k))
        if key == prev:
            if key[0] == "stand" and (self._queued or self._rolling):
                # The foot that landed last swings first.
                plan = self._queued or self._synthesize_plan(tl.feet[key][::-1])
                self._queued = None
                self._set_timeline(plan, initialize=True, rolled=self._rolling)
            return
        if prev[0] == "double" and self._rolling:
            # The foot that supported the finished step swings next.
            self._set_timeline(self._synthesize_plan(tl.feet[prev]), rolled=True)
            key = self._followed.phase(0)
        if key[0] == "single":
            self._update_frame(self._followed.plan.support(key[1]).theta)

    # --------------------------------------------------- setpoint synthesis

    def plan_next_step(self, support: Footprint, landing_side: str) -> tuple[Footprint, bool]:
        """Next footprint from the filtered setpoints, landing relative to the
        support foot and clamped to the reachable window; the flag says
        whether it was clamped."""
        sp = self.setpoints
        sigma = math.radians(sp.filtered_alpha_deg) * self.timing.step_period
        clamped = abs(sigma) > DEFAULT_SIGMA_MAX
        sigma = max(-DEFAULT_SIGMA_MAX, min(DEFAULT_SIGMA_MAX, sigma))
        heading = support.theta + sigma

        forward = sp.filtered_x
        if abs(forward) > self.config.swing_reach:
            clamped = True
            forward = math.copysign(self.config.swing_reach, forward)
        side_sign = 1.0 if landing_side == "L" else -1.0
        separation = DEFAULT_STEP_WIDTH + side_sign * sp.filtered_y
        lo, hi = self.config.swing_band
        if not lo <= separation <= hi:
            clamped = True
            separation = min(hi, max(lo, separation))
        dx, dy = (_rot(heading) @ np.array([forward, side_sign * separation])).tolist()
        return Footprint(support.x + dx, support.y + dy, heading, landing_side), clamped

    def _synthesize_plan(self, feet: tuple[Footprint, Footprint]) -> FootstepPlan:
        """Rolling plan: the two footprints on the ground, as the followed
        timeline holds them, the first stepping first, plus one committed and
        ``_provisional`` landings computed from the filtered setpoints.  They
        are as many as the horizon previews before the next roll: with one
        fewer, the preview would reach the closing ramp of the plan's last
        step (see the module docstring)."""
        prints = list(feet)
        self._clamped_step = False
        for _ in range(1 + self._provisional):
            landing, clamped = self.plan_next_step(prints[-1], prints[-2].side)
            self._clamped_step = self._clamped_step or clamped
            prints.append(landing)
        return FootstepPlan(tuple(prints), step_distance=None)

    # ------------------------------------------------------------ references

    @property
    def _timeline(self) -> WalkTimeline:
        """The timeline followed: until a command or a tick sets one, a
        standing timeline on the home stance, built on first use.  Code that
        runs only inside ``tick`` reads ``_followed`` directly."""
        if self._followed is None:
            self._set_timeline(FootstepPlan(_HOME, step_distance=None))
        return self._followed

    def _set_timeline(self, plan: FootstepPlan, initialize: bool = False,
                      rolled: bool = False) -> None:
        """Follow ``plan`` from the current cycle on, optionally starting
        with the initialization window; a ``rolled`` setpoint plan is
        followed only until its first step ends."""
        tl = self._followed = WalkTimeline(plan, self.timing, self.params, self.config.ts,
                                           include_initialize=initialize)
        self._timeline_origin = self.k
        # Per timeline and working frame: read-only tables with row r for
        # cycle r, clamped like ``WalkTimeline.window``, up to the last row
        # a tick reads: row ``total_cycles + n_pred``, or for a rolled plan
        # row ``n_init + n_step + n_pred - 1``, the window's end on its
        # first step's last cycle.  ``_refs`` holds the (2, rows, 3)
        # working-frame references in stacked order, ``_lohi`` the (axis,
        # rows, lo/hi, output) bounds and ``_ids`` each row's phase id.
        # ``_window_row`` builds them on first use after the timeline or the
        # frame changes, so a tick reads its windows as slices.
        self._table_rows = self.config.n_pred + (tl.n_init + tl.n_step if rolled
                                                 else tl.total_cycles + 1)
        self._refs = None

    def _local_cycle(self, k: int) -> int:
        return k - self._timeline_origin

    def _window_row(self) -> int:
        """Table row of the next cycle, clamped at the timeline's end."""
        tl = self._followed
        if self._refs is None:
            rows = tl.window(-1, self._table_rows)
            self._refs = np.stack([rows @ R for R in self._R_wf])[..., _STACKED]
            self._lohi = np.empty((2, len(rows), 2, 3))   # unlocked while filled
            self._refs.flags.writeable = self._lohi.flags.writeable = False
            self._ids, self._next_id = tl.phase_ids(-1, len(rows)), 0
        return min(self._local_cycle(self.k), tl.total_cycles) + 1

    def _references(self) -> np.ndarray:
        """Working-frame (2, n_pred, 3) reference windows of the x and y axes."""
        row = self._window_row()
        return self._refs[:, row:row + self.config.n_pred]

    # ------------------------------------------------------------ constraints

    def _bounds(self):
        """Per-sample (lo, hi) output bounds of the next cycle, each (2, window, 3).

        Scheduling the bounds per upcoming phase gives the controller preview
        of support-box changes, so weight transfer starts before a
        single-support box tightens.
        """
        # Windows only move forward and phase ids never decrease, so the
        # phases built form one range ending before ``_next_id``; each new one
        # is built once, for all its rows, when it enters the window.
        row = self._window_row()
        end = row + self.config.constraint_window
        for kid in range(max(self._ids[row], self._next_id), self._ids[end - 1] + 1):
            first, last = np.searchsorted(self._ids, (kid, kid + 1))
            self._lohi.flags.writeable = True
            self._lohi[:, first:last] = self._phase_box(self._followed.keys[kid])[:, None]
            self._lohi.flags.writeable = False
            self._next_id = kid + 1
        return self._lohi[:, row:end, 0], self._lohi[:, row:end, 1]

    def _phase_box(self, key: tuple[str, int]) -> np.ndarray:
        """(axis, lo/hi, output) bounds of the timeline phase ``key`` in the working frame."""
        name, idx = key
        R_wf = self._R_wf
        feet = self._followed.feet[key]
        hl, hw = self.params.foot_length / 2.0, self.params.foot_width / 2.0
        centers = [(R_wf @ fp.xy()).tolist() for fp in feet]
        half = [_inscribed_extents(hl, hw, wrap_angle(fp.theta - self.frame_angle))
                for fp in feet]
        if min(min(h) for h in half) <= 0.0:
            raise ValueError("foot heading too far from the working frame")
        side = None
        if name == "single":   # the side the swing foot lands on
            swing_y = (R_wf @ self._followed.plan.swing_to(idx).xy())[1]
            side = 1.0 if swing_y >= centers[0][1] else -1.0
        return build_constraints(centers, half, self.params, self.config, side)

    # ----------------------------------------------------------------- frame

    def _update_frame(self, new_angle: float) -> None:
        """Turn the working frame to ``new_angle``, re-projecting the state.
        The frame's rotations are kept here, not with the tables, since a
        phase box is also built outside a tick."""
        delta = wrap_angle(new_angle - self.frame_angle)
        if delta == 0.0:
            return
        R = _rot(-delta)
        self.estimates = R @ self.estimates
        self.controller.reset(R @ self.controller.u_prev)
        self.frame_angle = wrap_angle(self.frame_angle + delta)
        self._R_wf, self._R_fw = _rot(-self.frame_angle), _rot(self.frame_angle)
        self._refs = None
