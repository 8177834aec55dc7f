"""Scenario runner: closed-loop simulation with measurement noise, impulse
disturbances, fall detection and trace export.

A ``Simulation`` couples the walking engine with the three-mass plant: per
``step()`` the plant outputs are measured (optionally with truncated-Gaussian
noise, seeded by the scenario), the engine produces jerk commands,
disturbances enter as extra acceleration on a target mass, and the cycle is
recorded.  Only a fall is checked online (the true ZMP outside the unscaled
support polygon for more than ``n_fall`` consecutive cycles); ``run`` scores
the metrics afterwards from the recorded cycles, against the true plant state.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from itertools import groupby
from pathlib import Path

import numpy as np

from .dynamics import ThreeMassParams, step_plant
from .engine import CycleDiagnostics, WalkEngine, _rot
from .footstep import (
    Footprint,
    FootstepPlan,
    _is_int,
    footsteps_from_path,
    initial_feet_on_path,
    load_map,
    plan_footsteps,
)
from .mpc import ControllerFault, MpcConfig, ObserverConfig
from .qp import STATUS_OPTIMAL
from .refgen import GaitTiming


_AXES = ("x", "y")   # ``Disturbance.axis`` names, in row order of (2, ...) arrays


class BracketError(ValueError):
    """The bisection bracket does not straddle the survive/fall boundary."""


@dataclass(frozen=True)
class NoiseSpec:
    enabled: bool = False
    bound: float = 0.05
    seed: int = 0


@dataclass(frozen=True)
class Disturbance:
    """Impulse force on one model mass along one axis."""

    t_start: float
    duration: float
    force: float
    mass_index: int = 1     # torso by default
    axis: str = "x"


@dataclass(frozen=True)
class Scenario:
    """One scripted experiment, checked when it is built: the constructor,
    ``dataclasses.replace`` and ``from_json`` raise a ``ValueError`` that
    names the first bad value.  Its JSON form is its fields, ``map_source``
    written as ``"map"`` and None fields left out."""

    name: str = "scenario"
    mode: str = "path"                  # "path" | "setpoints"
    duration: float = 8.0
    params: ThreeMassParams = field(default_factory=ThreeMassParams.nominal)
    config: MpcConfig = field(default_factory=MpcConfig)
    timing: GaitTiming = field(default_factory=GaitTiming)
    observer: ObserverConfig = field(default_factory=ObserverConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    disturbances: tuple[Disturbance, ...] = ()
    n_fall: int = 25
    # Plan sources (path mode): an occupancy map (inline dict or file path)
    # with start/goal, or explicit waypoints; ``max_steps`` truncates the plan.
    map_source: dict | str | None = None
    path_points: tuple[tuple[float, float], ...] | None = None
    max_steps: int | None = None
    # Setpoint schedule (setpoints mode): entries (t, x, y, alpha_deg).
    schedule: tuple[tuple[float, float, float, float], ...] = ((0.0, 0.0, 0.0, 0.0),)

    def __post_init__(self) -> None:
        # ``run`` writes the trace files as ``out_dir / name`` plus a suffix.
        if not (isinstance(self.name, str) and self.name not in ("", ".", "..")
                and "/" not in self.name):
            raise ValueError("name must be a non-empty string usable as a file name")
        if self.mode not in ("path", "setpoints"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "path" and self.map_source is None and self.path_points is None:
            raise ValueError("path mode needs map_source or path_points")
        if self.mode == "setpoints" and not self.schedule:
            raise ValueError("setpoints mode needs at least one schedule entry")
        if not (_finite((self.duration,)) and self.duration > 0.0):
            raise ValueError("duration must be finite and positive")
        if self.noise.enabled and not (_finite((self.noise.bound,)) and self.noise.bound > 0.0):
            raise ValueError("noise bound must be finite and positive")
        if not (_is_int(self.n_fall) and self.n_fall >= 0):
            raise ValueError("n_fall must be a nonnegative integer")
        if not (_is_int(self.noise.seed) and self.noise.seed >= 0):
            raise ValueError("noise seed must be a nonnegative integer")
        if self.max_steps is not None and not (_is_int(self.max_steps) and self.max_steps >= 1):
            raise ValueError("max_steps must be a positive integer")
        if not all(len(row) == 4 and _finite(row) for row in self.schedule):
            raise ValueError("schedule entries must be four finite numbers (t, x, y, alpha_deg)")
        if self.path_points is not None and not all(len(p) == 2 and _finite(p)
                                                    for p in self.path_points):
            raise ValueError("path_points must be finite (x, y) pairs")
        for d in self.disturbances:
            if not (_finite((d.t_start, d.duration, d.force)) and d.duration > 0.0):
                raise ValueError("disturbance values must be finite and its duration positive")
            if not (0.0 <= d.t_start and d.t_start + d.duration <= self.duration):
                raise ValueError("disturbance window must lie within the run")
            if not (_is_int(d.mass_index) and d.mass_index in (0, 1, 2) and d.axis in _AXES):
                raise ValueError("disturbance mass_index must be 0, 1 or 2 and axis 'x' or 'y'")

    def build_plan(self) -> FootstepPlan | None:
        if self.mode != "path":
            return None
        if self.map_source is None:
            # Followed only as far as the steps kept.
            pts = np.asarray(self.path_points, dtype=float)
            return footsteps_from_path(pts, initial_feet_on_path(pts), max_steps=self.max_steps)
        grid, start, goal = load_map(self.map_source)
        if start is None or goal is None:
            raise ValueError("map must define start and goal cells")
        plan, _ = plan_footsteps(grid, start, goal)
        return plan if self.max_steps is None else plan.truncated(self.max_steps)

    def to_json(self) -> dict:
        return {_JSON_KEYS.get(key, key): value for key, value in asdict(self).items()
                if value is not None}

    @classmethod
    def from_json(cls, source) -> "Scenario":
        data = json.loads(Path(source).read_text()) if isinstance(source, (str, Path)) else source
        if not isinstance(data, dict):
            raise ValueError("a scenario must be a JSON object")
        names = {_JSON_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ValueError(f"unknown scenario key {unknown[0]!r}")
        kwargs = {}
        for key, value in data.items():
            try:
                kwargs[names[key]] = (_from_section(_SECTIONS[key], key, value)
                                      if key in _SECTIONS else value)
            except TypeError as exc:   # a missing key, or a value of the wrong shape or type
                raise ValueError(f"scenario section {key!r}: {exc}") from None
        return cls(**kwargs)


# The scenario fields whose JSON key is another name.
_JSON_KEYS = {"map_source": "map"}
# How ``Scenario.from_json`` reads a section: a dataclass from an object, or,
# from a list, a tuple of rows, each a dataclass or a tuple.
_SECTIONS = {"params": ThreeMassParams, "config": MpcConfig, "timing": GaitTiming,
             "observer": ObserverConfig, "noise": NoiseSpec, "disturbances": [Disturbance],
             "path_points": [tuple], "schedule": [tuple]}


def _finite(values) -> bool:
    """True when every entry is a finite real number (not a boolean)."""
    return all((_is_int(v) or isinstance(v, float)) and math.isfinite(v) for v in values)


def _from_section(kind, section: str, values):
    """``kind`` built from one JSON section, as ``_SECTIONS`` reads it; the
    lists in an object become tuples."""
    if isinstance(kind, list):
        return tuple(_from_section(kind[0], section, row) for row in values)
    if kind is tuple:
        return tuple(values)
    unknown = sorted(set(values) - {f.name for f in fields(kind) if f.init})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in scenario section {section!r}")
    return kind(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


@dataclass
class Trace:
    """Per-cycle record arrays of one run."""

    t: np.ndarray
    phase: list[str]
    qp_status: list[tuple[str, str]]
    u: np.ndarray            # (n, 2, 3)
    zmp_meas: np.ndarray     # (n, 2)
    zmp_pred: np.ndarray
    zmp_true: np.ndarray
    refs: np.ndarray         # (n, 6): r_z, r_st, r_sw each (x, y)


@dataclass
class RunMetrics:
    completed: bool
    fall_detected: bool
    fall_time: float | None
    zmp_violation_cycles: int
    zmp_max_excursion: float
    scaled_violation_cycles: int
    tracking_rms: dict[str, float]
    n_cycles: int
    fault: str | None
    softened_cycles: int = 0      # axis control steps that softened, both axes summed
    qp_iterations: int = 0        # QP iterations of both axes
    nonoptimal_cycles: int = 0    # axis control steps whose QP status is not optimal
    torso_sway_scores: tuple[float, ...] = ()   # per single-support phase, >0 when
                                                # the torso leans toward the support
    trace: Trace | None = None

    def summary(self) -> dict:
        """Every field but the trace, as JSON-ready values."""
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}
        data.update(tracking_rms=dict(self.tracking_rms),
                    torso_sway_scores=list(self.torso_sway_scores))
        return data


def noise_sample(rng: np.random.Generator, bound: float) -> float:
    """Zero-mean Gaussian (sigma = bound/3) truncated to [-bound, bound]."""
    if bound <= 0.0:
        raise ValueError("noise bound must be positive")
    sigma = bound / 3.0
    while True:
        v = rng.normal(0.0, sigma)
        if abs(v) <= bound:
            return v


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull (monotone chain)."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return np.asarray(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                    (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                    - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0.0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return np.asarray(lower[:-1] + upper[:-1])


def _half_planes(hull: np.ndarray) -> tuple[tuple[float, float, float, float], ...]:
    """(unit outward normal, start vertex) of each non-degenerate edge of a
    counter-clockwise polygon, as Python floats."""
    planes = []
    for a, b in zip(hull, np.roll(hull, -1, axis=0)):
        edge = b - a
        length = float(np.linalg.norm(edge))
        if length >= 1e-15:
            # Outward normal of a CCW polygon points right of the edge.
            normal = np.array([edge[1], -edge[0]]) / length
            planes.append((float(normal[0]), float(normal[1]), float(a[0]), float(a[1])))
    return tuple(planes)


def _violation(point, hull: np.ndarray, planes) -> float:
    if hull.shape[0] < 2:
        return math.inf if hull.shape[0] == 0 else float(np.linalg.norm(point - hull[0]))
    px, py = float(point[0]), float(point[1])
    return max((nx * (px - ax) + ny * (py - ay) for nx, ny, ax, ay in planes),
               default=-math.inf)


def _corners(feet: tuple[Footprint, ...], hl: float, hw: float) -> np.ndarray:
    """World-frame corners of the footprints' (2 hl, 2 hw) rectangles, four rows a foot."""
    local = np.array([[hl, hw], [hl, -hw], [-hl, -hw], [-hl, hw]])
    return np.vstack([local @ _rot(fp.theta).T + (fp.x, fp.y) for fp in feet])


@lru_cache(maxsize=8)
def _support_polygon(feet: tuple[Footprint, ...], half_extents: tuple[float, float],
                     scale: float):
    hull = convex_hull(_corners(feet, half_extents[0] * scale, half_extents[1] * scale))
    hull.setflags(write=False)   # shared by every caller of the cache
    return hull, _half_planes(hull)


def support_excursion(zmp, feet: tuple[Footprint, ...], half_extents: tuple[float, float],
                      scale: float = 1.0) -> float:
    """Distance of the ZMP outside the hull of the footprints' rectangles
    of (half length, half width) ``half_extents`` (<= 0 inside).

    ``scale`` shrinks every rectangle about its own center, matching the
    safety margin the controller enforces.  Each polygon comes from a small
    cache; the timeline shares one feet tuple per phase, so a run builds
    each polygon once per phase.
    """
    return _violation(np.asarray(zmp, dtype=float),
                      *_support_polygon(tuple(feet), half_extents, scale))


def _disturbance_schedule(scenario: Scenario) -> dict[int, np.ndarray]:
    """Per-cycle (axis, mass) extra acceleration, preserving each impulse
    under sampling."""
    ts = scenario.config.ts
    table: dict[int, np.ndarray] = {}
    masses = scenario.params.masses()
    for d in scenario.disturbances:
        n = max(1, math.ceil(d.duration / ts - 1e-9))
        accel = (d.force / masses[d.mass_index]) * (d.duration / (n * ts))
        k0 = int(round(d.t_start / ts))
        row = _AXES.index(d.axis)
        for k in range(k0, k0 + n):
            table.setdefault(k, np.zeros((2, 3)))[row, d.mass_index] += accel
    return table


class Simulation:
    """One closed-loop run of a scenario, which was checked when it was
    built; each ``step()`` runs and records one control cycle, row k of the
    record arrays for cycle k.

    Setpoint entries apply in time order, the earliest at construction; the
    noise seed is the scenario's.  ``plant`` is the true (2, 9) state.  After
    a step, ``measured`` holds the (axis, output) values the engine saw,
    ``outputs`` the true outputs of the stepped plant (the next measurement
    before noise) and ``zmp_true`` their ZMP column.

    ``advance`` steps until a cycle count, a fault or a fall, which ``fault``
    and ``fall_time`` then hold.  ``fork`` copies the simulation, records and
    fall counter included, to continue with another push table.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.n_cycles = n = int(round(scenario.duration / scenario.config.ts))
        self.engine = WalkEngine(scenario.params, scenario.config, scenario.timing,
                                 observer=scenario.observer)
        self._schedule = sorted(scenario.schedule) if scenario.mode == "setpoints" else []
        if self._schedule:
            self.engine.command_setpoints(*self._schedule.pop(0)[1:])
        else:
            self.engine.command_path(scenario.build_plan())
        self.plant = self.engine.standing_states()
        self.outputs = np.matvec(self.engine.model.C, self.plant)
        self._rng = np.random.default_rng(scenario.noise.seed)
        self._kicks = _disturbance_schedule(scenario)
        self._half = (scenario.params.foot_length / 2.0, scenario.params.foot_width / 2.0)
        self.u, self.out = np.empty((n, 2, 3)), np.empty((n, 2, 3))
        self.meas, self.pred, self.torso = (np.empty((n, 2)) for _ in range(3))
        self.refs, self.excursion = np.empty((n, 6)), np.empty(n)
        # Per cycle: softened axes, QP iterations, axes whose status is not optimal.
        self.qp_counts = np.empty((n, 3), dtype=np.int64)
        self.tags = []   # per cycle: phase, QP statuses, support feet, swing target, step index
        self.fault = self.fall_time = None
        self._consecutive = 0

    def step(self) -> CycleDiagnostics:
        """Run and record the next of the ``n_cycles`` cycles: apply due
        setpoints, measure, tick the engine, step the plant, then record the
        cycle and count it toward a fall.  A ``ControllerFault`` from the
        tick propagates, the plant unstepped and nothing recorded."""
        engine, scenario = self.engine, self.scenario
        noise, k = scenario.noise, engine.k
        if k >= self.n_cycles:
            raise IndexError(f"the run has {self.n_cycles} cycles")
        while self._schedule and self._schedule[0][0] <= k * engine.config.ts + 1e-12:
            engine.set_setpoints(*self._schedule.pop(0)[1:])
        self.measured = self.outputs
        if noise.enabled:
            self.measured = self.outputs + [[noise_sample(self._rng, noise.bound)
                                             for _ in range(3)] for _ in range(2)]
        diag = engine.tick(*self.measured)
        self.plant = step_plant(engine.model, self.plant, np.stack([diag.u_x, diag.u_y]),
                                self._kicks.get(k))
        self.outputs = np.matvec(engine.model.C, self.plant)
        self.zmp_true = self.outputs[:, 2]
        self.u[k] = diag.u_x, diag.u_y
        self.out[k], self.meas[k] = self.outputs, self.measured[:, 2]
        self.pred[k], self.torso[k] = diag.zmp_pred, self.plant[:, 3]
        self.refs[k] = np.concatenate([diag.refs.zmp, diag.refs.stance_mass,
                                       diag.refs.swing_mass])
        self.qp_counts[k] = (sum(diag.softened), sum(diag.qp_iterations),
                             sum(status != STATUS_OPTIMAL for status in diag.qp_status))
        self.tags.append((diag.phase.value, diag.qp_status, diag.support_feet,
                          diag.swing_target, diag.step_index))
        self.excursion[k] = support_excursion(self.zmp_true, diag.support_feet, self._half)
        self._consecutive = self._consecutive + 1 if self.excursion[k] > 1e-9 else 0
        if self._consecutive > scenario.n_fall and self.fall_time is None:
            self.fall_time = k * engine.config.ts
        return diag

    def advance(self, stop: int) -> None:
        """Step until ``stop`` cycles are recorded or a fault or fall ends
        the run."""
        while len(self.tags) < stop and self.fault is None and self.fall_time is None:
            try:
                self.step()
            except ControllerFault as exc:
                self.fault = str(exc)

    def fork(self, scenario: Scenario) -> Simulation:
        """Copy that continues with ``scenario``'s pushes and leaves this
        simulation as it is; its cycles equal those of a fresh
        ``Simulation(scenario)`` bit for bit.  ``scenario`` must equal this
        one's, noise seed included, apart from its disturbances, none of
        either before the next cycle."""
        if (any(getattr(scenario, f.name) != getattr(self.scenario, f.name)
                for f in fields(Scenario) if f.name != "disturbances")
                or min(map(_first_push_cycle, (scenario, self.scenario))) < self.engine.k):
            raise ValueError("a fork continues the same scenario, "
                             "with no disturbance before its next cycle")
        twin = copy.copy(self)
        twin.scenario = scenario
        twin.engine = self.engine.fork()
        twin._schedule = list(self._schedule)
        twin._rng = copy.deepcopy(self._rng)
        twin._kicks = _disturbance_schedule(scenario)
        for name in ("u", "out", "meas", "pred", "torso", "refs", "excursion", "qp_counts",
                     "tags"):
            setattr(twin, name, getattr(self, name).copy())
        return twin


def _first_push_cycle(scenario: Scenario) -> int:
    """The cycle of the scenario's earliest disturbance; its cycle count
    when it has none."""
    return min((int(round(d.t_start / scenario.config.ts)) for d in scenario.disturbances),
               default=int(round(scenario.duration / scenario.config.ts)))


def run(scenario: Scenario, out_dir=None, keep_trace: bool = True,
        prefix: Simulation | None = None) -> RunMetrics:
    """Simulate one scenario to its end, first fault or fall; return its metrics.

    Only the fall is checked online; the rest is scored afterwards from the
    recorded cycles.  With ``out_dir`` set, the trace CSV and a JSON summary
    are written there.

    With ``prefix``, a ``Simulation`` of the same scenario but for its
    disturbances, the run continues from a fork of it, after advancing it
    here up to the scenario's earliest disturbance cycle; the metrics still
    cover every cycle from 0 and equal a run's without ``prefix`` bit for bit.
    """
    if prefix is None:
        sim = Simulation(scenario)
    else:
        prefix.advance(_first_push_cycle(scenario))
        sim = prefix.fork(scenario)
    sim.advance(sim.n_cycles)
    u, out, meas, pred, torso = sim.u, sim.out, sim.meas, sim.pred, sim.torso
    refs, excursion, qp_counts, tags = sim.refs, sim.excursion, sim.qp_counts, sim.tags

    # Scoring pass over the recorded cycles.
    n = len(tags)
    rms = {name: float(np.sqrt(np.mean(np.square(np.hypot(
        out[:n, 0, i] - refs[:n, j], out[:n, 1, i] - refs[:n, j + 1]))))) if n else 0.0
        for name, i, j in (("stance", 0, 2), ("swing", 1, 4), ("zmp", 2, 0))}

    def lean(k):
        """Torso offset toward the support foot, from the foot-to-target midpoint."""
        _, _, feet, target, _ = tags[k]
        sup = np.array([feet[0].x, feet[0].y])
        mid = 0.5 * (sup + target)
        lateral = np.array([-math.sin(feet[0].theta), math.cos(feet[0].theta)])
        side = math.copysign(1.0, (sup - mid) @ lateral)
        return ((torso[k] - mid) @ lateral) * side

    def single_support_step(k):
        _, _, _, target, step = tags[k]
        return None if target is None else step

    # One torso-sway score per single-support phase.
    sway = [float(np.mean([lean(k) for k in ks]))
            for step, ks in groupby(range(n), key=single_support_step) if step is not None]
    zmp, scale = out[:n, :, 2], scenario.params.zmp_safety_scale
    trace = Trace(t=np.arange(n) * scenario.config.ts, phase=[c[0] for c in tags],
                  qp_status=[c[1] for c in tags], u=u[:n], zmp_meas=meas[:n],
                  zmp_pred=pred[:n], zmp_true=zmp, refs=refs[:n]) if keep_trace else None
    metrics = RunMetrics(
        completed=sim.fault is None,
        fall_detected=sim.fall_time is not None,
        fall_time=sim.fall_time,
        zmp_violation_cycles=int(np.count_nonzero(excursion[:n] > 1e-9)),
        zmp_max_excursion=float(excursion[:n].max()) if n else 0.0,
        scaled_violation_cycles=sum(support_excursion(zmp[k], tags[k][2], sim._half, scale)
                                    > 1e-9 for k in range(n)),
        tracking_rms=rms,
        n_cycles=n,
        fault=sim.fault,
        softened_cycles=int(qp_counts[:n, 0].sum()),
        qp_iterations=int(qp_counts[:n, 1].sum()),
        nonoptimal_cycles=int(qp_counts[:n, 2].sum()),
        torso_sway_scores=tuple(sway),
        trace=trace,
    )
    if out_dir is not None:
        export_traces(metrics, Path(out_dir) / scenario.name)
    return metrics


TRACE_SCHEMA = ("t,phase,qp_status_x,qp_status_y,"
                "u1_x,u2_x,u3_x,u1_y,u2_y,u3_y,"
                "zmp_meas_x,zmp_meas_y,zmp_pred_x,zmp_pred_y,zmp_true_x,zmp_true_y,"
                "r_z_x,r_z_y,r_st_x,r_st_y,r_sw_x,r_sw_y")


def export_traces(metrics: RunMetrics, path_prefix) -> tuple[Path, Path]:
    """Write the per-cycle CSV and the JSON summary to ``path_prefix`` with
    ``.csv`` and ``.json`` appended; returns both paths."""
    prefix = Path(path_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = Path(f"{prefix}.csv"), Path(f"{prefix}.json")
    lines = ["# triwalk-trace v1", TRACE_SCHEMA]
    tr = metrics.trace
    if tr is not None:
        for i in range(tr.t.shape[0]):
            row = [f"{tr.t[i]:.6f}", tr.phase[i], tr.qp_status[i][0], tr.qp_status[i][1]]
            row += [repr(v) for v in tr.u[i].ravel()]
            row += [repr(v) for v in tr.zmp_meas[i]]
            row += [repr(v) for v in tr.zmp_pred[i]]
            row += [repr(v) for v in tr.zmp_true[i]]
            row += [repr(v) for v in tr.refs[i]]
            lines.append(",".join(row))
    csv_path.write_text("\n".join(lines) + "\n")
    json_path.write_text(json.dumps(metrics.summary(), indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def with_impulse(scenario: Scenario, force: float) -> Scenario:
    """Copy of the scenario with the first disturbance set to ``force``."""
    if not scenario.disturbances:
        raise ValueError("scenario template has no disturbance to scale")
    first = replace(scenario.disturbances[0], force=force)
    return replace(scenario, disturbances=(first,) + scenario.disturbances[1:])


def max_withstand(scenario: Scenario, direction, bracket=(100.0, 1000.0),
                  tol: float = 5.0) -> float:
    """Largest impulse amplitude the closed loop survives, by bisection.

    ``direction`` is "fwd"/"bwd" or +1/-1 and signs the applied force.  The
    bracket low end must survive and the high end must fall; the search
    stops once the bracket is at most ``tol`` (finite and positive) wide.
    Each probe is one ``run`` of ``with_impulse(scenario, force)``, forked
    from one prefix that the first probe's run advances to the earliest
    disturbance cycle, so the cycles before the push are simulated once.
    """
    sign = {"fwd": 1.0, "bwd": -1.0, 1: 1.0, -1: -1.0, 1.0: 1.0, -1.0: -1.0}.get(direction)
    if sign is None:
        raise ValueError(f"unknown direction {direction!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise BracketError("bracket must satisfy 0 < low < high")
    if not (math.isfinite(tol) and tol > 0.0):
        raise BracketError(f"tol must be finite and positive, not {tol!r}")
    prefix = Simulation(with_impulse(scenario, sign * lo))

    def survives(amplitude: float) -> bool:
        m = run(with_impulse(scenario, sign * amplitude), keep_trace=False, prefix=prefix)
        return m.completed and not m.fall_detected

    if not survives(lo):
        raise BracketError(f"low bracket {lo} N already causes a fall")
    if survives(hi):
        raise BracketError(f"high bracket {hi} N does not cause a fall")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if survives(mid):
            lo = mid
        else:
            hi = mid
    return sign * lo


# --------------------------------------------------------------- factories

def straight_path_points(length: float = 1.2, spacing: float = 0.1):
    xs = np.arange(0.0, length + spacing / 2.0, spacing)
    return tuple((float(x), 0.0) for x in xs)


def tracking_scenario(n_steps: int = 5, noise: bool = False, seed: int = 0,
                      duration: float | None = None) -> Scenario:
    """Straight walk over the first steps of a planned path."""
    timing = GaitTiming()
    if duration is None:
        duration = 0.2 + n_steps * timing.step_period + 1.5
    return Scenario(
        name=f"tracking-{n_steps}step" + ("-noise" if noise else ""),
        mode="path",
        duration=duration,
        path_points=straight_path_points(),
        max_steps=n_steps,
        noise=NoiseSpec(enabled=noise, seed=seed),
        timing=timing,
    )


def inplace_scenario(duration: float = 6.0, noise: bool = True, seed: int = 0,
                     disturbances: tuple[Disturbance, ...] = ()) -> Scenario:
    """Walking in place under setpoint control (disturbance test base)."""
    return Scenario(
        name="walk-in-place",
        mode="setpoints",
        duration=duration,
        noise=NoiseSpec(enabled=noise, seed=seed),
        disturbances=disturbances,
        schedule=((0.0, 0.0, 0.0, 0.0),),
    )


def disturbance_scenario(force: float, t_start: float = 1.6, duration_s: float = 0.01,
                         seed: int = 0, run_time: float | None = None) -> Scenario:
    """Impulse on the torso while walking the tracking scenario, with noise."""
    scenario = tracking_scenario(noise=True, seed=seed, duration=run_time)
    return replace(scenario, name=f"impulse-{int(force)}N",
                   disturbances=(Disturbance(t_start=t_start, duration=duration_s,
                                             force=force),))


def omnidirectional_scenario(duration: float = 56.0) -> Scenario:
    """Setpoint schedule: walk in place, forward, diagonal, diagonal + turn."""
    return Scenario(
        name="omnidirectional",
        mode="setpoints",
        duration=duration,
        schedule=(
            (0.0, 0.0, 0.0, 0.0),
            (8.0, 0.1, 0.0, 0.0),
            (24.0, 0.1, 0.025, 0.0),
            (42.0, 0.1, 0.025, 10.0),
        ),
    )
