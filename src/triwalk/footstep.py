"""Footstep planning: occupancy-grid body path search plus step sequencing.

Planning runs in two stages.  First an 8-connected A* finds a collision-free
body path over an inflated occupancy grid.  Second, a greedy follower turns
the path into an alternating left/right footstep sequence using a fixed step
distance and a bounded per-step turn.  A foot pose is a ``Footprint`` from
the follower to the engine: the follower steps from the plan's last two
footprints, the swing foot's and the support foot's, and appends the next.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

DEFAULT_CELL_SIZE = 0.1
DEFAULT_STEP_DISTANCE = 0.1
DEFAULT_SIGMA_MAX = math.radians(20.0)
DEFAULT_LOOKAHEAD_CELLS = 3
DEFAULT_STEP_WIDTH = 0.2

_SQRT2 = math.sqrt(2.0)
_NEIGHBORS = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


class PlanningError(RuntimeError):
    """No admissible path or footstep sequence exists for the request."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass(frozen=True)
class GridMap:
    """Boolean occupancy grid.  ``occupancy[r, c]`` is True for blocked cells."""

    width: int
    height: int
    occupancy: np.ndarray
    cell_size: float = DEFAULT_CELL_SIZE
    inflation_scale: float = 1.1

    def __post_init__(self) -> None:
        for key in ("width", "height"):
            object.__setattr__(self, key, _positive_int(getattr(self, key), key))
        if not (math.isfinite(self.cell_size) and self.cell_size > 0.0):
            raise ValueError("cell_size must be finite and positive")
        occ = self.occupancy
        if not (isinstance(occ, np.ndarray) and occ.dtype == bool and occ.ndim == 2):
            raise ValueError("occupancy must be a 2-D boolean array")
        if occ.shape != (self.height, self.width):
            raise ValueError("occupancy shape must be (height, width)")
        if not (math.isfinite(self.inflation_scale) and self.inflation_scale >= 1.0):
            raise ValueError("inflation_scale must be finite and >= 1")

    @classmethod
    def empty(cls, width: int, height: int, cell_size: float = DEFAULT_CELL_SIZE,
              inflation_scale: float = 1.1) -> "GridMap":
        w, h = _positive_int(width, "width"), _positive_int(height, "height")
        return cls(w, h, np.zeros((h, w), dtype=bool), cell_size, inflation_scale)

    def cell_center(self, cell) -> np.ndarray:
        r, c = cell
        return np.array([(c + 0.5) * self.cell_size, (r + 0.5) * self.cell_size])

    def world_to_cell(self, xy) -> tuple[int, int]:
        return int(math.floor(xy[1] / self.cell_size)), int(math.floor(xy[0] / self.cell_size))

    def in_bounds(self, cell) -> bool:
        r, c = cell
        return 0 <= r < self.height and 0 <= c < self.width

    def is_free(self, cell) -> bool:
        return self.in_bounds(cell) and not self.occupancy[cell[0], cell[1]]


def load_map(source) -> tuple[GridMap, tuple[int, int] | None, tuple[int, int] | None]:
    """Load a map from a JSON file path or an already-parsed dict.

    Schema: ``{width, height, cell_size, occupied: [[r, c], ...],
    start: [r, c], goal: [r, c]}`` with start/goal optional.  Width and
    height are positive integers and every cell two integers inside the
    grid; a malformed value raises a ``ValueError`` that names its field, as
    does a top level that is not an object.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError("map must be a JSON object")
    width, height = (_positive_int(data.get(key), key) for key in ("width", "height"))
    occ = np.zeros((height, width), dtype=bool)
    for cell in data.get("occupied", []):
        occ[_grid_cell(cell, "occupied cell", occ.shape)] = True
    grid = GridMap(
        width=width,
        height=height,
        occupancy=occ,
        cell_size=data.get("cell_size", DEFAULT_CELL_SIZE),
        inflation_scale=data.get("inflation_scale", 1.1),
    )
    start, goal = (_grid_cell(data[key], key, occ.shape) if key in data else None
                   for key in ("start", "goal"))
    return grid, start, goal


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _positive_int(v, name: str) -> int:
    """``v`` as a Python int; ``name`` is its field in error messages."""
    if not (_is_int(v) and v > 0):
        raise ValueError(f"{name} must be a positive integer")
    return int(v)


def _two_ints(cell, name: str) -> tuple[int, int]:
    """``cell`` as a (row, col) of Python ints; ``name`` is its field in
    error messages."""
    if not (isinstance(cell, (list, tuple, np.ndarray)) and getattr(cell, "ndim", 1) == 1
            and len(cell) == 2 and all(map(_is_int, cell))):
        raise ValueError(f"{name} {cell!r} must hold two integers")
    return int(cell[0]), int(cell[1])


def _grid_cell(cell, name: str, shape) -> tuple[int, int]:
    """``cell`` as a (row, col) inside a grid of ``shape``; ``name`` is its
    field in error messages."""
    r, c = _two_ints(cell, name)
    if not (0 <= r < shape[0] and 0 <= c < shape[1]):
        raise ValueError(f"{name} {cell!r} lies outside the {shape[0]}x{shape[1]} grid")
    return r, c


def save_map(grid: GridMap, path, start=None, goal=None) -> None:
    data = {
        "width": grid.width,
        "height": grid.height,
        "cell_size": grid.cell_size,
        "inflation_scale": grid.inflation_scale,
        "occupied": [[int(r), int(c)] for r, c in np.argwhere(grid.occupancy)],
    }
    if start is not None:
        data["start"] = [int(start[0]), int(start[1])]
    if goal is not None:
        data["goal"] = [int(goal[0]), int(goal[1])]
    Path(path).write_text(json.dumps(data, indent=2))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def inflate(grid: GridMap) -> GridMap:
    """Grow every connected obstacle so its bounding box scales about its centroid.

    The scaled extent is rounded to whole cells (half up), growth is split as
    evenly as possible between the two sides, and the result is clipped to the
    map.  Components are dilated through their bounding boxes, which is exact
    for rectangular obstacles and conservative otherwise.
    """
    occ = grid.occupancy
    out = occ.copy()
    labels, _ = ndimage.label(occ, structure=np.ones((3, 3)))
    for box in ndimage.find_objects(labels):
        grown = []
        for span, limit in zip(box, occ.shape):
            extent = span.stop - span.start
            total = max(extent, _round_half_up(extent * grid.inflation_scale))
            start = span.start - (total - extent) // 2
            grown.append(slice(max(0, start), min(limit, start + total)))
        out[grown[0], box[1]] = True
        out[box[0], grown[1]] = True
    return replace(grid, occupancy=out)


def plan_path(grid: GridMap, start, goal) -> list[tuple[int, int]]:
    """Minimal-cost 8-connected path from start to goal over free cells.

    Axis moves cost ``cell_size`` and diagonals ``cell_size * sqrt(2)``;
    diagonal moves are allowed only when both adjacent axis cells are free.
    The Euclidean distance to the goal guides the search and ties break on
    (f, h, row-major index), making the result deterministic.  Start and
    goal must be two integers each (else ``ValueError``); a blocked or
    off-grid one raises ``PlanningError``.

    The search runs over the grid flattened with a border of one blocked
    cell, so no neighbour needs a bounds check.  Cell (r, c) has index
    (r + 1) * (width + 2) + c + 1, which orders cells as their row-major
    index does.
    """
    start = _two_ints(start, "start")
    goal = _two_ints(goal, "goal")
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.is_free(cell):
            raise PlanningError(f"{name} cell {cell} is not free")
    cs = grid.cell_size
    padded = np.pad(grid.occupancy, 1, constant_values=True)
    w = padded.shape[1]
    blocked = padded.tobytes()
    # Per neighbour: index offset, the offsets of the two axis cells a
    # diagonal move passes (0, the expanded cell itself, for an axis move),
    # row and column offset, cost.
    moves = tuple((dr * w + dc, dr * w if dc else 0, dc if dr else 0, dr, dc,
                   cs * _SQRT2 if dr and dc else cs) for dr, dc in _NEIGHBORS)
    origin = (start[0] + 1) * w + start[1] + 1
    target = (goal[0] + 1) * w + goal[1] + 1
    g_cost = [math.inf] * len(blocked)
    parent = [0] * len(blocked)
    done = bytearray(blocked)  # blocked or closed
    g_cost[origin] = 0.0
    h0 = cs * math.hypot(start[0] - goal[0], start[1] - goal[1])
    heap = [(h0, h0, origin)]
    pop, push, hypot = heapq.heappop, heapq.heappush, math.hypot
    while heap:
        cell = pop(heap)[2]
        if done[cell]:
            continue
        if cell == target:
            path = [cell]
            while cell != origin:
                cell = parent[cell]
                path.append(cell)
            return [(p // w - 1, p % w - 1) for p in reversed(path)]
        done[cell] = 1
        g = g_cost[cell]
        to_r = cell // w - 1 - goal[0]
        to_c = cell % w - 1 - goal[1]
        for off, side_r, side_c, dr, dc, step in moves:
            nxt = cell + off
            if done[nxt] or blocked[cell + side_r] or blocked[cell + side_c]:
                continue
            cand = g + step
            if cand < g_cost[nxt] - 1e-12:
                g_cost[nxt] = cand
                parent[nxt] = cell
                hn = cs * hypot(to_r + dr, to_c + dc)
                push(heap, (cand + hn, hn, nxt))
    raise PlanningError(
        f"goal {goal} unreachable from {start}: {len(g_cost) - g_cost.count(math.inf)} of "
        f"{blocked.count(0)} free cells reachable")


@dataclass(frozen=True)
class Footprint:
    x: float
    y: float
    theta: float
    side: str              # "L" or "R"
    closing: bool = False  # terminal alignment step, exempt from the fixed length

    def __post_init__(self) -> None:
        if self.side not in ("L", "R"):
            raise ValueError(f"footprint side must be 'L' or 'R', got {self.side!r}")

    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class FootstepPlan:
    """Ordered footprints.  The first two entries are the initial stance
    (first-swing foot's home, then the first support foot); each later entry
    is a new placement.  Step i is supported by ``footprints[i + 1]`` while
    the foot that last stood at ``footprints[i]`` swings to
    ``footprints[i + 2]``.

    ``step_distance`` pins the per-foot displacement of planner output;
    ``None`` skips that check for externally synthesized sequences.
    """

    footprints: tuple[Footprint, ...]
    step_distance: float | None = DEFAULT_STEP_DISTANCE

    def __post_init__(self) -> None:
        fps = self.footprints
        if len(fps) < 2:
            raise ValueError("a plan needs at least the two initial footprints")
        if not all(math.isfinite(v) for f in fps for v in (f.x, f.y, f.theta)):
            raise ValueError("footprint x, y and theta must be finite")
        for a, b in zip(fps, fps[1:]):
            if a.side == b.side:
                raise ValueError("footprint sides must alternate")
        if self.step_distance is None:
            return
        for a, b in zip(fps, fps[2:]):
            if b.closing:
                continue
            moved = math.hypot(b.x - a.x, b.y - a.y)
            if abs(moved - self.step_distance) > 1e-9:
                raise ValueError(
                    f"step displacement {moved!r} differs from {self.step_distance!r}")

    @property
    def n_steps(self) -> int:
        return len(self.footprints) - 2

    def support(self, i: int) -> Footprint:
        return self.footprints[i + 1]

    def swing_to(self, i: int) -> Footprint:
        return self.footprints[i + 2]

    def truncated(self, n_steps: int) -> "FootstepPlan":
        if n_steps >= self.n_steps:
            return self
        return FootstepPlan(self.footprints[:n_steps + 2], self.step_distance)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "FootstepPlan":
        try:
            fps = tuple(Footprint(**f) for f in data["footprints"])
        except TypeError as exc:  # an unknown or missing footprint key
            raise ValueError(f"bad footprint: {exc}") from None
        return cls(fps, data.get("step_distance", DEFAULT_STEP_DISTANCE))


def transition(foot: Footprint, distance: float, angle: float,
               sigma_max: float = DEFAULT_SIGMA_MAX) -> Footprint:
    """One step of ``foot``: its heading turns by ``angle`` and it moves
    ``distance`` along the new heading."""
    if distance <= 0.0:
        raise ValueError("step distance must be positive")
    if abs(angle) > sigma_max + 1e-12:
        raise ValueError(f"step angle {angle:.3f} exceeds limit {sigma_max:.3f}")
    heading = foot.theta + angle
    return Footprint(foot.x + distance * math.cos(heading),
                     foot.y + distance * math.sin(heading), heading, foot.side)


def _check_positive(name: str, value: float, or_zero: bool = False) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is finite and
    positive (or zero, with ``or_zero``)."""
    if not (math.isfinite(value) and (value > 0.0 or or_zero and value == 0.0)):
        bound = ">= 0" if or_zero else "> 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def _waypoints(path_xy) -> np.ndarray:
    """``path_xy`` as an array of (x, y) rows, rejected by name unless it
    holds such rows, all finite."""
    pts = np.atleast_2d(np.asarray(path_xy, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("path_xy must hold (x, y) rows")
    if not np.isfinite(pts).all():
        raise ValueError("path_xy must hold finite waypoints")
    return pts


def footsteps_from_path(path_xy, initial: tuple[Footprint, Footprint],
                        step_distance: float = DEFAULT_STEP_DISTANCE,
                        sigma_max: float = DEFAULT_SIGMA_MAX,
                        lookahead: float = DEFAULT_LOOKAHEAD_CELLS * DEFAULT_CELL_SIZE,
                        grid: GridMap | None = None) -> FootstepPlan:
    """Follow a world-frame waypoint sequence with alternating steps.

    ``initial`` is the stance, first-swing foot then support foot, as
    ``initial_feet_on_path`` returns it.  The plan's last two footprints are
    the follower's state: the second last is the swing foot and the last
    the support foot.  Each step turns the swing heading toward
    the furthest waypoint within the lookahead distance of the feet midpoint
    (clamped to ``sigma_max``) and advances the swing foot by
    ``step_distance``.  Two closing steps set each foot beside the other at
    the stance width, near the final waypoint.  When a grid is supplied every
    placement is checked against it.
    """
    _check_positive("step_distance", step_distance)
    _check_positive("sigma_max", sigma_max, or_zero=True)
    _check_positive("lookahead", lookahead)
    if len(initial) != 2 or initial[0].side == initial[1].side:
        raise ValueError("initial must be one left and one right footprint")
    pts = _waypoints(path_xy)
    if pts.shape[0] == 0:
        raise PlanningError("path is empty")
    xs, ys = pts[:, 0].copy(), pts[:, 1].copy()
    goal_x, goal_y = float(xs[-1]), float(ys[-1])

    def check(f: Footprint) -> Footprint:
        if grid is not None and not grid.is_free(grid.world_to_cell((f.x, f.y))):
            raise PlanningError(f"footprint {f.side} at ({f.x:.2f}, {f.y:.2f}) is in collision")
        return f

    prints = [check(f) for f in initial]
    step_width = float(np.linalg.norm(initial[0].xy() - initial[1].xy()))

    max_total = int(20 * (np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)) / step_distance + 10))
    stop = 0.6 * step_distance
    for _ in range(max_total):
        swing, support = prints[-2], prints[-1]
        mx, my = 0.5 * (swing.x + support.x), 0.5 * (swing.y + support.y)
        # A dot product, as np.linalg.norm takes it: BLAS may fuse its
        # multiply-add, so sqrt(dx*dx + dy*dy) can differ in the last bit.
        to_goal = np.array((goal_x - mx, goal_y - my))
        if math.sqrt(to_goal.dot(to_goal)) <= stop:
            break
        dx, dy = xs - mx, ys - my
        dists = np.sqrt(dx * dx + dy * dy)
        near = (dists <= lookahead).nonzero()[0]
        i = near[-1] if near.size else dists.argmin()
        tx, ty = float(xs[i]), float(ys[i])
        # np.allclose((tx, ty), (mx, my)) per coordinate.
        if abs(tx - mx) <= 1e-8 + 1e-5 * abs(mx) and abs(ty - my) <= 1e-8 + 1e-5 * abs(my):
            tx, ty = goal_x, goal_y
        desired = math.atan2(ty - my, tx - mx)
        sigma = max(-sigma_max, min(sigma_max, wrap_angle(desired - swing.theta)))
        prints.append(check(transition(swing, step_distance, sigma, sigma_max)))
    else:
        raise PlanningError("step budget exhausted before reaching the goal")

    for _ in range(2):
        swing, support = prints[-2], prints[-1]
        # The left normal of the support heading points to where a left foot stands.
        width = step_width if swing.side == "L" else -step_width
        prints.append(check(Footprint(support.x - math.sin(support.theta) * width,
                                      support.y + math.cos(support.theta) * width,
                                      support.theta, swing.side, closing=True)))
    return FootstepPlan(tuple(prints), step_distance)


def initial_feet_on_path(path_xy, step_width: float = DEFAULT_STEP_WIDTH
                         ) -> tuple[Footprint, Footprint]:
    """Stand astride the first waypoint, heading along the path: the right
    foot, which swings first, then the left foot."""
    _check_positive("step_width", step_width)
    pts = _waypoints(path_xy)
    start = pts[0]
    direction = pts[-1] - pts[0]
    for p in pts[1:]:
        if np.linalg.norm(p - start) > 1e-9:
            direction = p - start
            break
    heading = math.atan2(direction[1], direction[0]) if np.linalg.norm(direction) > 1e-12 else 0.0
    lateral = np.array([-math.sin(heading), math.cos(heading)]) * (step_width / 2.0)
    left = start + lateral
    right = start - lateral
    return (Footprint(right[0], right[1], heading, "R"),
            Footprint(left[0], left[1], heading, "L"))


def pad_obstacles(grid: GridMap, margin_cells: int) -> GridMap:
    """Chebyshev dilation of the occupied set by a whole number of cells."""
    if margin_cells <= 0:
        return grid
    side = 2 * margin_cells + 1
    out = ndimage.binary_dilation(grid.occupancy, structure=np.ones((side, side), dtype=bool))
    return replace(grid, occupancy=out)


def plan_footsteps(grid: GridMap, start_cell, goal_cell,
                   step_distance: float = DEFAULT_STEP_DISTANCE,
                   step_width: float = DEFAULT_STEP_WIDTH,
                   sigma_max: float = DEFAULT_SIGMA_MAX) -> tuple[FootstepPlan, list]:
    """Full pipeline: inflate the map, search a body path, place footsteps.

    The body path is searched on a copy of the inflated map padded by half the
    stance width (rounded up to whole cells) so that footprints straddling the
    path stay on free cells of the inflated map.
    """
    _check_positive("step_distance", step_distance)
    _check_positive("step_width", step_width)
    _check_positive("sigma_max", sigma_max, or_zero=True)
    inflated = inflate(grid)
    margin = int(math.ceil((step_width / 2.0 + grid.cell_size / 2.0) / grid.cell_size))
    body_map = pad_obstacles(inflated, margin)
    cells = plan_path(body_map, start_cell, goal_cell)
    pts = [inflated.cell_center(c) for c in cells]
    initial = initial_feet_on_path(pts, step_width)
    plan = footsteps_from_path(
        pts, initial, step_distance, sigma_max,
        lookahead=DEFAULT_LOOKAHEAD_CELLS * grid.cell_size, grid=inflated)
    return plan, cells
