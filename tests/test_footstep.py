import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triwalk
from triwalk import footstep, harness
from triwalk.footstep import (
    Footprint,
    FootstepPlan,
    GridMap,
    PlanningError,
    footsteps_from_path,
    inflate,
    initial_feet_on_path,
    load_map,
    pad_obstacles,
    plan_footsteps,
    plan_path,
    save_map,
    transition,
    wrap_angle,
)

from helpers import with_block
from oracles import (
    astar_by_dicts,
    dijkstra_all_costs,
    dijkstra_grid,
    dilate_by_shifts,
    footsteps_by_feet_state,
    inflate_by_components,
    path_cost,
)


def fig_style_map():
    """Open arena with two rectangular blocks between start and goal."""
    grid = GridMap.empty(40, 30)
    grid = with_block(grid, 6, 10, 11, 15)
    grid = with_block(grid, 16, 22, 23, 27)
    return grid, (3, 3), (26, 36)


def irregular_map(seed, shape=(40, 50)):
    """Scattered cells plus L-shaped and diagonal obstacles, some on the border."""
    rng = np.random.default_rng(seed)
    occ = rng.random(shape) < 0.02
    for _ in range(5):
        r, c = (int(v) for v in rng.integers(0, shape, size=2))
        h, w = (int(v) for v in rng.integers(1, 9, size=2))
        occ[r:r + h, c] = True
        occ[min(r + h, shape[0]) - 1, c:c + w] = True
        for d in range(int(rng.integers(2, 7))):
            occ[(r - d) % shape[0], (c + d) % shape[1]] = True
    occ[0, 7] = occ[shape[0] - 1, shape[1] - 3] = True
    return occ


def bench_workloads():
    """``perfbench/workloads.py``, imported read-only for its seeded maps."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads
    return workloads


class TestWrapAngle:
    @pytest.mark.parametrize("a,expected", [
        (0.0, 0.0), (3 * math.pi / 2, -math.pi / 2), (-3 * math.pi / 2, math.pi / 2),
        (math.pi, math.pi), (2 * math.pi, 0.0), (-math.pi, math.pi),
    ])
    def test_values(self, a, expected):
        assert wrap_angle(a) == pytest.approx(expected, abs=1e-12)


class TestInflate:
    def test_empty_map_unchanged(self):
        grid = GridMap.empty(10, 10)
        assert not inflate(grid).occupancy.any()

    def test_single_cell_stays_single(self):
        grid = with_block(GridMap.empty(10, 10), 5, 5, 5, 5)
        assert inflate(grid).occupancy.sum() == 1

    def test_ten_cell_block_grows_to_eleven(self):
        grid = with_block(GridMap.empty(30, 30), 10, 10, 19, 19)
        out = inflate(grid).occupancy
        rows = np.flatnonzero(out.any(axis=1))
        cols = np.flatnonzero(out.any(axis=0))
        assert rows[-1] - rows[0] + 1 == 11
        assert cols[-1] - cols[0] + 1 == 11

    def test_superset_of_raw(self):
        rng = np.random.default_rng(0)
        occ = rng.random((20, 20)) < 0.15
        grid = GridMap(20, 20, occ)
        out = inflate(grid)
        assert np.all(out.occupancy[occ])

    def test_clipped_at_map_edge(self):
        grid = with_block(GridMap.empty(12, 12), 0, 0, 9, 9)
        out = inflate(grid)
        assert out.occupancy.shape == (12, 12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_flood_fill_oracle(self, seed):
        occ = irregular_map(seed)
        scale = (1.0, 1.1, 1.37, 2.0)[seed % 4]
        out = inflate(GridMap(occ.shape[1], occ.shape[0], occ, inflation_scale=scale))
        np.testing.assert_array_equal(out.occupancy, inflate_by_components(occ, scale))


class TestPadObstacles:
    @pytest.mark.parametrize("margin", [0, 1, 2, 3])
    def test_matches_shift_oracle(self, margin):
        occ = irregular_map(margin)
        out = pad_obstacles(GridMap(occ.shape[1], occ.shape[0], occ), margin)
        np.testing.assert_array_equal(out.occupancy, dilate_by_shifts(occ, margin))


class TestPlanPath:
    def test_start_equals_goal(self):
        grid = GridMap.empty(5, 5)
        assert plan_path(grid, (2, 2), (2, 2)) == [(2, 2)]

    def test_straight_line(self):
        grid = GridMap.empty(10, 10)
        path = plan_path(grid, (0, 0), (0, 9))
        assert len(path) == 10
        assert path_cost(grid, path) == pytest.approx(9 * grid.cell_size)

    def test_blocked_goal_raises(self):
        grid = with_block(GridMap.empty(5, 5), 0, 4, 0, 4)
        with pytest.raises(PlanningError):
            plan_path(grid, (0, 0), (0, 4))

    def test_unreachable_raises_with_diagnostic(self):
        grid = with_block(GridMap.empty(7, 7), 0, 3, 6, 3)
        with pytest.raises(PlanningError, match="reachable"):
            plan_path(grid, (3, 0), (3, 6))

    def test_fig_style_map_matches_dijkstra(self):
        grid, start, goal = fig_style_map()
        inflated = inflate(grid)
        path = plan_path(inflated, start, goal)
        ref = dijkstra_grid(inflated.occupancy, start, goal, grid.cell_size)
        assert path_cost(inflated, path) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_maps_match_dijkstra(self, seed):
        rng = np.random.default_rng(9000 + seed)
        occ = rng.random((15, 15)) < 0.25
        occ[0, 0] = occ[14, 14] = False
        grid = GridMap(15, 15, occ)
        ref = dijkstra_grid(occ, (0, 0), (14, 14), grid.cell_size)
        if ref is None:
            with pytest.raises(PlanningError):
                plan_path(grid, (0, 0), (14, 14))
        else:
            path = plan_path(grid, (0, 0), (14, 14))
            assert path_cost(grid, path) == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 20), cols=st.integers(1, 20), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_cost_matches_dijkstra_on_random_maps(self, rows, cols, density, seed, data):
        """A* returns a legal path of the oracle's cost, or both find none."""
        occ = np.random.default_rng(seed).random((rows, cols)) < density
        start, goal = (data.draw(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)))
                       for _ in range(2))
        occ[start] = occ[goal] = False
        grid = GridMap(cols, rows, occ)
        ref = dijkstra_grid(occ, start, goal, grid.cell_size)
        if ref is None:
            with pytest.raises(PlanningError):
                plan_path(grid, start, goal)
            return
        path = plan_path(grid, start, goal)
        assert path[0] == start and path[-1] == goal
        for (r, c), (nr, nc) in zip(path, path[1:]):
            dr, dc = nr - r, nc - c
            assert max(abs(dr), abs(dc)) == 1 and not occ[nr, nc]
            assert not (dr and dc and (occ[r + dr, c] or occ[r, c + dc]))
        assert path_cost(grid, path) == pytest.approx(ref, abs=1e-12)

    @staticmethod
    def assert_same_cells(grid, start, goal):
        """``plan_path`` returns the dict-based A*'s cells, or raises a
        PlanningError with its text."""
        try:
            ref = astar_by_dicts(grid.occupancy, start, goal, grid.cell_size)
        except RuntimeError as exc:
            with pytest.raises(PlanningError) as err:
                plan_path(grid, start, goal)
            assert str(err.value) == str(exc)
            return
        assert plan_path(grid, start, goal) == ref

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 20), cols=st.integers(1, 20), density=st.floats(0.0, 0.6),
           seed=st.integers(0, 2**32 - 1), clear_ends=st.booleans(),
           cell_size=st.sampled_from((0.1, 0.05, 0.37, 1.0)), data=st.data())
    def test_cells_match_dict_search(self, rows, cols, density, seed, clear_ends,
                                     cell_size, data):
        """The maps of the cost property, with ends that may also be blocked
        or one cell off the grid: same cells, or the same error text."""
        occ = np.random.default_rng(seed).random((rows, cols)) < density
        start, goal = (data.draw(st.tuples(st.integers(-1, rows), st.integers(-1, cols)))
                       for _ in range(2))
        for r, c in (start, goal):
            if clear_ends and 0 <= r < rows and 0 <= c < cols:
                occ[r, c] = False
        self.assert_same_cells(GridMap(cols, rows, occ, cell_size), start, goal)

    def test_generated_maps_match_dict_search(self):
        """The benchmark's planned maps, seeds 0-9, searched on the map
        ``plan_footsteps`` searches: inflated, then padded by 2 cells for the
        0.2 m stance on 0.1 m cells."""
        workloads = bench_workloads()
        for seed in range(10):
            grid, _, cells, _ = workloads.generate_map(triwalk, seed)
            body = pad_obstacles(inflate(grid), 2)
            assert cells == astar_by_dicts(body.occupancy, workloads.MAP_START,
                                           workloads.MAP_GOAL, grid.cell_size), seed

    @pytest.mark.parametrize("name, cell", [
        ("start", (0.7, 0)), ("start", (0, 1.0)), ("start", (True, 0)), ("start", (0,)),
        ("goal", (4, 4.5)), ("goal", (np.float64(4.0), 4)), ("goal", (4, 4, 0)),
        ("goal", "44"), ("goal", np.array([[4], [4]])),
    ])
    def test_non_integer_end_named(self, name, cell):
        # Each of these used to be truncated, read digit by digit, cut short
        # or fail with an IndexError.
        ends = {"start": (0, 0), "goal": (4, 4), name: cell}
        with pytest.raises(ValueError, match=name):
            plan_path(GridMap.empty(5, 5), ends["start"], ends["goal"])

    @pytest.mark.parametrize("cell", [(-1, 0), (0, 5), (5, 4), (2, 2)])
    def test_off_grid_or_blocked_end_is_a_planning_error(self, cell):
        grid = with_block(GridMap.empty(5, 5), 2, 2, 2, 2)
        with pytest.raises(PlanningError, match=re.escape(f"start cell {cell} is not free")):
            plan_path(grid, cell, (4, 4))
        with pytest.raises(PlanningError, match=re.escape(f"goal cell {cell} is not free")):
            plan_path(grid, (0, 0), cell)

    def test_integer_types_accepted(self):
        grid = GridMap.empty(5, 5)
        assert (plan_path(grid, np.array([0, 0]), [np.int64(4), 3])
                == plan_path(grid, (0, 0), (4, 3)))

    def test_heuristic_is_admissible(self):
        grid, start, goal = fig_style_map()
        inflated = inflate(grid)
        dist_to_goal = dijkstra_all_costs(inflated.occupancy, goal, grid.cell_size)
        free = np.argwhere(~inflated.occupancy)
        for r, c in free[:: max(1, len(free) // 200)]:
            if not np.isfinite(dist_to_goal[r, c]):
                continue
            h = grid.cell_size * math.hypot(r - goal[0], c - goal[1])
            assert h <= dist_to_goal[r, c] + 1e-9


class TestTransition:
    def test_straight_step_moves_swing_foot(self):
        foot = Footprint(0.0, 0.1, 0.0, "L")
        out = transition(foot, 0.1, 0.0)
        assert (out.x, out.y, out.theta) == pytest.approx((0.1, 0.1, 0.0))
        assert out.side == "L" and not out.closing

    def test_quarter_turn_displacement(self):
        foot = Footprint(0.0, 0.1, 0.0, "L")
        out = transition(foot, 0.1, math.pi / 2, sigma_max=math.pi / 2)
        assert (out.x - foot.x, out.y - foot.y) == pytest.approx((0.0, 0.1), abs=1e-12)
        assert out.theta == math.pi / 2

    def test_angle_limit_enforced(self):
        with pytest.raises(ValueError, match="angle"):
            transition(Footprint(0.0, 0.1, 0.0, "L"), 0.1, math.radians(30))

    @pytest.mark.parametrize("distance", [0.0, -0.1])
    def test_distance_must_be_positive(self, distance):
        with pytest.raises(ValueError, match="distance"):
            transition(Footprint(0.0, 0.1, 0.0, "L"), distance, 0.0)

    def test_n_straight_steps_alternate(self):
        # The swing foot is always the second last footprint.
        prints = [Footprint(0.0, -0.1, 0.0, "R"), Footprint(0.0, 0.1, 0.0, "L")]
        n, dist = 8, 0.1
        for _ in range(n):
            prints.append(transition(prints[-2], dist, 0.0))
        assert [f.side for f in prints[2:]] == ["R", "L"] * (n // 2)
        assert prints[-1].x == pytest.approx(n / 2 * dist)
        assert prints[-2].x == pytest.approx(n / 2 * dist)
        assert 0.5 * (prints[-1].x + prints[-2].x) == pytest.approx(n * dist / 2)


class TestFootstepsFromPath:
    def straight_path(self, length=1.0, spacing=0.1):
        xs = np.arange(0.0, length + spacing / 2, spacing)
        return np.column_stack([xs, np.zeros_like(xs)])

    def test_straight_path_geometry(self):
        path = self.straight_path()
        initial = initial_feet_on_path(path)
        plan = footsteps_from_path(path, initial)
        forward = [f for f in plan.footprints[2:] if not f.closing]
        closing = [f for f in plan.footprints if f.closing]
        assert len(closing) == 2
        assert len(forward) == 19  # midpoint advances half a step length per step
        assert all(abs(f.theta) < 1e-9 for f in plan.footprints)
        sides = [f.side for f in plan.footprints]
        assert all(a != b for a, b in zip(sides, sides[1:]))

    def test_turned_path_heading_accumulates(self):
        leg1 = np.column_stack([np.arange(0.0, 1.01, 0.1), np.zeros(11)])
        leg2 = np.column_stack([np.full(10, 1.0), np.arange(0.1, 1.01, 0.1)])
        path = np.vstack([leg1, leg2])
        initial = initial_feet_on_path(path)
        plan = footsteps_from_path(path, initial)
        final_heading = plan.footprints[-1].theta
        assert final_heading == pytest.approx(math.pi / 2, abs=math.radians(21))

    def test_zero_length_path_only_closing(self):
        path = np.array([[0.3, 0.4]])
        initial = initial_feet_on_path(path)
        plan = footsteps_from_path(path, initial)
        assert plan.n_steps == 2
        assert all(f.closing for f in plan.footprints[2:])

    def test_initial_feet_one_left_one_right(self):
        """The follower swings ``initial[0]`` first; two feet of one side
        have no alternation to follow."""
        path = self.straight_path()
        right, left = initial_feet_on_path(path)
        assert (right.side, left.side) == ("R", "L")
        assert right.y < left.y
        for initial in ((left, left), (right, right), (right,), (right, left, right)):
            with pytest.raises(ValueError, match="initial"):
                footsteps_from_path(path, initial)

    def test_collision_checked_when_grid_given(self):
        grid = with_block(GridMap.empty(10, 10), 0, 0, 9, 9)
        path = self.straight_path(0.5)
        initial = initial_feet_on_path(path)
        with pytest.raises(PlanningError):
            footsteps_from_path(path, initial, grid=grid)


class TestMaxSteps:
    """A follower given ``max_steps`` stops once it has placed them: its plan
    is the full plan truncated, and so is a scenario's."""

    SQUARE = ((1.0, 1.0), (1.5, 1.0), (1.5, 1.5), (1.0, 1.5))

    @staticmethod
    def assert_truncates(path, n):
        initial = initial_feet_on_path(path)
        full = footsteps_from_path(path, initial)
        assert footsteps_from_path(path, initial, max_steps=n) == full.truncated(n)
        scenario = harness.Scenario(name="follow", mode="path", duration=1.0,
                                    path_points=tuple(map(tuple, path)), max_steps=n)
        assert scenario.build_plan() == full.truncated(n)

    @pytest.mark.parametrize("n", [1, 2, 5, 19, 20, 21, 22, 40])
    def test_straight_path(self, n):
        # 19 forward steps, then the two closing ones.
        path = np.column_stack([np.arange(0.0, 1.05, 0.1), np.zeros(11)])
        self.assert_truncates(path, n)

    def test_generated_maps(self):
        """The benchmark's walked maps, seeds 0-4, at the steps it walks."""
        workloads = bench_workloads()
        for seed in range(5):
            grid, _, cells, _ = workloads.generate_map(triwalk, seed)
            path = np.array([grid.cell_center(c) for c in cells])
            self.assert_truncates(path, workloads.WALK_STEPS)

    def test_a_square_plans_its_first_steps(self):
        # The full follow circles the first corner until its budget is spent.
        with pytest.raises(PlanningError, match="step budget exhausted"):
            footsteps_from_path(self.SQUARE, initial_feet_on_path(self.SQUARE))
        scenario = harness.Scenario(name="square", mode="path", duration=1.0,
                                    path_points=self.SQUARE, max_steps=5)
        assert scenario.build_plan().n_steps == 5

    @pytest.mark.parametrize("n", [0, -1, 2.5, True, "3"])
    def test_max_steps_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match="max_steps must be a positive integer"):
            footsteps_from_path(self.SQUARE, initial_feet_on_path(self.SQUARE), max_steps=n)


class TestFootstepPlan:
    def test_sides_must_alternate(self):
        fps = (Footprint(0, 0.1, 0, "L"), Footprint(0, -0.1, 0, "L"))
        with pytest.raises(ValueError):
            FootstepPlan(fps)

    def test_step_distance_validated(self):
        fps = (Footprint(0.0, 0.1, 0.0, "L"),
               Footprint(0.0, -0.1, 0.0, "R"),
               Footprint(0.17, 0.1, 0.0, "L"))
        with pytest.raises(ValueError):
            FootstepPlan(fps, step_distance=0.1)

    @pytest.mark.parametrize("field", ["x", "y", "theta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_footprints_rejected(self, field, bad):
        # A NaN would slip past the displacement check: abs(nan - d) > tol is False.
        data = {"step_distance": 0.1, "footprints": [
            {"x": 0.0, "y": 0.1, "theta": 0.0, "side": "L"},
            {"x": 0.0, "y": -0.1, "theta": 0.0, "side": "R"},
            {"x": 0.1, "y": 0.1, "theta": 0.0, "side": "L"}]}
        data["footprints"][2][field] = bad
        with pytest.raises(ValueError, match="finite"):
            FootstepPlan.from_json(data)
        data["step_distance"] = None
        with pytest.raises(ValueError, match="finite"):
            FootstepPlan.from_json(data)

    def test_accessors_and_truncate(self):
        path = np.column_stack([np.arange(0.0, 1.01, 0.1), np.zeros(11)])
        plan = footsteps_from_path(path, initial_feet_on_path(path))
        sub = plan.truncated(5)
        assert sub.n_steps == 5
        assert sub.support(0) == plan.footprints[1]
        assert sub.footprints[0] == plan.footprints[0]
        assert sub.swing_to(0) == plan.footprints[2]

    def test_json_round_trip(self):
        path = np.column_stack([np.arange(0.0, 0.61, 0.1), np.zeros(7)])
        plan = footsteps_from_path(path, initial_feet_on_path(path))
        again = FootstepPlan.from_json(plan.to_json())
        assert again == plan


class TestFullPipeline:
    def test_plan_footsteps_keeps_feet_in_free_cells(self):
        grid, start, goal = fig_style_map()
        plan, cells = plan_footsteps(grid, start, goal)
        inflated = inflate(grid)
        for f in plan.footprints:
            assert inflated.is_free(inflated.world_to_cell((f.x, f.y)))

    def test_same_side_spacing_is_step_distance(self):
        grid, start, goal = fig_style_map()
        plan, _ = plan_footsteps(grid, start, goal)
        fps = plan.footprints
        checked = 0
        for a, b in zip(fps, fps[2:]):
            if b.closing:
                continue
            assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(0.1, abs=1e-9)
            checked += 1
        assert checked > 10


class TestGridMap:
    @pytest.mark.parametrize("occupancy", [
        [[False, True], [False, False]],        # a list, not an array
        np.array([[0.0, 0.5], [0.0, 0.0]]),    # a fractional cell, read as blocked
        np.array([[0.0, np.nan], [0.0, 0.0]]),
        np.array([[0, 1], [0, 0]]),
        np.zeros((2, 2, 1), dtype=bool),
    ])
    def test_occupancy_must_be_a_boolean_grid(self, occupancy):
        with pytest.raises(ValueError, match="occupancy"):
            GridMap(2, 2, occupancy)

    @pytest.mark.parametrize("key, value", [
        ("width", 5.0), ("width", True), ("height", 5.0), ("height", 0), ("height", -5),
    ])
    def test_sides_must_be_positive_integers(self, key, value):
        # The rule and the words of ``load_map``, so that a map saves only
        # when it loads back.
        sides = {"width": 5, "height": 5, key: value}
        with pytest.raises(ValueError, match=f"{key} must be a positive integer"):
            GridMap(**sides, occupancy=np.zeros((5, 5), bool))
        with pytest.raises(ValueError, match=f"{key} must be a positive integer"):
            GridMap.empty(**sides)

    def test_numpy_integer_sides_round_trip(self, tmp_path):
        occ = np.zeros((3, 4), bool)
        occ[1, 2] = True
        grid = GridMap(np.int64(4), np.int32(3), occ)
        assert type(grid.width) is int and type(grid.height) is int
        save_map(grid, tmp_path / "map.json")
        loaded, _, _ = load_map(tmp_path / "map.json")
        assert (loaded.width, loaded.height) == (4, 3)
        np.testing.assert_array_equal(loaded.occupancy, grid.occupancy)


class TestMapIO:
    def test_round_trip(self, tmp_path):
        grid, start, goal = fig_style_map()
        path = tmp_path / "map.json"
        save_map(grid, path, start, goal)
        loaded, s, g = load_map(path)
        np.testing.assert_array_equal(loaded.occupancy, grid.occupancy)
        assert (s, g) == (start, goal)
        assert loaded.cell_size == grid.cell_size

    @pytest.mark.parametrize("cell", [(-1, 2), (2, -1), (3, 2), (2, 4)])
    def test_occupied_cell_outside_grid_rejected(self, cell):
        data = {"width": 4, "height": 3, "occupied": [[1, 1], list(cell)]}
        with pytest.raises(ValueError, match=rf"\[{cell[0]}, {cell[1]}\]"):
            load_map(data)

    @pytest.mark.parametrize("cell", [[1.5, 2], [1, 2.0], [True, 2]])
    def test_non_integer_cell_rejected(self, cell):
        data = {"width": 4, "height": 3, "occupied": [[1, 1], cell]}
        with pytest.raises(ValueError, match=re.escape(str(cell))):
            load_map(data)

    @pytest.mark.parametrize("key, value", [
        # Each of these loaded before, then failed mid-plan or was misread ...
        ("cell_size", math.nan), ("cell_size", math.inf), ("inflation_scale", math.nan),
        ("start", [0]), ("start", [0.5, 1]), ("start", [0, 4]), ("goal", [3, 0]),
        ("goal", [1, 2, 0]), ("width", 0),
        # ... or failed with an error other than ValueError.
        ("height", None), ("width", 5.5), ("width", True), ("height", "3"),
    ])
    def test_malformed_value_named(self, key, value):
        data = {"width": 4, "height": 3, "occupied": [[1, 1]], "start": [0, 0], "goal": [2, 3]}
        if value is None:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(ValueError, match=key):
            load_map(data)


class TestBadFootstepInputs:
    """A bad parameter raises a ValueError naming it before any search or
    placement, rather than an overflow, a spent step budget or a plan with
    the feet crossed."""

    PATH = np.column_stack([np.arange(0.0, 1.01, 0.1), np.full(11, 0.5)])

    @pytest.mark.parametrize("name, value", [
        ("step_distance", 0.0), ("step_distance", -0.1), ("step_distance", math.nan),
        ("step_distance", math.inf), ("sigma_max", math.nan), ("sigma_max", -0.1),
        ("sigma_max", math.inf), ("lookahead", math.nan), ("lookahead", 0.0),
        ("lookahead", -0.3), ("lookahead", math.inf),
    ])
    def test_follower_parameter_named(self, name, value):
        # Every cell is blocked, so only a check made before the first
        # placement can raise a ValueError.
        blocked = with_block(GridMap.empty(20, 20), 0, 0, 19, 19)
        with pytest.raises(ValueError, match=name):
            footsteps_from_path(self.PATH, initial_feet_on_path(self.PATH),
                                grid=blocked, **{name: value})

    @pytest.mark.parametrize("row", [0, 5, -1])
    @pytest.mark.parametrize("coord", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_waypoint_named(self, bad, coord, row):
        # Both used to go on: the follower to numpy's integer conversion or
        # an OverflowError, the stance to NaN footprints or to none at all.
        path = self.PATH.copy()
        path[row, coord] = bad
        with pytest.raises(ValueError, match="path_xy"):
            initial_feet_on_path(path)
        with pytest.raises(ValueError, match="path_xy"):
            footsteps_from_path(path, initial_feet_on_path(self.PATH))

    @pytest.mark.parametrize("path", [[], [[0.0, 0.5, 0.0], [1.0, 0.5, 0.0]], [[0.0], [1.0]],
                                      np.zeros((2, 2, 2))])
    def test_waypoints_must_be_xy_rows(self, path):
        # These used to fail inside numpy (broadcasting or an IndexError);
        # read as x and y columns, a third column would be dropped unseen.
        with pytest.raises(ValueError, match="path_xy"):
            initial_feet_on_path(path)
        with pytest.raises(ValueError, match="path_xy"):
            footsteps_from_path(path, initial_feet_on_path(self.PATH))

    @pytest.mark.parametrize("value", [0.0, -0.2, math.nan, math.inf])
    def test_step_width_named(self, value):
        with pytest.raises(ValueError, match="step_width"):
            initial_feet_on_path(self.PATH, value)

    @pytest.mark.parametrize("name, value", [
        ("step_width", -0.2), ("step_width", 0.0), ("step_width", math.nan),
        ("step_distance", 0.0), ("step_distance", math.nan), ("sigma_max", math.nan),
    ])
    def test_pipeline_checks_before_search(self, monkeypatch, name, value):
        def no_search(*args):
            raise AssertionError("searched with a bad parameter")
        monkeypatch.setattr(footstep, "plan_path", no_search)
        grid, start, goal = fig_style_map()
        with pytest.raises(ValueError, match=name):
            plan_footsteps(grid, start, goal, **{name: value})

    @pytest.mark.parametrize("sides", [("Q", "Z"), ("L", "Z"), ("l", "r")])
    def test_json_sides_must_be_left_or_right(self, sides):
        data = {"step_distance": None, "footprints": [
            {"x": 0.0, "y": 0.1, "theta": 0.0, "side": sides[0]},
            {"x": 0.0, "y": -0.1, "theta": 0.0, "side": sides[1]}]}
        with pytest.raises(ValueError, match="side"):
            FootstepPlan.from_json(data)

    @pytest.mark.parametrize("change", [{"heading": 0.0}, {"theta": None}])
    def test_json_footprint_key_named(self, change):
        fp = {"x": 0.0, "y": 0.1, "theta": 0.0, "side": "L", **change}
        if fp["theta"] is None:
            del fp["theta"]
        data = {"footprints": [fp, {"x": 0.0, "y": -0.1, "theta": 0.0, "side": "R"}]}
        with pytest.raises(ValueError, match="heading" if "heading" in change else "theta"):
            FootstepPlan.from_json(data)


GRID_CELLS = 50  # 5 m square at the default 0.1 m cells


@st.composite
def waypoint_walks(draw):
    """1-30 waypoints of a random walk whose turns reach +-pi, beyond any
    per-step limit, with repeated points among them."""
    n = draw(st.integers(1, 30))
    x, y = draw(st.floats(1.5, 3.5)), draw(st.floats(1.5, 3.5))
    heading = draw(st.floats(-math.pi, math.pi))
    pts = [(x, y)]
    for _ in range(n - 1):
        heading += draw(st.floats(-math.pi, math.pi))
        length = draw(st.sampled_from((0.0, 0.1)) | st.floats(0.0, 0.3))
        x, y = x + length * math.cos(heading), y + length * math.sin(heading)
        pts.append((x, y))
    return np.array(pts)


@st.composite
def blocks_near(draw, pts):
    """An occupancy grid with one block of 1-4 cells a side beside a
    waypoint, where it often blocks a placement; or None."""
    if draw(st.booleans()):
        return None
    occ = np.zeros((GRID_CELLS, GRID_CELLS), dtype=bool)
    x, y = pts[draw(st.integers(0, len(pts) - 1))]
    r = int(y / 0.1) + draw(st.integers(-3, 3))
    c = int(x / 0.1) + draw(st.integers(-3, 3))
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    occ[max(r, 0):max(r + h, 0), max(c, 0):max(c + w, 0)] = True
    return occ


class TestFollowerMatchesFeetStateOracle:
    """The follower that steps on the plan's last two footprints returns
    the footprints of a follower over a two-feet state with swing flags,
    as equal tuples, or fails with the same PlanningError."""

    @staticmethod
    def assert_same(path, occupancy=None, lookahead=0.3, step_width=0.2, **params):
        grid = None if occupancy is None else GridMap(GRID_CELLS, GRID_CELLS, occupancy)
        try:
            ref = footsteps_by_feet_state(path, lookahead=lookahead, occupancy=occupancy,
                                          step_width=step_width, **params)
        except RuntimeError as exc:
            with pytest.raises(PlanningError) as err:
                footsteps_from_path(path, initial_feet_on_path(path, step_width),
                                    lookahead=lookahead, grid=grid, **params)
            assert str(err.value) == str(exc)
            return
        plan = footsteps_from_path(path, initial_feet_on_path(path, step_width),
                                   lookahead=lookahead, grid=grid, **params)
        assert tuple((f.x, f.y, f.theta, f.side, f.closing) for f in plan.footprints) == ref

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), path=waypoint_walks(),
           step_distance=st.floats(0.05, 0.2), lookahead=st.floats(0.05, 0.6),
           sigma_max=st.sampled_from((0.0, math.radians(20.0), math.pi)) | st.floats(0.0, 1.5),
           step_width=st.floats(0.1, 0.3))
    def test_random_walks(self, data, path, step_distance, lookahead, sigma_max, step_width):
        occupancy = data.draw(blocks_near(path))
        self.assert_same(path, occupancy, lookahead, step_distance=step_distance,
                         sigma_max=sigma_max, step_width=step_width)

    @pytest.mark.parametrize("path", [
        [[0.3, 0.4]],
        [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
        [[1.0, 1.0], [2.0, 1.0], [1.0, 1.0]],          # a half turn
        [[1.0, 1.0], [1.5, 1.0], [1.5, 1.5], [1.0, 1.5]],
        # The first target lies 5e-6 m from the stance midpoint, close to it
        # only by np.allclose's relative tolerance, so the walk aims at the goal.
        [[1.0, 1.0], [1.000005, 1.0], [1.31, 1.05], [1.4, 1.1], [1.5, 1.15]],
        [[1.0, 1.0], [1.0, 1.000005], [1.05, 1.31], [1.1, 1.4], [1.15, 1.5]],
    ])
    def test_edge_paths(self, path):
        self.assert_same(np.array(path))

    def test_blocked_placement(self):
        path = np.column_stack([np.arange(1.0, 2.01, 0.1), np.full(11, 1.0)])
        occ = np.zeros((GRID_CELLS, GRID_CELLS), dtype=bool)
        occ[11, 14] = True  # beside the path, under the left foot's line
        with pytest.raises(PlanningError, match="collision"):
            footsteps_from_path(path, initial_feet_on_path(path),
                                grid=GridMap(GRID_CELLS, GRID_CELLS, occ))
        self.assert_same(path, occ)

    def test_generated_maps(self):
        """The benchmark's planned maps, seeds 0-39."""
        workloads = bench_workloads()
        for seed in range(40):
            grid, plan, cells, _ = workloads.generate_map(triwalk, seed)
            inflated = inflate(grid)
            pts = [inflated.cell_center(c) for c in cells]
            ref = footsteps_by_feet_state(pts, lookahead=3 * grid.cell_size,
                                          occupancy=inflated.occupancy,
                                          cell_size=grid.cell_size)
            assert tuple((f.x, f.y, f.theta, f.side, f.closing)
                         for f in plan.footprints) == ref, seed
