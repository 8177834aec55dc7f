import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triwalk import harness
from triwalk.engine import WalkEngine
from triwalk.footstep import Footprint
from triwalk.harness import (
    BracketError,
    Disturbance,
    NoiseSpec,
    Scenario,
    Simulation,
    _corners,
    convex_hull,
    disturbance_scenario,
    inplace_scenario,
    max_withstand,
    noise_sample,
    run,
    support_excursion,
    tracking_scenario,
    with_impulse,
)
from triwalk.qp import STATUS_MAX_ITERATIONS, STATUS_OPTIMAL, ActiveSetSolver

from helpers import clear_caches, polygon_excursion

HALF = (0.1, 0.05)   # (half length, half width) of a 0.2 x 0.1 m foot


class TestNoiseSample:
    def test_all_samples_within_bound(self):
        rng = np.random.default_rng(0)
        bound = 0.05
        samples = np.array([noise_sample(rng, bound) for _ in range(1_000_000)])
        assert np.all(np.abs(samples) <= bound)
        assert abs(samples.mean()) < 3 * samples.std() / math.sqrt(samples.size)
        sigma = bound / 3.0
        assert 0.9 * sigma <= samples.std() <= 1.0 * sigma

    def test_deterministic_under_seed(self):
        a = [noise_sample(np.random.default_rng(42), 0.05) for _ in range(10)]
        b = [noise_sample(np.random.default_rng(42), 0.05) for _ in range(10)]
        assert a == b

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            noise_sample(np.random.default_rng(0), 0.0)


class TestGeometry:
    def test_hull_of_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        hull = convex_hull(pts)
        assert hull.shape[0] == 4

    def test_point_inside_is_negative(self):
        hull = convex_hull(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]))
        assert polygon_excursion((0.5, 0.5), hull) == pytest.approx(-0.5)
        assert polygon_excursion((1.25, 0.5), hull) == pytest.approx(0.25)

    def test_corner_geometry(self):
        corners = _corners((Footprint(1.0, 2.0, 0.0, "L"),), *HALF)
        assert corners.shape == (4, 2)
        np.testing.assert_allclose(corners.mean(axis=0), [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(corners.max(axis=0), [1.1, 2.05], atol=1e-12)

    def test_support_excursion_single_foot(self):
        foot = Footprint(0.0, 0.0, 0.0, "L")
        assert support_excursion((0.0, 0.0), (foot,), HALF) == pytest.approx(-0.05)
        assert support_excursion((0.15, 0.0), (foot,), HALF) == pytest.approx(0.05)

    def test_scaled_polygon_is_tighter(self):
        foot = Footprint(0.0, 0.0, 0.0, "R")
        assert support_excursion((0.095, 0.0), (foot,), HALF) < 0.0
        assert support_excursion((0.095, 0.0), (foot,), HALF, scale=0.9) > 0.0

    def test_cached_polygon_matches_the_edge_loop(self):
        def loop_excursion(point, hull):
            # Reference: one numpy dot per hull edge.
            worst = -math.inf
            for a, b in zip(hull, np.roll(hull, -1, axis=0)):
                edge = b - a
                normal = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)
                worst = max(worst, float(normal @ (point - a)))
            return worst

        rng = np.random.default_rng(3)
        feet = (Footprint(0.0, 0.0, 0.3, "R"), Footprint(0.05, 0.2, -0.2, "L"))
        for scale in (1.0, 0.9):
            hull = convex_hull(_corners(feet, HALF[0] * scale, HALF[1] * scale))
            for p in rng.uniform(-0.3, 0.4, size=(50, 2)):
                expected = loop_excursion(p, hull)
                assert support_excursion(p, feet, HALF, scale) == pytest.approx(expected,
                                                                                abs=1e-15)
                assert polygon_excursion(p, hull) == pytest.approx(expected, abs=1e-15)

    def test_rotated_foot_containment(self):
        foot = Footprint(0.0, 0.0, math.pi / 4, "L")
        along = 0.09 * np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        assert support_excursion(along, (foot,), HALF) < 0.0
        assert support_excursion((0.09, 0.0), (foot,), HALF) > 0.0


DATA = Path(__file__).resolve().parent / "data"
_PUSH = disturbance_scenario(250.0, seed=3)
# The scenarios the files in ``DATA`` were written from.
COMMITTED = {
    "scenario_two_pushes.json": replace(_PUSH, max_steps=4, disturbances=_PUSH.disturbances + (
        Disturbance(t_start=2.3, duration=0.02, force=-10.0, mass_index=0, axis="y"),)),
    "scenario_map.json": Scenario(
        name="map-walk", mode="path", duration=4.0, max_steps=6,
        map_source={"width": 16, "height": 9, "cell_size": 0.1,
                    "occupied": [[0, 7], [8, 7]], "start": [4, 2], "goal": [4, 13]}),
}


def as_tuples(value):
    """``value`` with its lists, nested ones too, as tuples."""
    return tuple(map(as_tuples, value)) if isinstance(value, list) else value


def replaced(obj, path, value):
    """Copy of ``obj`` with ``value`` at ``path``, a sequence of field names
    and tuple indices, built by ``dataclasses.replace``."""
    head, *rest = path
    if rest:
        value = replaced(obj[head] if isinstance(head, int) else getattr(obj, head), rest, value)
    if isinstance(head, int):
        return obj[:head] + (value,) + obj[head + 1:]
    return replace(obj, **{head: value})


finite = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def scenarios(draw):
    """Valid scenarios of both modes, each plan source, pushes on both axes
    and all three masses, schedules and noise."""
    duration = draw(st.floats(0.1, 30.0))
    half = duration / 2.0   # a push that starts by ``half`` and lasts ``half`` ends in the run
    pushes = st.builds(Disturbance, t_start=st.floats(0.0, half), duration=st.floats(1e-3, half),
                       force=finite, mass_index=st.sampled_from((0, 1, 2)),
                       axis=st.sampled_from(("x", "y")))
    mode = draw(st.sampled_from(("path", "setpoints")))
    source = draw(st.sampled_from(("points", "map", "map file")
                                  + (("none",) if mode == "setpoints" else ())))
    map_dict = st.fixed_dictionaries({
        "width": st.integers(1, 50), "height": st.integers(1, 50),
        "start": st.lists(st.integers(0, 49), min_size=2, max_size=2)})
    return Scenario(
        name=draw(st.text("abz09._-", min_size=1).filter(lambda n: n not in (".", ".."))),
        mode=mode,
        duration=duration,
        noise=draw(st.builds(NoiseSpec, enabled=st.booleans(), bound=st.floats(1e-3, 0.2),
                             seed=st.integers(0, 2**32))),
        disturbances=tuple(draw(st.lists(pushes, min_size=1, max_size=4))),
        n_fall=draw(st.integers(0, 100)),
        map_source=draw({"map": map_dict, "map file": st.text("abz/.", min_size=1)}.get(
            source, st.none())),
        path_points=draw(st.lists(st.tuples(finite, finite), min_size=1, max_size=5).map(tuple)
                         if source == "points" else st.none()),
        max_steps=draw(st.none() | st.integers(1, 40)),
        schedule=tuple(draw(st.lists(st.tuples(finite, finite, finite, finite), min_size=1,
                                     max_size=4))),
    )


# (JSON path, value) pairs that a scenario rejects with a ValueError naming
# the path's last key.
BAD_VALUES = [
    (("duration",), math.nan), (("duration",), math.inf), (("noise", "bound"), 0.0),
    (("noise", "bound"), -0.05), (("n_fall",), -1),
    (("config", "jerk_limit"), math.nan), (("config", "jerk_limit"), math.inf),
    (("config", "soft_penalty"), math.nan), (("config", "w_zmp"), math.nan),
    (("config", "swing_reach"), -0.1), (("config", "swing_band"), [0.3, 0.05]),
    # Each of these loaded before, then failed mid-run or was misread.
    (("schedule",), [[0, 0.1]]), (("schedule",), [[0.0, math.nan, 0.0, 0.0]]),
    (("schedule",), [[math.inf, 0.0, 0.0, 0.0]]), (("max_steps",), 0),
    (("max_steps",), -1), (("max_steps",), 1.5),
    (("path_points",), [[0.0, 0.0], [math.nan, 0.0]]), (("noise", "seed"), "3"),
    (("timing", "t_single"), math.nan), (("observer", "boost_rate"), math.nan),
    (("observer", "boost_window"), 2.5), (("observer", "boost_hold"), 2.5),
    # Tuples of the wrong length, named before any matrix is built.
    (("config", "swing_band"), [0.05]), (("config", "w_jerk"), [1e-4]),
    (("observer", "jerk_noise"), [1.0]), (("observer", "measurement_noise"), 0.1),
    # Booleans are not integers: True planned one step, ran seed 1 or
    # pushed the torso, and passed as a schedule or waypoint number.
    (("max_steps",), True), (("n_fall",), True), (("n_fall",), False),
    (("noise", "seed"), True), (("noise", "seed"), False),
    (("disturbances", 0, "mass_index"), True), (("disturbances", 0, "mass_index"), False),
    (("disturbances", 0, "mass_index"), 1.0),
    (("schedule",), [[0.0, True, 0.0, 0.0]]), (("path_points",), [[0.0, 0.0], [True, 0.0]]),
    # A name that is not a string failed in the trace export after the
    # whole run; an empty one wrote the trace files beside ``out_dir``.
    (("name",), 5), (("name",), None), (("name",), ""), (("name",), "."),
    (("name",), "a/b"),
]


def names_a_field(path, obj) -> bool:
    """True when ``path`` leads through ``obj``'s fields and tuple indices."""
    for key in path:
        if not isinstance(key, int) and key not in {f.name for f in fields(obj)}:
            return False
        obj = obj[key] if isinstance(key, int) else getattr(obj, key)
    return True


# The entries ``replace`` can set; the others are keys that no section has.
REPLACEABLE = [(path, value) for path, value in BAD_VALUES
               if names_a_field(path, disturbance_scenario(300.0))]


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        sc = disturbance_scenario(250.0, seed=3)
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc.to_json()))
        again = Scenario.from_json(path)
        assert again.to_json() == sc.to_json()

    def test_validation_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            Scenario(mode="fly")

    @pytest.mark.parametrize("field, value", [
        ("duration", 0.0), ("duration", -0.01), ("duration", math.nan), ("duration", math.inf),
        ("t_start", math.nan), ("t_start", math.inf), ("force", math.nan), ("force", math.inf),
        ("force", -math.inf),
    ])
    def test_disturbance_values_checked(self, field, value):
        sc = disturbance_scenario(300.0)
        with pytest.raises(ValueError):
            replace(sc, disturbances=(replace(sc.disturbances[0], **{field: value}),))
        data = json.loads(json.dumps(sc.to_json()))
        data["disturbances"][0][field] = value
        with pytest.raises(ValueError):
            Scenario.from_json(data)

    @pytest.mark.parametrize("path, value", BAD_VALUES)
    def test_scenario_values_checked(self, path, value):
        data = json.loads(json.dumps(disturbance_scenario(300.0).to_json()))
        *parents, key = path
        section = data
        for name in parents:
            section = section[name]
        section[key] = value
        with pytest.raises(ValueError, match=key):
            Scenario.from_json(data)

    @pytest.mark.parametrize("section, value", [
        ("disturbances", [{"force": 300.0}]), ("disturbances", [5]), ("disturbances", 5),
        ("params", {"m1": 1.0}), ("noise", 5), ("timing", {"t_single": "0.7"}),
        ("schedule", 5), ("schedule", [5]), ("path_points", [[0.0, 0.0], 1.0]),
    ])
    def test_malformed_section_named(self, section, value):
        # Each raised TypeError from a constructor or an iteration before.
        data = json.loads(json.dumps(disturbance_scenario(300.0).to_json()))
        data[section] = value
        with pytest.raises(ValueError, match=f"scenario section '{section}'"):
            Scenario.from_json(data)

    def test_scenario_must_be_an_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            Scenario.from_json([tracking_scenario().to_json()])

    @pytest.mark.parametrize("section, key", [
        ("config", "w_move"), ("observer", "accel_noise"), ("observer", "boost_accel_noise"),
        ("params", "mass"), ("timing", "t_swing"), ("noise", "sigma"), ("disturbances", "mass"),
    ])
    def test_unknown_section_key_named(self, section, key):
        data = json.loads(json.dumps(disturbance_scenario(300.0).to_json()))
        (data[section][0] if section == "disturbances" else data[section])[key] = 1.0
        with pytest.raises(ValueError, match=f"'{key}' in scenario section '{section}'"):
            Scenario.from_json(data)

    @pytest.mark.parametrize("key", ["nosie", "disturbance", "noise_bound", "Name"])
    def test_unknown_top_level_key_named(self, key):
        # A misspelt section would otherwise fall back to its default silently.
        data = json.loads(json.dumps(tracking_scenario().to_json()))
        data[key] = {"enabled": True}
        with pytest.raises(ValueError, match=f"unknown scenario key '{key}'"):
            Scenario.from_json(data)

    def test_every_written_key_loads(self):
        sc = replace(tracking_scenario(), map_source={"rows": 2, "cols": 2}, max_steps=3)
        data = json.loads(json.dumps(sc.to_json()))
        assert {"map", "path_points", "max_steps"} <= set(data)
        assert Scenario.from_json(data).to_json() == sc.to_json()

    def test_disturbance_window_checked(self):
        with pytest.raises(ValueError):
            inplace_scenario(duration=1.0,
                             disturbances=(Disturbance(t_start=0.9, duration=0.5, force=10.0),))

    @pytest.mark.parametrize("name", sorted(COMMITTED))
    def test_committed_files_load_to_their_scenarios(self, name):
        # Written by ``to_json`` before the JSON form became the fields.
        assert Scenario.from_json(DATA / name) == COMMITTED[name]

    @settings(max_examples=80, deadline=None)
    @given(scenarios(), st.sampled_from(REPLACEABLE))
    def test_valid_scenarios_round_trip_and_bad_values_raise(self, sc, bad):
        assert Scenario.from_json(json.loads(json.dumps(sc.to_json()))) == sc
        (*keys, key), value = bad
        if keys == ["noise"] and key == "bound" and not sc.noise.enabled:
            return   # the bound of disabled noise is never read
        with pytest.raises(ValueError, match=key):
            replaced(sc, (*keys, key), as_tuples(value))


class TestRun:
    def test_tracking_scenario_nominal(self):
        m = run(tracking_scenario(), keep_trace=False)
        assert m.completed and not m.fall_detected
        assert m.zmp_violation_cycles == 0
        assert m.scaled_violation_cycles == 0
        assert m.tracking_rms["stance"] < 0.02
        assert m.tracking_rms["swing"] < 0.02
        assert all(s > 0.0 for s in m.torso_sway_scores)

    def test_tracking_with_noise_completes(self):
        m = run(tracking_scenario(noise=True, seed=5), keep_trace=False)
        assert m.completed and not m.fall_detected
        assert m.zmp_violation_cycles <= 0.01 * m.n_cycles

    def test_impulse_recovery(self):
        m = run(disturbance_scenario(300.0), keep_trace=False)
        assert m.completed and not m.fall_detected
        assert m.zmp_violation_cycles > 0  # the push does leave the polygon briefly

    def test_large_impulse_falls(self):
        m = run(disturbance_scenario(900.0), keep_trace=False)
        assert m.fall_detected
        assert m.fall_time is not None and m.fall_time > 1.6

    def test_reproducible_traces(self, tmp_path):
        sc = tracking_scenario(noise=True, seed=11)
        m1 = run(sc, out_dir=tmp_path / "a")
        m2 = run(sc, out_dir=tmp_path / "b")
        csv_a = (tmp_path / "a" / f"{sc.name}.csv").read_bytes()
        csv_b = (tmp_path / "b" / f"{sc.name}.csv").read_bytes()
        assert csv_a == csv_b

    def test_cold_and_warm_caches_give_the_same_run(self):
        # Cached configuration matrices are the ones a cold build computes.
        clear_caches()
        cold = run(disturbance_scenario(340.0))
        warm = run(disturbance_scenario(340.0))
        assert cold.summary() == warm.summary()
        for f in fields(cold.trace):
            a, b = getattr(cold.trace, f.name), getattr(warm.trace, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    def test_row_count_matches_duration(self, tmp_path):
        sc = replace(tracking_scenario(), duration=5.0, name="short")
        m = run(sc, out_dir=tmp_path)
        lines = (tmp_path / "short.csv").read_text().strip().splitlines()
        assert lines[0].startswith("#")       # versioned schema header
        assert len(lines) == 2 + 250          # comment + column header + rows


class TestSimulation:
    def test_steps_reproduce_run(self):
        sc = disturbance_scenario(300.0, run_time=2.0)
        m = run(sc)
        sim = Simulation(sc)
        u, zmp = [], []
        for _ in range(sim.n_cycles):
            diag = sim.step()
            u.append(np.vstack([diag.u_x, diag.u_y]))
            zmp.append(sim.zmp_true)
        np.testing.assert_array_equal(np.asarray(u), m.trace.u)
        np.testing.assert_array_equal(np.asarray(zmp), m.trace.zmp_true)

    def test_step_past_the_last_cycle_raises(self):
        sim = Simulation(replace(inplace_scenario(noise=False), duration=0.1))
        for _ in range(sim.n_cycles):
            sim.step()
        with pytest.raises(IndexError):
            sim.step()
        assert sim.engine.k == sim.n_cycles == len(sim.tags) == 5

    def test_true_zmp_is_the_output_column(self):
        sim = Simulation(disturbance_scenario(300.0, run_time=2.0))
        for _ in range(sim.n_cycles):
            sim.step()
            assert sim.plant.shape == (2, 9)
            np.testing.assert_array_equal(sim.outputs, np.matvec(sim.engine.model.C, sim.plant))
            assert sim.zmp_true.tobytes() == sim.outputs[:, 2].tobytes()

    def test_frontal_push_moves_only_the_frontal_row(self):
        # Without turning the axes are decoupled, so a y push leaves the x
        # row of the plant bitwise as it was.
        base = inplace_scenario(duration=3.0)
        push = replace(base, disturbances=(Disturbance(t_start=1.0, duration=0.04, force=200.0,
                                                       axis="y"),))
        calm, pushed = Simulation(base), Simulation(push)
        frontal_moved = False
        for _ in range(calm.n_cycles):
            calm.step()
            pushed.step()
            assert pushed.plant[0].tobytes() == calm.plant[0].tobytes()
            frontal_moved |= not np.array_equal(pushed.plant[1], calm.plant[1])
        assert frontal_moved

    def test_softened_cycles_counted(self):
        # +440 N struggles for seconds, then falls.  Whether a cycle softens
        # depends only on its QP's optimum, whose slacks warm starts do not
        # change.
        sc = disturbance_scenario(440.0)
        m = run(sc, keep_trace=False)
        assert m.fall_detected and m.fall_time == pytest.approx(5.26)
        assert m.softened_cycles == 111
        sim = Simulation(sc)
        diags = [sim.step() for _ in range(m.n_cycles)]
        # Stepped alone, the simulation records the run's cycles and its fall.
        assert sim.fall_time == m.fall_time and len(sim.tags) == m.n_cycles
        assert sim.excursion[:m.n_cycles].max() == m.zmp_max_excursion
        assert m.softened_cycles == sum(sum(d.softened) for d in diags)
        assert m.qp_iterations == sum(sum(d.qp_iterations) for d in diags)
        assert m.summary()["softened_cycles"] == 111

    def test_max_iterations_cycles_counted(self, monkeypatch):
        # Capped at one iteration, the solve of every cycle that needs a
        # second active row ends on max_iterations.  Its iterate is applied,
        # the status reported, the axis's warm set dropped, and the run
        # counts the cycle.
        monkeypatch.setattr(ActiveSetSolver.__init__, "__defaults__", (1,))
        sc = tracking_scenario(n_steps=1, duration=2.0)
        sim = Simulation(sc)
        capped = 0
        for _ in range(sim.n_cycles):
            diag = sim.step()
            for axis, status in enumerate(diag.qp_status):
                if status != STATUS_OPTIMAL:
                    assert status == STATUS_MAX_ITERATIONS and diag.qp_iterations[axis] == 1
                    assert sim.engine.controller._warm[axis] is None
                    capped += 1
        m = run(sc)
        assert capped > 0 and m.nonoptimal_cycles == capped
        assert m.summary()["nonoptimal_cycles"] == capped

    def test_unsorted_schedule_runs_as_sorted(self):
        entries = ((1.0, 0.1, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (1.6, 0.1, 0.02, 5.0))
        base = replace(inplace_scenario(noise=False), duration=2.4)
        shuffled = run(replace(base, schedule=entries)).trace
        ordered = run(replace(base, schedule=tuple(sorted(entries)))).trace
        np.testing.assert_array_equal(shuffled.u, ordered.u)
        np.testing.assert_array_equal(shuffled.zmp_true, ordered.zmp_true)
        assert shuffled.phase == ordered.phase


class TestExport:
    def test_header_only_for_empty_run(self, tmp_path):
        sc = replace(inplace_scenario(noise=False), duration=0.005, name="empty")
        m = run(sc, out_dir=tmp_path)
        lines = (tmp_path / "empty.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_dotted_names_keep_their_files_apart(self, tmp_path):
        # ``with_suffix`` cut both names to ``run`` and the second run
        # overwrote the first one's files.
        base = replace(inplace_scenario(noise=False), duration=0.005)
        for name in ("run.v1", "run.v2"):
            run(replace(base, name=name), out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run.v1.csv", "run.v1.json", "run.v2.csv", "run.v2.json"]

    def test_summary_round_trips(self, tmp_path):
        sc = replace(tracking_scenario(), duration=3.0, name="rt")
        m = run(sc, out_dir=tmp_path)
        loaded = json.loads((tmp_path / "rt.json").read_text())
        assert loaded == m.summary()


class TestMaxWithstand:
    def toy_template(self):
        # Shorter run and horizon keep each probe cheap.
        sc = disturbance_scenario(300.0, run_time=4.0)
        return replace(sc, noise=NoiseSpec(enabled=True, bound=0.05, seed=2))

    def test_bracket_must_straddle(self):
        template = self.toy_template()
        with pytest.raises(BracketError):
            max_withstand(template, "fwd", bracket=(50.0, 100.0), tol=5.0)
        with pytest.raises(BracketError):
            max_withstand(template, "fwd", bracket=(2000.0, 4000.0), tol=5.0)

    def test_bisection_matches_fine_sweep(self):
        template = self.toy_template()
        found = max_withstand(template, "fwd", bracket=(200.0, 800.0), tol=8.0)
        assert found > 0.0

        def survives(F):
            m = run(with_impulse(template, F), keep_trace=False)
            return not m.fall_detected

        # Fine sweep across the reported bracket; the boundary must lie inside.
        assert survives(found)
        assert not survives(found + 8.0 + 1e-9) or not survives(found + 16.0)

    def test_direction_sign(self):
        with pytest.raises(ValueError):
            max_withstand(self.toy_template(), "sideways")

    @pytest.mark.parametrize("tol", [0.0, -5.0, math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol, monkeypatch):
        # With tol <= 0 the bisection never ends (adjacent floats stay one
        # ulp apart); with nan it returned the low end after two probes.
        monkeypatch.setattr(harness, "Simulation", None)   # no probe may start
        with pytest.raises(BracketError, match="tol"):
            max_withstand(self.toy_template(), "fwd", bracket=(200.0, 800.0), tol=tol)


def assert_same_run(a, b):
    """Bitwise-equal summaries and traces of two runs."""
    assert a.summary() == b.summary()
    for f in fields(a.trace):
        x, y = getattr(a.trace, f.name), getattr(b.trace, f.name)
        assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


def prefix_state(sim):
    """Everything of a simulation that a cycle could change, as comparable values."""
    engine, n = sim.engine, len(sim.tags)
    return (engine.k, sim.plant.tobytes(), sim.outputs.tobytes(), engine.estimates.tobytes(),
            engine.controller.u_prev.tobytes(), tuple(engine.controller._warm),
            tuple((g.hold, tuple(w.tobytes() for w in g.window)) for g in engine.gates),
            engine._queued, engine._rolling, engine.frame_angle, engine.setpoints,
            engine._followed,
            None if engine._refs is None else engine._lohi.tobytes(),
            str(sim._rng.bit_generator.state), tuple(sim._schedule), tuple(sim.tags),
            sim.u[:n].tobytes(), sim.excursion[:n].tobytes(), sim.fall_time, sim.fault)


class TestForkedProbes:
    """``run(probe, prefix=...)``, as ``max_withstand`` makes it, against a
    fresh ``run(probe)``."""

    @staticmethod
    def template(kind, onset, axis, mass_index, seed):
        push = (Disturbance(t_start=onset, duration=0.02, force=1.0, mass_index=mass_index,
                            axis=axis),)
        if kind == "path":   # two steps; the second, the last, spans about 1.3-2.3 s
            base = tracking_scenario(n_steps=2, noise=True, seed=seed, duration=3.0)
            return replace(base, disturbances=push)
        # A setpoint entry after the onset: the fork must copy the pending ones.
        return replace(inplace_scenario(duration=3.0, seed=seed, disturbances=push),
                       schedule=((0.0, 0.0, 0.0, 0.0), (min(onset + 0.3, 2.9), 0.08, 0.0, 5.0)))

    @settings(max_examples=5, deadline=None)
    @given(kind=st.sampled_from(["path", "setpoints"]),
           onset=st.floats(0.0, 2.9).map(lambda t: round(t, 2)),
           axis=st.sampled_from(["x", "y"]), mass_index=st.sampled_from([0, 1, 2]),
           seed=st.integers(0, 2**16),
           forces=st.lists(st.sampled_from([-900.0, -450.0, -120.0, 0.0, 60.0, 300.0, 700.0]),
                           min_size=2, max_size=3, unique=True))
    # Falling probes: both at 0 s (1.46, 2.52 s), -2000 N in the last step
    # (2.72 s), +700 N on the swing leg (2.80 s).
    @example(kind="path", onset=0.0, axis="x", mass_index=1, seed=0, forces=[300.0, 900.0])
    @example(kind="path", onset=1.9, axis="x", mass_index=1, seed=3, forces=[-2000.0, 200.0])
    @example(kind="setpoints", onset=1.0, axis="y", mass_index=2, seed=1,
             forces=[700.0, -150.0, 40.0])
    def test_forked_probe_equals_a_fresh_run(self, kind, onset, axis, mass_index, seed, forces):
        template = self.template(kind, onset, axis, mass_index, seed)
        fresh = {f: run(with_impulse(template, f)) for f in forces}
        prefix = Simulation(with_impulse(template, forces[0]))
        prefix.advance(round(onset / template.config.ts))   # as the first probe's run would
        shared = prefix_state(prefix)
        # Every probe forks from the prefix, in the drawn order and reversed.
        for force in forces + forces[::-1]:
            forked = run(with_impulse(template, force), prefix=prefix)
            assert_same_run(forked, fresh[force])
            assert prefix_state(prefix) == shared

    def test_prefix_stops_at_the_earliest_push(self):
        template = replace(disturbance_scenario(300.0, run_time=3.0),
                           disturbances=(Disturbance(1.6, 0.01, 300.0),
                                         Disturbance(1.1, 0.01, 50.0, axis="y")))
        prefix = Simulation(template)
        run(with_impulse(template, 400.0), prefix=prefix)
        assert prefix.engine.k == len(prefix.tags) == 55

    @pytest.mark.parametrize("change", [
        {"noise": NoiseSpec(enabled=True, seed=1)},   # another noise seed
        {"n_fall": 10},
        {"disturbances": (Disturbance(0.5, 0.01, 300.0),)},   # before the prefix's cycle
    ])
    def test_fork_refuses_another_scenario(self, change):
        template = disturbance_scenario(300.0, run_time=3.0)
        prefix = Simulation(template)
        prefix.advance(40)
        with pytest.raises(ValueError, match="fork"):
            prefix.fork(replace(template, **change))

    @pytest.mark.parametrize("direction", ["fwd", "bwd"])
    def test_bisection_ticks_only_inside_its_probes(self, direction, monkeypatch):
        # The push_bisect workload's bracket and tolerance.  Each tick's
        # innermost enclosing call is a ``run``, and the first probe runs the
        # shared prefix, so the bisection ticks (probes - 1) * onset fewer
        # cycles than fresh probes would.
        bracket, tol = (240.0, 640.0), 100.0
        template = disturbance_scenario(300.0)
        onset = round(1.6 / template.config.ts)
        stack, ticks, probes = [], [], []
        tick, run_probe = WalkEngine.tick, harness.run

        def counted_tick(engine, *args):
            ticks.append(stack[-1] if stack else None)
            return tick(engine, *args)

        def counted_run(scenario, *args, **kwargs):
            stack.append(len(probes))
            probes.append(scenario.disturbances[0].force)
            try:
                return run_probe(scenario, *args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(WalkEngine, "tick", counted_tick)
        monkeypatch.setattr(harness, "run", counted_run)
        max_withstand(template, direction, bracket=bracket, tol=tol)
        assert None not in ticks and len(probes) == 4
        assert ticks.count(0) > onset and all(ticks.count(i) > 0 for i in range(4))
        monkeypatch.undo()
        fresh = sum(run(with_impulse(template, f), keep_trace=False).n_cycles for f in probes)
        assert len(ticks) == fresh - (len(probes) - 1) * onset

    def test_template_without_disturbance_fails_before_any_cycle(self, monkeypatch):
        ticks = []
        tick = WalkEngine.tick
        monkeypatch.setattr(WalkEngine, "tick",
                            lambda engine, *args: ticks.append(engine.k) or tick(engine, *args))
        with pytest.raises(ValueError, match="no disturbance to scale"):
            max_withstand(tracking_scenario(), "fwd")
        assert ticks == []


class TestWithImpulse:
    def test_replaces_first_disturbance(self):
        sc = disturbance_scenario(100.0)
        out = with_impulse(sc, -250.0)
        assert out.disturbances[0].force == -250.0
        assert sc.disturbances[0].force == 100.0

    def test_requires_disturbance(self):
        with pytest.raises(ValueError):
            with_impulse(tracking_scenario(), 100.0)
