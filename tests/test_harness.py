import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from triwalk.engine import SupportFoot
from triwalk.harness import (
    BracketError,
    Disturbance,
    NoiseSpec,
    Scenario,
    Simulation,
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

    def test_support_excursion_single_foot(self):
        foot = SupportFoot(0.0, 0.0, 0.0, 0.1, 0.05)
        assert support_excursion((0.0, 0.0), (foot,)) == pytest.approx(-0.05)
        assert support_excursion((0.15, 0.0), (foot,)) == pytest.approx(0.05)

    def test_scaled_polygon_is_tighter(self):
        foot = SupportFoot(0.0, 0.0, 0.0, 0.1, 0.05)
        assert support_excursion((0.095, 0.0), (foot,)) < 0.0
        assert support_excursion((0.095, 0.0), (foot,), scale=0.9) > 0.0

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
        feet = (SupportFoot(0.0, 0.0, 0.3, 0.1, 0.05), SupportFoot(0.05, 0.2, -0.2, 0.1, 0.05))
        for scale in (1.0, 0.9):
            scaled = [replace(f, half_length=f.half_length * scale,
                              half_width=f.half_width * scale) for f in feet]
            hull = convex_hull(np.vstack([f.corners() for f in scaled]))
            for p in rng.uniform(-0.3, 0.4, size=(50, 2)):
                expected = loop_excursion(p, hull)
                assert support_excursion(p, feet, scale) == pytest.approx(expected, abs=1e-15)
                assert polygon_excursion(p, hull) == pytest.approx(expected, abs=1e-15)

    def test_rotated_foot_containment(self):
        foot = SupportFoot(0.0, 0.0, math.pi / 4, 0.1, 0.05)
        along = 0.09 * np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        assert support_excursion(along, (foot,)) < 0.0
        assert support_excursion((0.09, 0.0), (foot,)) > 0.0


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        sc = disturbance_scenario(250.0, seed=3)
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc.to_json()))
        again = Scenario.from_json(path)
        assert again.to_json() == sc.to_json()

    def test_validation_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            Scenario(mode="fly").validate()

    @pytest.mark.parametrize("field, value", [
        ("duration", 0.0), ("duration", -0.01), ("duration", math.nan), ("duration", math.inf),
        ("t_start", math.nan), ("t_start", math.inf), ("force", math.nan), ("force", math.inf),
        ("force", -math.inf),
    ])
    def test_disturbance_values_checked(self, field, value):
        sc = disturbance_scenario(300.0)
        bad = replace(sc, disturbances=(replace(sc.disturbances[0], **{field: value}),))
        with pytest.raises(ValueError):
            bad.validate()
        data = json.loads(json.dumps(sc.to_json()))
        data["disturbances"][0][field] = value
        with pytest.raises(ValueError):
            Scenario.from_json(data)

    @pytest.mark.parametrize("path, value", [
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
    ])
    def test_scenario_values_checked(self, path, value):
        data = json.loads(json.dumps(tracking_scenario(noise=True).to_json()))
        *parents, key = path
        section = data
        for name in parents:
            section = section[name]
        section[key] = value
        with pytest.raises(ValueError, match=key):
            Scenario.from_json(data)

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
        sc = inplace_scenario(duration=1.0,
                              disturbances=(Disturbance(t_start=0.9, duration=0.5, force=10.0),))
        with pytest.raises(ValueError):
            sc.validate()


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


class TestWithImpulse:
    def test_replaces_first_disturbance(self):
        sc = disturbance_scenario(100.0)
        out = with_impulse(sc, -250.0)
        assert out.disturbances[0].force == -250.0
        assert sc.disturbances[0].force == 100.0

    def test_requires_disturbance(self):
        with pytest.raises(ValueError):
            with_impulse(tracking_scenario(), 100.0)
