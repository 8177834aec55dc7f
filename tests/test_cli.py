import json
from dataclasses import replace

import pytest

from triwalk.cli import main
from triwalk.footstep import GridMap, save_map
from triwalk.harness import tracking_scenario

from helpers import with_block


@pytest.fixture
def arena(tmp_path):
    grid = GridMap.empty(30, 20)
    grid = with_block(grid, 6, 10, 11, 15)
    path = tmp_path / "map.json"
    save_map(grid, path, start=(3, 3), goal=(16, 26))
    return path


class TestPlanCommand:
    def test_writes_plan(self, arena, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = main(["plan", str(arena), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["footprints"]) > 10
        assert data["body_path_cells"][0] == [3, 3]

    def test_missing_goal_rejected(self, tmp_path):
        grid = GridMap.empty(5, 5)
        path = tmp_path / "bare.json"
        save_map(grid, path)
        assert main(["plan", str(path)]) == 2

    @pytest.mark.parametrize("text, error", [
        (None, "map error: "),
        ("not json", "map error: "),
        ("[]", "map error: map must be a JSON object"),
        ('{"width": 5, "height": 5, "occupied": [[1.5, 2]], "start": [0, 0], "goal": [4, 4]}',
         "map error: occupied cell [1.5, 2] must hold two integers"),
        ('{"width": 5, "height": 5, "occupied": [[0, 0]], "start": [0, 0], "goal": [4, 4]}',
         "planning error: start cell (0, 0) is not free"),
        ('{"width": 5, "height": 5, "occupied": [[4, 4]], "start": [0, 0], "goal": [4, 4]}',
         "planning error: goal cell (4, 4) is not free"),
    ])
    def test_bad_input_is_a_map_or_planning_error(self, tmp_path, capsys, text, error):
        # A missing file, non-JSON text, a bad cell and a blocked start or
        # goal each ended in a traceback before.
        path = tmp_path / "map.json"
        if text is not None:
            path.write_text(text)
        assert main(["plan", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(error) and captured.out == ""


class TestRunCommand:
    def test_run_scenario_file(self, tmp_path, capsys):
        sc = tracking_scenario(n_steps=2, duration=3.0)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sc.to_json()))
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["completed"] is True
        assert summary["softened_cycles"] == 0 and summary["qp_iterations"] > 0
        assert summary["nonoptimal_cycles"] == 0
        assert (tmp_path / "out" / f"{sc.name}.csv").exists()
        assert (tmp_path / "out" / f"{sc.name}.json").exists()

    def test_exit_code_reflects_outcome(self, tmp_path, capsys):
        from triwalk.harness import disturbance_scenario
        sc = disturbance_scenario(2500.0)
        path = tmp_path / "fall.json"
        path.write_text(json.dumps(sc.to_json()))
        assert main(["run", str(path)]) == 1


    @pytest.mark.parametrize("data, args", [
        ({"mode": "bogus"}, []),
        ({"disturbances": [{"force": 300.0}]}, []),
        (None, ["--seed", "-1"]),
    ])
    def test_bad_input_is_a_scenario_error(self, tmp_path, capsys, data, args):
        # Each ended in a traceback before; --seed -1 leaked numpy's ValueError.
        path = tmp_path / "bad.json"
        sc = tracking_scenario(n_steps=1, duration=1.0).to_json()
        path.write_text(json.dumps(sc if data is None else {**sc, **data}))
        assert main(["run", str(path), *args]) == 2
        assert capsys.readouterr().err.startswith("scenario error: ")

    def test_seed_replaces_the_scenario_seed(self, tmp_path, capsys):
        sc = tracking_scenario(n_steps=1, noise=True, seed=0, duration=1.0)
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(sc.to_json()))
        runs = {}
        for seed in (None, 0, 3):
            assert main(["run", str(path)] + ([] if seed is None else ["--seed", str(seed)])) == 0
            runs[seed] = json.loads(capsys.readouterr().out)
        assert runs[None] == runs[0] != runs[3]
        path.write_text(json.dumps(replace(sc, noise=replace(sc.noise, seed=3)).to_json()))
        assert main(["run", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == runs[3]


class TestWithstandCommand:
    def test_requires_disturbance(self, tmp_path, capsys):
        sc = tracking_scenario(n_steps=2, duration=3.0)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sc.to_json()))
        assert main(["withstand", str(path), "--direction", "fwd"]) == 2

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_tol_must_be_finite_and_positive(self, tol, tmp_path, capsys):
        # At the parent "0" and "-1" bisected forever and "nan" returned the
        # low end after two probes.
        from triwalk.harness import disturbance_scenario
        path = tmp_path / "push.json"
        path.write_text(json.dumps(disturbance_scenario(300.0, run_time=3.0).to_json()))
        assert main(["withstand", str(path), "--direction", "fwd", "--tol", tol]) == 2
        assert "bracket error: tol must be finite and positive" in capsys.readouterr().err

    def test_bad_scenario_is_a_scenario_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "bogus"}))
        assert main(["withstand", str(path), "--direction", "fwd"]) == 2
        assert capsys.readouterr().err.startswith("scenario error: unknown mode")
