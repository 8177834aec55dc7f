"""``tools/run_digest.py``: the repository against itself."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import run_digest  # noqa: E402


def test_a_short_push_digests_bitwise_equal():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "run_digest.py"), str(ROOT),
                           str(ROOT), "--runs", "short_push"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split() == ["short_push", "1", "runs", "bitwise", "equal"]
    assert lines[-1] == "all 1 runs bitwise equal: summary and every trace field"


def test_a_scenario_file_digests_bitwise_equal():
    path = ROOT / "tests" / "data" / "scenario_map.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "run_digest.py"), str(ROOT),
                           str(ROOT), "--runs", str(path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[1].split() == [str(path), "1", "runs", "bitwise", "equal"]


def test_compare_names_the_parts_that_differ():
    a = {"summary": "s", "u": "1", "refs": "2"}
    assert run_digest.compare([a, a], [a, a]) == []
    assert run_digest.compare([a, a], [a, {**a, "u": "x", "summary": "t"}]) == ["summary", "u"]
    assert run_digest.compare([a], [a, a]) == ["1 runs against 2"]
    # A run without a trace against one with a trace differs in every field.
    assert run_digest.compare([{"summary": "s"}], [a]) == ["u", "refs"]


@pytest.mark.parametrize("name", ["nope", "walk_map", "walk_map:x", "bogus:0"])
def test_unknown_run_names_are_refused(name, capsys):
    with pytest.raises(SystemExit) as exc:
        run_digest.main([str(ROOT), str(ROOT), "--runs", name])
    assert exc.value.code == 2
    assert "neither a scenario" in capsys.readouterr().err
