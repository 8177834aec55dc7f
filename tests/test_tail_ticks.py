"""``tools/tail_ticks.py``: the repository's own slowest ticks."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import tail_ticks  # noqa: E402


def test_a_short_tracking_run_reports_both_bands():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "tail_ticks.py"), str(ROOT),
                           "--workload", "tracking", "--duration", "2"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "tail_ticks: tracking"
    assert lines[1].startswith(f"{ROOT}: 100 ticks, p50 ")
    assert [cell.strip() for cell in lines[2].split("|")[1:]] == list(tail_ticks.PARTS)
    for line, (band, ticks) in zip(lines[3:], (("slowest 1 %", 1), ("p95-p99", 4))):
        assert line.startswith(f"  {band:<12} {ticks:>6} ")
        cells = line.split("|")[1:]
        assert len(cells) == len(tail_ticks.PARTS)
        # Every tick solves both axes' QPs and runs the observer.
        for cell in cells[-2:]:
            assert cell.split()[-1] == "100%"
    assert len(lines) == 5


def test_bands_average_over_their_ticks():
    # Ticks of 1 .. 100 us; every fourth builds a timeline of a tenth of it.
    width = 1 + 2 * len(tail_ticks.PARTS)
    rows = []
    for t in range(1, 101):
        row = [0] * width
        row[0] = t * 1000
        if t % 4 == 0:
            row[1], row[2] = t * 100, 1
        rows.append(row)
    summary = tail_ticks.summarize(rows)
    assert summary["ticks"] == 100
    assert summary["p50_us"] == pytest.approx(50.5)
    slowest, band = summary["slowest 1 %"], summary["p95-p99"]
    assert slowest["ticks"] == 1 and slowest["tick_us"] == 100.0
    assert slowest["timeline"] == {"mean_us": 10.0, "share": 1.0}
    assert band["ticks"] == 4 and band["tick_us"] == pytest.approx(97.5)   # ticks 96 .. 99
    assert band["timeline"] == {"mean_us": pytest.approx(2.4), "share": 0.25}
    assert band["QP"] == {"mean_us": 0.0, "share": 0.0}


def test_an_empty_band_reads_none():
    width = 1 + 2 * len(tail_ticks.PARTS)
    summary = tail_ticks.summarize([[1000 * t] + [0] * (width - 1) for t in range(1, 11)])
    assert summary["p95-p99"]["ticks"] == 0
    assert summary["p95-p99"]["QP"] == {"mean_us": None, "share": None}
    assert "-" in tail_ticks.report("x", summary)[-1]


@pytest.mark.parametrize("name", ["nope", "walk_map:0"])
def test_unknown_workloads_are_refused(name, capsys):
    with pytest.raises(SystemExit) as exc:
        tail_ticks.main([str(ROOT), "--workload", name])
    assert exc.value.code == 2
    assert "neither a scenario" in capsys.readouterr().err


def test_a_short_tracking_run_reports_its_setup():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "tail_ticks.py"), str(ROOT),
                           "--workload", "tracking", "--duration", "2", "--setup"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "tail_ticks: tracking"
    assert lines[1].startswith(f"{ROOT}: 1 runs, set-up p50 ")
    assert [cell.strip() for cell in lines[2].split("|")] == ["run  set-up us",
                                                              *tail_ticks.SETUP_PARTS]
    assert lines[3].split()[0] == "0" and lines[4].split()[0] == "p50"
    # One run: its row is the p50 row; it builds a simulation, not a fork.
    assert lines[3].split()[1:] == lines[4].split()[1:]
    setup, check, init, fork, engine = (float(cell.split()[-1]) for cell in lines[3].split("|"))
    assert fork == 0.0 and 0.0 < engine < init < setup and check > 0.0
    assert len(lines) == 5


def test_a_two_probe_bisection_splits_each_setup(monkeypatch):
    # The bracket is within the tolerance, so max_withstand probes its two
    # ends: the first run's set-up builds the prefix simulation, the
    # second's forks it.
    import triwalk
    from triwalk import harness

    for owner, attr, _ in tail_ticks.setup_targets(triwalk):
        monkeypatch.setattr(owner, attr, getattr(owner, attr))   # restored afterwards
    monkeypatch.setattr(triwalk.engine.WalkEngine, "tick", triwalk.engine.WalkEngine.tick)
    monkeypatch.setattr(harness, "run", harness.run)
    rows, start = tail_ticks.record_setups(triwalk)
    start()
    template = harness.disturbance_scenario(300.0, run_time=2.4)
    assert harness.max_withstand(template, "fwd", bracket=(100.0, 3000.0), tol=5000.0) == 100.0
    summary = tail_ticks.summarize_setups(rows)
    (setup0, check0, init0, fork0, engine0), (setup1, check1, init1, fork1, engine1) = \
        summary["runs"]
    assert check0 > 0.0 and 0.0 < engine0 < init0 < setup0 and fork0 == 0.0
    assert check1 > 0.0 and 0.0 < fork1 < setup1 and init1 == engine1 == 0.0
    assert summary["p50"] == pytest.approx([(a + b) / 2 for a, b in zip(*summary["runs"])])
    assert "p50" in tail_ticks.report_setups("x", summary)[-1]
