"""``tools/qp_replay.py``: the repository replayed against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import qp_replay  # noqa: E402


def test_replays_a_short_noisy_push_bitwise():
    # ``short_push`` is recorded without perfbench: a 440 N push on the noisy
    # tracking walk, which takes solves of every group.
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "qp_replay.py"), str(ROOT),
                           str(ROOT), "--workload", "short_push", "--passes", "2"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    total = int(re.match(r"qp_replay short_push: (\d+) solves, 2 alternated passes", lines[0])[1])
    calls = {}
    for group in qp_replay.GROUPS:
        (row,) = [line for line in lines if line.strip().startswith(group)]
        calls[group] = int(row.strip()[len(group):].split()[0])
    assert all(calls.values()) and sum(calls.values()) == total
    assert lines[-1].strip() == (f"bitwise equal: z, status, active set and iterations "
                                 f"on all {total} solves")


def test_compare_counts_the_calls_that_differ_per_field():
    parent = [["z0", "optimal", [1, 2], 3], ["z1", "optimal", [], 0]]
    change = [["z0", "optimal", [2, 1], 3], ["zz", "max_iterations", [], 0]]
    assert qp_replay.compare(parent, change) == {"z": 1, "status": 1, "active set": 1,
                                                 "iterations": 0}
    assert [qp_replay.group_of(fp) for fp in parent + [["z", "optimal", [4], 0],
                                                      ["z", "optimal", [4], 6]]] == [2, 0, 1, 3]
