"""The benchmark wraps program functions by name (``perfbench/tracing.py``).
A refactor that renames one, or stops calling it on the closed loop, fails
here rather than in a benchmark run."""

import sys
from pathlib import Path

import triwalk
from triwalk import harness

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_wrapped_function_exists():
    for owner, attr, name, _ in tracing.targets(triwalk):
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr} is missing"


def test_closed_loop_records_every_common_span():
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(triwalk)):
        metrics = harness.run(harness.tracking_scenario(n_steps=1, duration=2.0))
    assert metrics.completed
    recorded = {span[0] for span in tracer.spans}
    assert set(workloads.COMMON_SPANS) <= recorded, set(workloads.COMMON_SPANS) - recorded
