"""The benchmark wraps program functions by name (``perfbench/tracing.py``).
A refactor that renames one, or stops calling it on the closed loop, fails
here rather than in a benchmark run."""

import sys
from dataclasses import replace
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


def test_every_tick_is_a_direct_child_of_a_run():
    # ``metrics.end_to_end`` counts only ticks whose parent span is a run.
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(triwalk)):
        harness.run(harness.tracking_scenario(n_steps=1, duration=1.0))
    ticks = [span for span in tracer.spans if span[0] == "engine.tick"]
    assert len(ticks) == 50
    assert all(span[1] >= 0 and tracer.spans[span[1]][0] == "harness.run" for span in ticks)


def test_max_withstand_records_one_run_per_probe():
    # ``metrics.per_layer`` counts a probe per run nested in a bisection.
    template = replace(harness.disturbance_scenario(300.0, run_time=4.0),
                       noise=harness.NoiseSpec(enabled=True, seed=2))
    lo, hi, tol = 200.0, 800.0, 150.0
    probes, width = 2, hi - lo
    while width > tol:
        width, probes = width / 2.0, probes + 1
    tracer = tracing.Tracer()
    with tracer.installed(tracing.targets(triwalk)):
        harness.max_withstand(template, "fwd", bracket=(lo, hi), tol=tol)
    bisection = [sid for sid, span in enumerate(tracer.spans)
                 if span[0] == "harness.max_withstand"]
    runs = [span for span in tracer.spans if span[0] == "harness.run"]
    assert len(bisection) == 1
    assert len(runs) == probes
    assert all(span[1] == bisection[0] for span in runs)
