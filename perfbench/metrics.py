"""End-to-end and per-layer metrics computed from recorded spans.

A span is ``(name, parent, t0_ns, t1_ns, unit, info)`` (see ``tracing``).
Counts and summed times are given per workload unit (the mean over the
units of the run); latencies are percentiles over every call of the run.
"""

from __future__ import annotations

import resource
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

NS = 1e-9


def pct(values, q: float) -> float:
    """Percentile ``q`` (0..100), 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return pct(values, 50.0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Unit:
    index: int
    start_ns: int
    first_sid: int
    end_sid: int
    checks: list
    report: dict
    runs: list = field(default_factory=list)   # (run sid, [tick sids])


def index_runs(spans, unit: Unit) -> None:
    """Attach each ``harness.run`` span of the unit with its direct ticks."""
    ticks = defaultdict(list)
    runs = []
    for sid in range(unit.first_sid, unit.end_sid):
        name, parent = spans[sid][0], spans[sid][1]
        if name == "harness.run":
            runs.append(sid)
        elif name == "engine.tick":
            ticks[parent].append(sid)
    unit.runs = [(r, ticks[r]) for r in runs]


def tick_failed(span) -> bool:
    """A tick fails when it raised or either axis returned a non-optimal QP."""
    info = span[5]
    return info is None or info[0] != ("optimal", "optimal")


def end_to_end(spans, units: list[Unit], failed_checks: int, scale):
    """Every end-to-end metric, in reference-host time (see ``hostspeed``),
    plus the sample counts and raw wall-clock values behind it."""
    setups, walls, walls_raw, rtfs = [], [], [], []
    t0s, t1s, failed_ticks, deadline_ms = [], [], 0, None
    for unit in units:
        prev_end = unit.start_ns
        first_tick = None
        sim_s = 0.0
        for run_sid, tick_sids in unit.runs:
            run = spans[run_sid]
            ts = run[5][0].config.ts if run[5] is not None else 0.02
            deadline_ms = ts * 1e3
            if tick_sids:
                t_first = spans[tick_sids[0]][2]
                setups.append(scale.ref(prev_end, t_first) * NS)
                if first_tick is None:
                    first_tick = t_first
            prev_end = run[3]
            sim_s += len(tick_sids) * ts
            for sid in tick_sids:
                t0s.append(spans[sid][2])
                t1s.append(spans[sid][3])
                failed_ticks += tick_failed(spans[sid])
        if first_tick is not None:
            walls.append(scale.ref(first_tick, prev_end) * NS)
            walls_raw.append(scale.raw(first_tick, prev_end) * NS)
            rtfs.append(sim_s / walls[-1])
    n_ticks = len(t0s)
    ticks = scale.ref(np.array(t0s, dtype=float), np.array(t1s, dtype=float)) * 1e-6
    raw = (np.array(t1s, dtype=float) - np.array(t0s, dtype=float)) * 1e-6
    missed = int(np.sum(ticks > deadline_ms)) if n_ticks else 0
    fail_frac = (failed_ticks + failed_checks) / max(1, n_ticks)
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "sim_rtf": (median(rtfs), "s/s"),
        "tick_p50_ms": (pct(ticks, 50.0), "ms"),
        "tick_p99_ms": (pct(ticks, 99.0), "ms"),
        "deadline_met_frac": (1.0 - missed / max(1, n_ticks), "frac"),
        "ok_frac": (1.0 - fail_frac, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    counts = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"median of {len(walls)} units; raw {median(walls_raw):.4g} s",
        "sim_rtf": f"median of {len(rtfs)} units",
        "tick_p50_ms": f"n={n_ticks} ticks; raw {pct(raw, 50.0):.4g} ms",
        "tick_p99_ms": f"n={n_ticks} ticks, {int(n_ticks * 0.01)} beyond; "
                       f"raw {pct(raw, 99.0):.4g} ms",
        "deadline_met_frac": f"deadline_miss_frac={missed / max(1, n_ticks):.6f} "
                             f"({missed} of {n_ticks} ticks over {deadline_ms} ms)",
        "ok_frac": f"fail_frac={fail_frac:.6f} ({failed_ticks} failed ticks, "
                   f"{failed_checks} failed checks, base {n_ticks} ticks)",
        "peak_rss_mb": "ru_maxrss",
    }
    return metrics, counts, n_ticks, failed_ticks


def per_layer(spans, units: list[Unit], overhead_frac: float, scale):
    """Every per-layer metric of one traced run, in raw wall-clock time
    (``scale`` only removes the host-speed kernel runs from harness cycles)."""
    n_units = max(1, len(units))
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sid, s in enumerate(spans):
        by_name[s[0]].append(sid)
        if s[1] >= 0:
            children[s[1]].append(sid)

    def dur(sid):
        s = spans[sid]
        return s[3] - s[2]

    def self_time(sid, prefix=""):
        """Duration minus the child spans whose name does not start with
        ``prefix`` (all children for the empty prefix)."""
        inner = sum(dur(c) for c in children[sid]
                    if not (prefix and spans[c][0].startswith(prefix)))
        return dur(sid) - inner

    def durs(name):
        return np.array([dur(i) for i in by_name[name]], dtype=float)

    def per_unit(x):
        return x / n_units

    m = {}
    # qp --------------------------------------------------------------------
    solves = by_name["qp.solve"]
    done = [i for i in solves if spans[i][5] is not None]
    infos = [spans[i][5] for i in done]
    done_ns = np.array([dur(i) for i in done], dtype=float)
    solve_ns = durs("qp.solve")
    empty = np.array([i[2] == 0 for i in infos], dtype=bool)
    # A control step solves again, softened, after an infeasible first solve.
    solves_per_step = defaultdict(int)
    for i in solves:
        solves_per_step[spans[i][1]] += 1
    resolves = sum(n - 1 for n in solves_per_step.values() if n > 1)
    m["qp.solves"] = (per_unit(len(solves)), "count")
    m["qp.solve_ms_p50"] = (pct(solve_ns, 50) * 1e-6, "ms")
    m["qp.solve_ms_p99"] = (pct(solve_ns, 99) * 1e-6, "ms")
    m["qp.solve_s"] = (per_unit(solve_ns.sum()) * NS, "s")
    m["qp.empty_exit_frac"] = (float(empty.mean()) if len(empty) else 0.0, "frac")
    m["qp.empty_solve_us_p50"] = (pct(done_ns[empty], 50) * 1e-3, "us")
    m["qp.active_solve_ms_p50"] = (pct(done_ns[~empty], 50) * 1e-6, "ms")
    m["qp.active_solve_ms_p99"] = (pct(done_ns[~empty], 99) * 1e-6, "ms")
    iters = np.array([i[1] for i in infos], dtype=float)
    m["qp.iterations"] = (per_unit(iters.sum()), "count")
    m["qp.iterations_p99"] = (pct(iters, 99), "count")
    m["qp.active_set_p99"] = (pct([i[2] for i in infos], 99), "count")
    m["qp.rows_per_solve"] = (float(np.mean([i[3] for i in infos])) if infos else 0.0, "count")
    m["qp.warm_start_frac"] = (float(np.mean([i[4] for i in infos])) if infos else 0.0, "frac")
    m["qp.resolves"] = (per_unit(resolves), "count")
    m["qp.nonoptimal"] = (per_unit(sum(i[0] != "optimal" for i in infos)), "count")

    # mpc -------------------------------------------------------------------
    steps = by_name["mpc.control_step"]
    m["mpc.control_step_ms_p50"] = (pct(durs("mpc.control_step"), 50) * 1e-6, "ms")
    m["mpc.control_step_ms_p99"] = (pct(durs("mpc.control_step"), 99) * 1e-6, "ms")
    m["mpc.control_step_self_s"] = (
        per_unit(sum(self_time(i) for i in steps)) * NS, "s")
    m["mpc.condense_calls"] = (per_unit(len(by_name["mpc.condense"])), "count")
    m["mpc.condense_s"] = (per_unit(durs("mpc.condense").sum()) * NS, "s")
    m["mpc.observer_us_p50"] = (pct(durs("mpc.observer"), 50) * 1e-3, "us")
    boosted = [spans[i][5] for i in by_name["mpc.observer"] if spans[i][5] is not None]
    m["mpc.boost_frac"] = (float(np.mean(boosted)) if boosted else 0.0, "frac")
    setup_ns = defaultdict(int)
    for name in ("mpc.axis_init", "mpc.observer_init"):
        for i in by_name[name]:
            setup_ns[spans[i][1]] += dur(i)
    m["mpc.setup_ms"] = (median(list(setup_ns.values())) * 1e-6, "ms")

    # refgen ----------------------------------------------------------------
    m["refgen.samples"] = (per_unit(len(by_name["refgen.sample"])), "count")
    m["refgen.sample_s"] = (per_unit(durs("refgen.sample").sum()) * NS, "s")
    m["refgen.timelines"] = (per_unit(len(by_name["refgen.timeline"])), "count")

    # engine ----------------------------------------------------------------
    # Tick self time: the tick minus its observer, control-step and refgen
    # children; engine work nested in the tick (plan_next_step) stays in.
    tick_self = [self_time(i, "engine.") for i in by_name["engine.tick"]]
    m["engine.tick_self_ms_p50"] = (pct(tick_self, 50) * 1e-6, "ms")
    m["engine.tick_self_ms_p99"] = (pct(tick_self, 99) * 1e-6, "ms")
    n_steps = 0
    for unit in units:
        for _run, tick_sids in unit.runs:
            prev = None
            for sid in tick_sids:
                info = spans[sid][5]
                phase = info[4] if info is not None else None
                n_steps += phase == "single_support" and prev != "single_support"
                prev = phase
    m["engine.steps"] = (per_unit(n_steps), "count")
    m["engine.plan_next_step_calls"] = (per_unit(len(by_name["engine.plan_next_step"])), "count")

    # footstep --------------------------------------------------------------
    plans = [spans[i][5] for i in by_name["footstep.plan"] if spans[i][5] is not None]
    m["footstep.plan_ms"] = (median(durs("footstep.plan")) * 1e-6, "ms")
    m["footstep.search_ms"] = (median(durs("footstep.search")) * 1e-6, "ms")
    m["footstep.follow_ms"] = (median(durs("footstep.follow")) * 1e-6, "ms")
    m["footstep.path_cells"] = (float(np.mean([p[1] for p in plans])) if plans else 0.0, "count")
    m["footstep.steps_planned"] = (float(np.mean([p[0] for p in plans])) if plans else 0.0, "count")

    # dynamics --------------------------------------------------------------
    m["dynamics.step_plant_us_p50"] = (pct(durs("dynamics.step_plant"), 50) * 1e-3, "us")
    m["dynamics.discretize_ms"] = (median(durs("dynamics.discretize")) * 1e-6, "ms")

    # harness ---------------------------------------------------------------
    cycle_self = []
    probes = prepush = probe_cycles = 0
    bisections = set(by_name["harness.max_withstand"])
    for run_sid in by_name["harness.run"]:
        # One cycle runs from one tick's start to the next; its self time is
        # what the harness loop spends outside the wrapped calls.
        start = None
        inside = 0
        for c in children[run_sid]:
            s = spans[c]
            if s[0] == "engine.tick":
                if start is not None:
                    cycle_self.append(scale.raw(start, s[2]) - inside)
                start, inside = s[2], 0
            if start is not None:
                inside += s[3] - s[2]
        if spans[run_sid][1] in bisections:
            probes += 1
            scenario = spans[run_sid][5][0] if spans[run_sid][5] is not None else None
            onset = (round(scenario.disturbances[0].t_start / scenario.config.ts)
                     if scenario is not None and scenario.disturbances else 0)
            for c in children[run_sid]:
                s = spans[c]
                if s[0] == "engine.tick":
                    probe_cycles += 1
                    prepush += s[5] is not None and s[5][3] < onset
    m["harness.excursion_us_p50"] = (pct(durs("harness.excursion"), 50) * 1e-3, "us")
    m["harness.cycle_self_us_p50"] = (pct(cycle_self, 50) * 1e-3, "us")
    m["harness.probes"] = (per_unit(probes), "count")
    m["harness.prepush_cycle_frac"] = (prepush / probe_cycles if probe_cycles else 0.0, "frac")

    m["bench.trace_overhead_frac"] = (overhead_frac, "frac")
    return m


def span_counts(spans) -> dict[str, int]:
    counts = defaultdict(int)
    for s in spans:
        counts[s[0]] += 1
    return dict(counts)
