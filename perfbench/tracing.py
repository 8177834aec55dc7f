"""Spans recorded from outside the program by wrapping its public functions.

Each wrapped call appends one span ``(name, parent, t0_ns, t1_ns, unit, info)``
to an in-memory list; the span id is its index, so ids grow in start order.
``info`` is whatever the target's info function extracts from the call's
arguments and result (statuses, sizes, the commands applied).

Every function is wrapped at the name its caller looks up at call time: a
method on its class, a module function on the module whose code calls it
(``harness`` imports ``step_plant`` itself, ``control_step`` calls
``mpc.condense_constraints``).  ``Tracer.installed`` restores the originals on
exit, also after an error.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np


def _tick_info(args, kwargs, diag):
    return (diag.qp_status, diag.u_x, diag.u_y, diag.k, diag.phase.value,
            diag.support_feet)


def _run_info(args, kwargs, metrics):
    return (args[0], metrics)


def _solve_info(args, kwargs, sol):
    problem = args[1]
    warm = kwargs.get("warm_start", args[2] if len(args) > 2 else None)
    return (sol.status, sol.iterations, len(sol.active_set), problem.m, bool(warm))


def _observer_info(args, kwargs, result):
    return bool(kwargs.get("boosted", args[4] if len(args) > 4 else False))


def _plan_info(args, kwargs, result):
    plan, cells = result
    return (plan.n_steps, len(cells))


def targets(th):
    """(owner, attribute, span name, info function) of every wrapped
    function; a span name starts with its layer.  ``th`` is the imported
    ``triwalk`` package.  Tick and run come first because the untraced
    end-to-end measurement wraps only those two."""
    eng, hrn, mpc, qp = th.engine, th.harness, th.mpc, th.qp
    ref, fst = th.refgen, th.footstep
    return [
        (eng.WalkEngine, "tick", "engine.tick", _tick_info),
        (hrn, "run", "harness.run", _run_info),
        (hrn, "max_withstand", "harness.max_withstand", None),
        (hrn, "support_excursion", "harness.excursion", None),
        (hrn, "step_plant", "dynamics.step_plant", None),
        (eng, "discretize", "dynamics.discretize", None),
        (eng.WalkEngine, "__init__", "engine.init", None),
        (eng.WalkEngine, "plan_next_step", "engine.plan_next_step", None),
        (mpc.AxisController, "__init__", "mpc.axis_init", None),
        (mpc.Observer, "__init__", "mpc.observer_init", None),
        (mpc.Observer, "innovation_sigmas", "mpc.innovation", None),
        (mpc.Observer, "step", "mpc.observer", _observer_info),
        (mpc.AxisController, "control_step", "mpc.control_step", None),
        (mpc, "condense_constraints", "mpc.condense", None),
        (qp.ActiveSetSolver, "solve", "qp.solve", _solve_info),
        (ref.WalkTimeline, "__init__", "refgen.timeline", None),
        (ref.WalkTimeline, "sample", "refgen.sample", None),
        (fst, "plan_footsteps", "footstep.plan", _plan_info),
        (fst, "plan_path", "footstep.search", None),
        (hrn, "footsteps_from_path", "footstep.follow", None),
    ]


END_TO_END_TARGETS = 2   # engine.tick and harness.run


class Tracer:
    """In-memory span recorder; one per benchmark process."""

    def __init__(self, after_tick=None):
        """``after_tick`` is called after each ``engine.tick`` span closes."""
        self.spans: list = []
        self.unit = 0
        self._stack: list[int] = []
        self._after_tick = after_tick

    def _wrap(self, orig, name, info_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = self._after_tick if name == "engine.tick" else None

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, parent, t0, clock(), self.unit, None)
                raise
            finally:
                stack.pop()
            t1 = clock()
            info = info_fn(args, kwargs, result) if info_fn is not None else None
            spans[sid] = (name, parent, t0, t1, self.unit, info)
            if after is not None:
                after()
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    @contextlib.contextmanager
    def installed(self, target_list):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name, info_fn in target_list:
                own = vars(owner)
                saved.append((owner, attr, own.get(attr), attr in own))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, info_fn))
            yield self
        finally:
            for owner, attr, orig, had in reversed(saved):
                if had:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)

    def save(self, path) -> None:
        """Write the spans (without their info payloads) as compressed arrays.
        ``run`` is the id of the enclosing ``harness.run`` span, or -1."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        run = []
        for sid, s in enumerate(self.spans):
            run.append(sid if s[0] == "harness.run" else (run[s[1]] if s[1] >= 0 else -1))
        np.savez_compressed(
            path,
            run=np.array(run, dtype=np.int64),
            names=np.array(names),
            name=np.array([code[s[0]] for s in self.spans], dtype=np.int16),
            parent=np.array([s[1] for s in self.spans], dtype=np.int64),
            t0_ns=np.array([s[2] for s in self.spans], dtype=np.int64),
            t1_ns=np.array([s[3] for s in self.spans], dtype=np.int64),
            unit=np.array([s[4] for s in self.spans], dtype=np.int32),
        )
