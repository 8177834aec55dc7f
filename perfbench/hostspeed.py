"""Reference host speed for the benchmark's end-to-end times.

On a machine whose physical CPUs are shared, the same closed-loop run can
take 40% longer from one minute to the next, which swamps any change a
program edit makes.  So the benchmark times a fixed kernel (small numpy
linear algebra and Python-level work, like the controller's) at the start
of every unit and after a tick whenever PERIOD_NS has passed, and reports
each measured interval in reference-host time: the interval minus the
kernel runs inside it, weighted by REF_NS / (kernel time at that moment).
A host that runs the kernel in exactly REF_NS reports raw wall time.  The
kernel time at a moment is the median of the SMOOTH samples nearest to it.
Raw times are printed and stored beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_triangular

PERIOD_NS = 250_000_000
REF_NS = 1_000_000
SMOOTH = 5
_FAR_NS = 10**15


class HostSpeed:
    """Kernel samples ``(start_ns, end_ns)`` taken during one pass."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((60, 60))
        self._h = m @ m.T + 60.0 * np.eye(60)
        self._a = rng.standard_normal((240, 60))
        self._b = rng.standard_normal(60)
        self.samples: list[tuple[int, int]] = []
        self._next_ns = 0

    def sample(self) -> None:
        t0 = time.perf_counter_ns()
        for _ in range(10):
            low = np.linalg.cholesky(self._h)
            r = self._a @ solve_triangular(low, self._b, lower=True)
            [(i, float(v)) for i, v in enumerate(r)]
        t1 = time.perf_counter_ns()
        self.samples.append((t0, t1))
        self._next_ns = t1 + PERIOD_NS

    def maybe_sample(self) -> None:
        if time.perf_counter_ns() >= self._next_ns:
            self.sample()


class Scale:
    """Integrals over raw ``perf_counter_ns`` intervals, kernel runs left out:
    ``ref`` in reference-host ns, ``raw`` in plain ns."""

    def __init__(self, samples):
        s = np.asarray(samples, dtype=float).reshape(-1, 2)
        if s.shape[0] == 0:
            raise ValueError("no host-speed samples")
        dur = s[:, 1] - s[:, 0]
        k = SMOOTH // 2
        kernel = np.array([np.median(dur[max(0, i - k):i + k + 1]) for i in range(len(dur))])
        mid = 0.5 * (s[:, 0] + s[:, 1])
        edges = np.concatenate([[s[0, 0] - _FAR_NS], 0.5 * (mid[1:] + mid[:-1]),
                                [s[-1, 1] + _FAR_NS]])
        # Each sample's region splits into: before its kernel run, the run
        # itself (weight 0), after the run.
        bounds = np.append(np.column_stack([edges[:-1], s[:, 0], s[:, 1]]).ravel(), edges[-1])
        self._bounds = np.maximum.accumulate(bounds)
        factor = REF_NS / kernel
        ref_w = np.column_stack([factor, np.zeros_like(factor), factor]).ravel()
        raw_w = np.tile([1.0, 0.0, 1.0], len(factor))
        widths = np.diff(self._bounds)
        self._ref = (ref_w, np.concatenate([[0.0], np.cumsum(widths * ref_w)]))
        self._raw = (raw_w, np.concatenate([[0.0], np.cumsum(widths * raw_w)]))
        self.kernel_ms = kernel * 1e-6

    def _integral(self, table, a, b):
        weights, cum = table

        def at(x):
            x = np.asarray(x, dtype=float)
            i = np.clip(np.searchsorted(self._bounds, x, side="right") - 1, 0, len(weights) - 1)
            return cum[i] + (x - self._bounds[i]) * weights[i]

        return at(b) - at(a)

    def ref(self, a, b):
        return self._integral(self._ref, a, b)

    def raw(self, a, b):
        return self._integral(self._raw, a, b)
