"""Test helpers built on the package: map editing, a CSV dump of a walk's
reference signals and the excursion of a point from a bare hull.  Unlike
``oracles.py`` they use package code; they are not references for it."""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from triwalk import harness, mpc, refgen
from triwalk.footstep import GridMap
from triwalk.harness import _half_planes, _violation
from triwalk.refgen import WalkTimeline

REFERENCE_CSV_COLUMNS = ("t", "r_z_x", "r_z_y", "r_st_x", "r_st_y",
                         "r_sw_x", "r_sw_y", "hip_x", "hip_y", "swing_z")


def clear_caches() -> None:
    """Empty every per-process cache of configuration-fixed quantities."""
    for cached in (mpc._controller_matrices, mpc._observer_gains, refgen._step_weights,
                   refgen._layout, refgen._clamped_rows, harness._support_polygon):
        cached.cache_clear()


def with_block(grid: GridMap, r0: int, c0: int, r1: int, c1: int) -> GridMap:
    """Copy of ``grid`` with the inclusive cell rectangle marked occupied."""
    occ = grid.occupancy.copy()
    occ[r0:r1 + 1, c0:c1 + 1] = True
    return replace(grid, occupancy=occ)


def export_references(timeline: WalkTimeline, path, n_cycles: int | None = None) -> None:
    """Write the sampled reference signals as CSV."""
    n = timeline.total_cycles if n_cycles is None else n_cycles
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(REFERENCE_CSV_COLUMNS)
        for k in range(n):
            s = timeline.sample(k)
            writer.writerow([
                f"{k * timeline.ts:.6f}",
                s.zmp[0], s.zmp[1],
                s.stance_mass[0], s.stance_mass[1],
                s.swing_mass[0], s.swing_mass[1],
                s.hip[0], s.hip[1],
                s.swing[2],
            ])


def polygon_excursion(point, hull: np.ndarray) -> float:
    """Largest half-plane violation of ``point`` (<= 0 means inside), through
    the half planes the harness derives from ``hull``."""
    return _violation(np.asarray(point, dtype=float), hull, _half_planes(hull))
