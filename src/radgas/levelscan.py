"""Grid scan of L(T1, T2) over a rectangular window and contour extraction.

Reproduces the level-curve computation of the nonexistence quantity L: the
scan evaluates L on an evenly stepped grid (singular points are recorded, not
fatal), marching squares with linear interpolation pulls out the level
curves, and a report summarizes connectivity and saddle ambiguities, which is
what the smoothness hypothesis of the nonexistence result asks for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysConsts
from .collision_reduction import TripleQuadSpec, L_func, functionals
from .errors import EmptyLevel, SingularDenominator

__all__ = [
    "ScanWindow",
    "ScanResult",
    "ContourSet",
    "scan",
    "extract_contours",
    "smoothness_report",
]

#: Most grid nodes a window may have: 10^6 nodes is about 8 minutes of
#: quadrature at the default TripleQuadSpec, at 0.44-0.47 ms per node on a
#: 2-core Xeon VM (the Figure-1 window has 441).
_MAX_NODES = 10**6


@dataclass(frozen=True)
class ScanWindow:
    """Rectangular (T1, T2) window with a common step on both axes."""

    t1_min: float
    t1_max: float
    t2_min: float
    t2_max: float
    step: float

    def __post_init__(self):
        if not (self.t1_min > 0 and self.t2_min > 0):
            raise ValueError(f"temperatures must be > 0, got t1_min {self.t1_min}, t2_min {self.t2_min}")
        if not (self.t1_min < self.t1_max and self.t2_min < self.t2_max):
            raise ValueError("window must satisfy min < max on both axes")
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        for lo, hi in ((self.t1_min, self.t1_max), (self.t2_min, self.t2_max)):
            n = round((hi - lo) / self.step)
            if n < 1 or abs(n * self.step - (hi - lo)) > 1e-9:
                raise ValueError(f"step {self.step} does not divide range [{lo}, {hi}]")
        if (self.n1 + 1) * (self.n2 + 1) > _MAX_NODES:
            raise ValueError(f"step {self.step} gives more than {_MAX_NODES} grid nodes")

    @property
    def n1(self) -> int:
        return round((self.t1_max - self.t1_min) / self.step)

    @property
    def n2(self) -> int:
        return round((self.t2_max - self.t2_min) / self.step)

    def t1_values(self) -> np.ndarray:
        return self.t1_min + self.step * np.arange(self.n1 + 1)

    def t2_values(self) -> np.ndarray:
        return self.t2_min + self.step * np.arange(self.n2 + 1)


@dataclass
class ScanResult:
    """L values on the window grid; grid[i, j] = L(t1_min + i*step, t2_min + j*step)."""

    grid: np.ndarray
    window: ScanWindow
    failures: list

    def __post_init__(self):
        expected = (self.window.n1 + 1, self.window.n2 + 1)
        if self.grid.shape != expected:
            raise ValueError(f"grid shape {self.grid.shape} != window shape {expected}")


@dataclass
class ContourSet:
    """Extracted level curves: one list of (n, 2) polyline arrays per level."""

    levels: list
    polylines: list  # polylines[k] = list of arrays of (T1, T2) vertices
    saddle_counts: list  # ambiguous cells encountered per level


def scan(
    window: ScanWindow, consts: PhysConsts, spec: TripleQuadSpec = TripleQuadSpec()
) -> ScanResult:
    """Evaluate L on the window grid.

    Per-cell SingularDenominator is recorded in `failures` (the grid entry
    becomes NaN) without aborting the scan.  The evaluation is pure, so the
    result is independent of traversal order.  Each grid node costs one
    fused quadrature pass for its (T1, T2) pair; `functionals` caches the
    three T1-only integrals of a row as floats, so each row pays for them once.
    """
    t1s = window.t1_values()
    t2s = window.t2_values()
    grid = np.empty((len(t1s), len(t2s)))
    failures = []
    for i, T1 in enumerate(t1s):
        for j, T2 in enumerate(t2s):
            funcs = functionals(float(T1), float(T2), consts, spec)
            try:
                grid[i, j] = L_func(float(T1), float(T2), consts, spec, funcs=funcs)
            except SingularDenominator:
                grid[i, j] = np.nan
                failures.append((i, j))
    return ScanResult(grid=grid, window=window, failures=failures)


def _cell_segments(v00, v10, v11, v01, level):
    """Marching-squares segments for one cell in local [0,1]^2 coordinates.

    Returns (segments, is_saddle); each segment is ((x0, y0), (x1, y1)) with
    x along axis 0 and y along axis 1.  Saddle cells are resolved by
    comparing the corner average with the level.
    """

    def interp(va, vb):
        return (level - va) / (vb - va)

    above = (v00 > level, v10 > level, v11 > level, v01 > level)
    code = above[0] * 1 + above[1] * 2 + above[2] * 4 + above[3] * 8
    if code in (0, 15):
        return [], False

    bottom = (interp(v00, v10), 0.0) if above[0] != above[1] else None
    right = (1.0, interp(v10, v11)) if above[1] != above[2] else None
    top = (interp(v01, v11), 1.0) if above[3] != above[2] else None
    left = (0.0, interp(v00, v01)) if above[0] != above[3] else None

    if code in (5, 10):  # opposite corners above: two segments, ambiguous
        center_above = 0.25 * (v00 + v10 + v11 + v01) > level
        if (code == 5) == center_above:
            return [(bottom, right), (top, left)], True
        return [(bottom, left), (right, top)], True

    crossings = [e for e in (bottom, right, top, left) if e is not None]
    if len(crossings) != 2:  # degenerate (a corner exactly on the level)
        return [], False
    return [(crossings[0], crossings[1])], False


def _stitch(segments, tol):
    """Join segments sharing endpoints into maximal chains, deterministically."""

    def key(p):
        return (round(p[0] / tol), round(p[1] / tol))

    endpoint_map: dict = {}
    for idx, (p, q) in enumerate(segments):
        endpoint_map.setdefault(key(p), []).append((idx, 0))
        endpoint_map.setdefault(key(q), []).append((idx, 1))

    used = [False] * len(segments)
    chains = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        chain = [p, q]
        for grow_end in (True, False):
            while True:
                tip = chain[-1] if grow_end else chain[0]
                candidates = [
                    (idx, end)
                    for idx, end in endpoint_map.get(key(tip), [])
                    if not used[idx]
                ]
                if not candidates:
                    break
                idx, end = candidates[0]
                used[idx] = True
                nxt = segments[idx][1 - end]
                if grow_end:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        chains.append(np.asarray(chain, dtype=float))
    return chains


def extract_contours(result: ScanResult, levels) -> ContourSet:
    """Marching squares with linear interpolation on the scanned grid.

    Raises EmptyLevel if any requested level crosses no cell.  Cells touching
    a failed (NaN) grid node are skipped.
    """
    window = result.window
    grid = result.grid
    all_polylines = []
    saddle_counts = []
    for level in levels:
        segments = []
        saddles = 0
        for i in range(grid.shape[0] - 1):
            for j in range(grid.shape[1] - 1):
                corners = (grid[i, j], grid[i + 1, j], grid[i + 1, j + 1], grid[i, j + 1])
                if not all(np.isfinite(corners)):
                    continue
                segs, is_saddle = _cell_segments(*corners, float(level))
                saddles += is_saddle
                for (x0, y0), (x1, y1) in segs:
                    segments.append(((i + x0, j + y0), (i + x1, j + y1)))
        if not segments:
            raise EmptyLevel(f"level {level} intersects no grid cell")
        chains = _stitch(segments, tol=1e-9)
        polylines = [
            np.column_stack(
                (
                    window.t1_min + window.step * chain[:, 0],
                    window.t2_min + window.step * chain[:, 1],
                )
            )
            for chain in chains
        ]
        all_polylines.append(polylines)
        saddle_counts.append(saddles)
    return ContourSet(levels=list(levels), polylines=all_polylines, saddle_counts=saddle_counts)


def smoothness_report(result: ScanResult, contours: ContourSet) -> dict:
    """Connectivity/saddle/turning-angle summary per level.

    Levels with more than one connected component or any saddle ambiguity are
    flagged: those are exactly the failure modes of the smooth-curve
    hypothesis the scan is probing.
    """
    rows = []
    for level, polylines, saddles in zip(
        contours.levels, contours.polylines, contours.saddle_counts
    ):
        max_turn = 0.0
        for chain in polylines:
            if len(chain) < 3:
                continue
            d = np.diff(chain, axis=0)
            norms = np.linalg.norm(d, axis=1)
            keep = norms > 1e-14
            d = d[keep]
            norms = norms[keep]
            if len(d) < 2:
                continue
            cosang = np.sum(d[1:] * d[:-1], axis=1) / (norms[1:] * norms[:-1])
            max_turn = max(max_turn, float(np.max(np.arccos(np.clip(cosang, -1.0, 1.0)))))
        rows.append(
            {
                "level": float(level),
                "components": len(polylines),
                "saddles": int(saddles),
                "max_turning_angle": max_turn,
                "flagged": len(polylines) > 1 or saddles > 0,
            }
        )
    return {
        "levels": rows,
        "n_failures": len(result.failures),
        "any_flagged": any(r["flagged"] for r in rows),
    }
