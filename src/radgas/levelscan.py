"""Grid scan of L(T1, T2) over a rectangular window and contour extraction.

Reproduces the level-curve computation of the nonexistence quantity L: the
scan evaluates L on an evenly stepped grid (singular points are recorded, not
fatal), marching squares with linear interpolation pulls out the level
curves, and a report summarizes connectivity and saddle ambiguities, which is
what the smoothness hypothesis of the nonexistence result asks for.

A grid value exactly on a level counts as below it (v > level is above), so
a cell crosses a level exactly when min(corners) <= level < max(corners).
Marching squares and the report each run as one array pass over the
crossing (level, cell) pairs and the chain vertices.  Segments join into
chains at vertices whose coordinates are bit-equal, with no tolerance: one
stable sort groups the endpoints by (level, x, y), and one Python walk over
the segments follows those groups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .constants import PhysConsts
from .collision_reduction import TripleQuadSpec, _rows
from .errors import EmptyLevel

__all__ = [
    "ScanWindow",
    "ScanResult",
    "ContourSet",
    "scan",
    "extract_contours",
    "smoothness_report",
]

#: Most grid nodes a window may have (the Figure-1 window has 441).  At the cap
#: `scan` took 2.6-3.4 s at the default TripleQuadSpec on a 2-core Xeon VM, and
#: `extract_contours` with `smoothness_report` 0.04-0.06 s for 8 or 20 levels.
_MAX_NODES = 10**6

#: Most nodes per `_rows` call in `scan`.  Of 64 to 512, timed in process on
#: six windows on a 2-core Xeon VM, 128 and 160 were fastest; 96 and below
#: lost on rows of 61-81 nodes, 192 and above ran the Figure-1 and 31 x 61
#: windows 1.3-1.4x slower than 128.
_BLOCK_NODES = 128


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
            if n < 1 or abs(n * self.step - (hi - lo)) > 1e-9 * (hi - lo):
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
    """Evaluate L on the window grid, one `collision_reduction._rows` call
    per block of `_BLOCK_NODES` nodes or fewer: whole rows, or runs of a row
    longer than a block.  A node that fails one of `_rows`' checks is NaN
    and is recorded in `failures`, in row-major order; the scan goes on.  No
    node's value depends on the others in its block.
    """
    t1s, t2s = window.t1_values(), window.t2_values()
    rows, cols = max(1, _BLOCK_NODES // len(t2s)), min(len(t2s), _BLOCK_NODES)
    grid = np.empty((len(t1s), len(t2s)))
    fail = np.empty(grid.shape, dtype=np.int8)
    for i, j in itertools.product(range(0, len(t1s), rows), range(0, len(t2s), cols)):
        block = _rows(t1s[i : i + rows], t2s[j : j + cols], consts, spec)
        grid[i : i + rows, j : j + cols] = block.L
        fail[i : i + rows, j : j + cols] = block.fail
    return ScanResult(grid=grid, window=window, failures=[(i, j) for i, j in np.argwhere(fail).tolist()])


#: Cell edges in local [0, 1]^2 coordinates, x along axis 0: 0 bottom (v00 to
#: v10), 1 right (v10 to v11), 2 top (v01 to v11), 3 left (v00 to v01).
#: _EDGE_PAIRS[code] is the segment of a cell that is no saddle: its two
#: crossed edges in that order.  A corner is above the level when v > level
#: and code = above(v00) + 2 above(v10) + 4 above(v11) + 8 above(v01); codes
#: 0 and 15 cross nothing, and a saddle (5 or 10) takes two rows of the table.
_EDGE_PAIRS = np.array(
    [[0, 0], [0, 3], [0, 1], [1, 3], [1, 2], [0, 0], [0, 2], [2, 3],
     [2, 3], [0, 2], [0, 0], [1, 2], [1, 3], [0, 1], [0, 3], [0, 0]]
)


def extract_contours(result: ScanResult, levels) -> ContourSet:
    """Marching squares with linear interpolation on the scanned grid.

    A corner exactly on a level counts as below it (v > level is above), so
    a cell crosses a level exactly when min(corners) <= level < max(corners),
    and a crossed cell that is no saddle has exactly two crossed edges.  A
    crossing sits at (level - va)/(vb - va) along its edge, with the corners
    of a shared edge in the same order for both cells.  A saddle cell (two
    opposite corners above) is resolved by comparing the corner average with
    the level.  Cells touching a failed (NaN) or infinite grid node are
    skipped.  The (level, cell) pairs that cross are found per cell from the
    sorted levels and processed in one array pass.

    Chains join segments of one level at vertices with bit-equal
    coordinates, with no tolerance; one stable sort of the endpoints by
    (level, x, y) and one Python walk over the segments build every chain.
    A chain starts at the first unused segment in row-major cell order,
    grows at that segment's second end and then at its first, and at each
    tip takes the first unused (segment, end) at the tip's point.

    Raises EmptyLevel naming the first level, in input order, that crosses
    no cell.
    """
    window = result.window
    grid = result.grid
    levels = list(levels)
    values = np.array([float(level) for level in levels])
    n2 = grid.shape[1] - 1
    # per-cell corner range, on views of the grid; NaN propagates
    v00, v10, v11, v01 = grid[:-1, :-1], grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:]
    lo = np.minimum(v00, v10)
    np.minimum(lo, v11, out=lo)
    np.minimum(lo, v01, out=lo)
    hi = np.maximum(v00, v10)
    np.maximum(hi, v11, out=hi)
    np.maximum(hi, v01, out=hi)
    cells = np.flatnonzero(np.isfinite(lo) & np.isfinite(hi))
    # a cell crosses the levels of sorted rank r with lo <= level < hi, that
    # is first <= r < first + count; equal levels may take either rank
    order = np.argsort(values)
    ordered = values[order]
    first = np.searchsorted(ordered, lo.ravel()[cells])
    counts = np.searchsorted(ordered, hi.ravel()[cells]) - first
    del lo, hi  # the rest of the pass is per crossing, not per cell
    # the crossing (level, cell) pairs in row-major cell order
    cell = np.repeat(cells, counts)
    rank = np.arange(len(cell)) - np.repeat(np.cumsum(counts) - counts - first, counts)
    level_of = order[rank]

    i, j = np.divmod(cell, n2)
    node = cell + i  # the cell's v00 in the flat grid
    flat = grid.ravel()
    a, b, c, d = flat[node], flat[node + n2 + 1], flat[node + n2 + 2], flat[node + 1]
    lev = values[level_of]
    code = 1 * (a > lev) + 2 * (b > lev) + 4 * (c > lev) + 8 * (d > lev)
    with np.errstate(all="ignore"):  # the quotients of edges that do not cross are never read
        x = np.column_stack((i + (lev - a) / (b - a), i + 1.0, i + (lev - d) / (c - d), i + 0.0))
        y = np.column_stack((j + 0.0, j + (lev - b) / (c - b), j + 1.0, j + (lev - a) / (d - a)))

    # a saddle cuts off the two corners on the other side of its centre:
    # v10 and v01 (codes 2 and 8) when the centre is on v00's side, else v00
    # and v11 (codes 1 and 4); its segments are those of the two corners
    saddle = (code == 5) | (code == 10)
    pair = np.repeat(np.arange(len(code)), 1 + saddle)
    seg_code = code[pair]
    if saddle.any():
        at = np.flatnonzero(saddle)
        center_above = 0.25 * (a[at] + b[at] + c[at] + d[at]) > lev[at]
        cut_10_01 = center_above == (a[at] > lev[at])
        start = at + np.arange(len(at))  # a saddle's first segment, after the earlier saddles' second
        seg_code[start] = np.where(cut_10_01, 2, 1)
        seg_code[start + 1] = np.where(cut_10_01, 8, 4)
    edges = _EDGE_PAIRS[seg_code]
    # segment s has the endpoints 2s and 2s + 1, in grid units
    ex = x[pair[:, None], edges].ravel()
    ey = y[pair[:, None], edges].ravel()
    crossed = np.bincount(level_of, minlength=len(levels))
    if not crossed.all():
        raise EmptyLevel(f"level {levels[np.flatnonzero(crossed == 0)[0]]} intersects no grid cell")

    # Two endpoints of a level join exactly when their coordinates are equal
    # floats (a crossing of a shared edge has the same bits from both
    # cells); a NaN coordinate, from an overflowed quotient, equals none.
    # One stable sort by (level, x, y) puts the endpoints at one point next
    # to each other, in (segment, end) order.
    key = np.column_stack((ex, ey, np.repeat(level_of[pair], 2)))
    order = np.lexsort(key.T)
    key = key[order]
    new = np.concatenate(([True], (key[1:] != key[:-1]).any(axis=1)))
    # head[e]: the first endpoint at e's point in (segment, end) order, and
    # after[e] the next one there, or -1
    head = np.empty_like(order)
    head[order] = order[np.maximum.accumulate(np.where(new, np.arange(len(order)), 0))]
    after = np.full_like(order, -1)
    after[order[:-1]] = np.where(new[1:], -1, order[1:])

    # a chain starts at the first unused segment and grows at its second
    # end, then at its first, by the first unused (segment, end) at the tip
    head, after = head.tolist(), after.tolist()
    used = [False] * len(pair)
    starts, path, bounds = [], [], [0]
    for start in range(len(pair)):
        if used[start]:
            continue
        used[start] = True
        back, forth = [2 * start], [2 * start + 1]
        for tip, grown in ((2 * start + 1, forth), (2 * start, back)):
            e = head[tip]
            while e >= 0:
                if used[e >> 1]:
                    e = after[e]
                    continue
                used[e >> 1] = True
                tip = e ^ 1
                grown.append(tip)
                e = head[tip]
        back.reverse()
        path += back
        path += forth
        starts.append(start)
        bounds.append(len(path))

    origin = np.array([window.t1_min, window.t2_min])
    points = origin + window.step * np.column_stack((ex, ey))[path]
    polylines = [[] for _ in levels]
    for k, begin, end in zip(level_of[pair[starts]].tolist(), bounds, bounds[1:]):
        polylines[k].append(points[begin:end])
    saddle_counts = np.bincount(level_of[saddle], minlength=len(levels)).tolist()
    return ContourSet(levels=levels, polylines=polylines, saddle_counts=saddle_counts)


def smoothness_report(result: ScanResult, contours: ContourSet) -> dict:
    """Connectivity/saddle/turning-angle summary per level.

    Levels with more than one connected component or any saddle ambiguity are
    flagged: those are exactly the failure modes of the smooth-curve
    hypothesis the scan is probing.  A level's max_turning_angle is the
    largest angle between consecutive steps of one chain, after steps of
    length 1e-14 or less are dropped; a chain with a NaN angle adds nothing.
    The steps of all chains are taken in one pass.
    """
    chains = [chain for polylines in contours.polylines for chain in polylines]
    max_turn = [0.0] * len(contours.levels)
    if chains:
        owner = np.repeat(np.arange(len(chains)), [len(chain) for chain in chains])
        d = np.diff(np.concatenate(chains), axis=0)
        norms = np.linalg.norm(d, axis=1)
        keep = (norms > 1e-14) & (owner[1:] == owner[:-1])
        d, norms, owner = d[keep], norms[keep], owner[1:][keep]
        cosang = np.sum(d[1:] * d[:-1], axis=1) / (norms[1:] * norms[:-1])
        turn = np.arccos(np.clip(cosang, -1.0, 1.0))
        within = owner[1:] == owner[:-1]
        turn, owner = turn[within], owner[1:][within]
        if len(turn):
            starts = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
            level_of = np.repeat(np.arange(len(contours.levels)), [len(p) for p in contours.polylines])
            chain_max = np.maximum.reduceat(turn, starts)
            # max() keeps the running value against a NaN chain maximum
            for k, turn_max in zip(level_of[owner[starts]].tolist(), chain_max.tolist()):
                max_turn[k] = max(max_turn[k], turn_max)
    rows = [
        {
            "level": float(level),
            "components": len(polylines),
            "saddles": int(saddles),
            "max_turning_angle": turn_k,
            "flagged": len(polylines) > 1 or saddles > 0,
        }
        for level, polylines, saddles, turn_k in zip(
            contours.levels, contours.polylines, contours.saddle_counts, max_turn
        )
    ]
    return {
        "levels": rows,
        "n_failures": len(result.failures),
        "any_flagged": any(r["flagged"] for r in rows),
    }
