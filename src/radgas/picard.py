"""The Picard loop of every stationary solver: the slab Fredholm equations,
the linearized three-level system and the 3-D equation for w are all
contractions x = step(x).

Only the 3-D solve (`domain3d.solve_w`) turns on Anderson mixing: its sweeps
are FFT pairs on the whole lattice, and mixing cuts them from about 34 to
about 13.  The slab and three-level loops stay plain, because they cross-check
a direct solve and their reported ratio is the measured contraction, which the
diffs of a plain loop give and those of a mixed loop do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPoint", "fixed_point"]


@dataclass
class FixedPoint:
    """Last step(x), sweep count, whether the stopping test held, and max|step(x_k) - x_k| per sweep."""

    x: np.ndarray
    iterations: int
    converged: bool
    diffs: list

    def ratio(self, bound: float) -> float:
        """Contraction ratio of a plain loop: the median of the successive diff
        ratios after the first two, or the caller's analytic `bound` when there
        are fewer than three."""
        d = self.diffs
        ratios = [b / a for a, b in zip(d, d[1:])]
        return float(np.median(ratios[2:])) if len(ratios) > 4 else bound


def fixed_point(step, x0, tol: float, max_iter: int, anderson: int = 0) -> FixedPoint:
    """Iterate from x0 until the residual f_k = step(x_k) - x_k satisfies
    max|f_k| <= tol * max(1, max|step(x_k)|), or max_iter sweeps; each sweep
    calls step once.

    anderson = 0 is plain Picard, x_(k+1) = g_k with g_k = step(x_k).
    anderson = m > 0 is type-II Anderson mixing with window m (Walker and Ni,
    SIAM J. Numer. Anal. 49, 2011): with dF and dG the columns of the last m
    differences of f and g, gamma minimises |f_k - dF gamma|_2 and
    x_(k+1) = g_k - dG gamma.
    """
    x = g = x0
    diffs, dF, dG = [], [], []
    for iterations in range(1, max_iter + 1):
        g = step(x)
        f = g - x
        diffs.append(float(np.max(np.abs(f))))
        if diffs[-1] <= tol * max(1.0, float(np.max(np.abs(g)))):
            return FixedPoint(g, iterations, True, diffs)
        x = g
        if anderson and iterations > 1:
            dF = (dF + [f - f_prev])[-anderson:]
            dG = (dG + [g - g_prev])[-anderson:]
            gamma = np.linalg.lstsq(np.stack(dF, axis=1), f, rcond=None)[0]
            x = g - np.stack(dG, axis=1) @ gamma
        f_prev, g_prev = f, g
    return FixedPoint(g, max_iter, False, diffs)
