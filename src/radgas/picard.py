"""The Picard loop of every stationary solver: the slab Fredholm equations,
the scalar source of the linearized three-level system and the 3-D equation
for w are all contractions x = step(x) on one flat vector.

Every loop is Anderson-mixed: the slab and three-level loops cross-check a
direct solve in a quarter to a third of the plain sweeps, and the 3-D loop,
whose sweeps are FFT pairs on the whole lattice, needs about 13 instead of 34.
Mixed diffs do not measure the operator, so the slab and 3-D solvers report
their analytic max-norm contraction bound as `picard_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPoint", "fixed_point"]

#: Anderson window: the number of past residual differences mixed per sweep.
_WINDOW = 5


@dataclass
class FixedPoint:
    """Last step(x), sweep count, whether the stopping test held, and max|step(x_k) - x_k| per sweep."""

    x: np.ndarray
    iterations: int
    converged: bool
    diffs: list


def fixed_point(step, x0, tol: float, max_iter: int) -> FixedPoint:
    """Iterate from x0 until the residual f_k = step(x_k) - x_k satisfies
    max|f_k| <= tol * max(1, max|step(x_k)|), or max_iter sweeps; each sweep
    calls step once; a non-finite max|f_k| ends the loop unconverged.

    Type-II Anderson mixing with a window of 5 (Walker and Ni, SIAM J. Numer.
    Anal. 49, 2011): with g_k = step(x_k) and dF, dG the columns of the last
    5 differences of f and g, gamma minimises |f_k - dF gamma|_2 and
    x_(k+1) = g_k - dG gamma; the first sweep is plain, x_1 = g_0.  x0 and
    every step(x) are 1-D vectors of one length.
    """
    x = g = x0
    diffs, dF, dG = [], [], []
    for iterations in range(1, max_iter + 1):
        g = step(x)
        f = g - x
        diffs.append(float(np.max(np.abs(f))))
        if not np.isfinite(diffs[-1]):
            return FixedPoint(g, iterations, False, diffs)
        if diffs[-1] <= tol * max(1.0, float(np.max(np.abs(g)))):
            return FixedPoint(g, iterations, True, diffs)
        x = g
        if iterations > 1:
            dF = (dF + [f - f_prev])[-_WINDOW:]
            dG = (dG + [g - g_prev])[-_WINDOW:]
            gamma = np.linalg.lstsq(np.stack(dF, axis=1), f, rcond=None)[0]
            x = g - np.stack(dG, axis=1) @ gamma
        f_prev, g_prev = f, g
    return FixedPoint(g, max_iter, False, diffs)
