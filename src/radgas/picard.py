"""The Picard loop of every stationary solver: the slab Fredholm equations,
the linearized three-level system and the 3-D equation for w are all
contractions x = step(x)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPoint", "fixed_point"]


@dataclass
class FixedPoint:
    """Last iterate, sweep count, whether the stopping test held, and max|x_k - x_(k-1)| per sweep."""

    x: np.ndarray
    iterations: int
    converged: bool
    diffs: list

    def ratio(self, bound: float) -> float:
        """Contraction ratio: the median of the successive diff ratios after the
        first two, or the caller's analytic `bound` when there are fewer than three."""
        d = self.diffs
        ratios = [b / a for a, b in zip(d, d[1:])]
        return float(np.median(ratios[2:])) if len(ratios) > 4 else bound


def fixed_point(step, x0, tol: float, max_iter: int) -> FixedPoint:
    """Iterate x <- step(x) from x0 until max|x_new - x| <= tol * max(1, max|x_new|)
    or max_iter sweeps."""
    x, diffs = x0, []
    for iterations in range(1, max_iter + 1):
        x, prev = step(x), x
        diffs.append(float(np.max(np.abs(x - prev))))
        if diffs[-1] <= tol * max(1.0, float(np.max(np.abs(x)))):
            return FixedPoint(x, iterations, True, diffs)
    return FixedPoint(x, max_iter, False, diffs)
