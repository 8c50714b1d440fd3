"""The fixed-point solve of every stationary solver: the slab Fredholm
equations, the scalar source of the linearized three-level system and the 3-D
equation for w are all affine maps x = K x + b on one flat vector.

The solve is GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) on
(I - K) x = b from a zero start.  It has no window to truncate, so the thick
three-level corners, whose contraction factor rounds to 1, converge in tens to
a few hundred products.  `diffs` records one residual at the zero start,
max|b|, plus one per application of K.  Its residuals do not measure
the operator, so the slab and 3-D solvers report their analytic max-norm
contraction bound as `picard_ratio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPoint", "fixed_point"]

#: Bytes the Krylov basis may hold before the solve restarts from its current
#: iterate: 512 columns of a three-level source at n_y 4097 (kappa 256 needs
#: about 270), 14 of a lattice-64 w (3-D needs about 12).
_BASIS_BYTES = 2**24


@dataclass
class FixedPoint:
    """The solution, whether the stopping test held, and the max-norm
    residuals recorded: one at the zero start, one per application of K."""

    x: np.ndarray
    converged: bool
    diffs: list


def fixed_point(apply, b, tol: float, max_iter: int) -> FixedPoint:
    """Solve x = K x + b from x = 0, where apply(v) = K v, recording at most
    max_iter residuals; b and every K v are 1-D vectors of one length.

    With step(x) = K x + b, an iterate x is accepted, and step(x) returned,
    when its true residual passes max|step(x) - x| <= tol * max(1, max|step(x)|);
    a non-finite residual ends the solve unconverged.  The zero start costs no
    application: its step is b + 0.0, its residual max|b|.  Between true
    residuals every application is one Arnoldi product (I - K) v,
    orthogonalised by modified Gram-Schmidt.  Givens rotations then update
    the least-squares residual, as the vector
    r_k = s_k^2 r_(k-1) + c_k tau_(k+1) v_(k+1) whose max norm `diffs`
    records.  Once that passes the test, or the basis fills `_BASIS_BYTES`,
    the iterate is formed and its true residual taken; a failed test restarts
    from it.  Unconverged at max_iter, the last iterate is returned.  So
    `diffs` is one longer than the number of applications of K.
    """
    b0 = b + 0.0
    x, g = np.zeros_like(b0), b0
    diffs = []
    while True:
        r = g - x
        diffs.append(float(np.max(np.abs(r))))
        if not np.isfinite(diffs[-1]):
            return FixedPoint(g, False, diffs)
        target = tol * max(1.0, float(np.max(np.abs(g))))
        if diffs[-1] <= target:
            return FixedPoint(g, True, diffs)
        if len(diffs) >= max_iter:
            return FixedPoint(g, False, diffs)

        # v_1 = r / |r|_2, scaled by max|r| first so that |r|_2 cannot overflow
        v = r / diffs[-1]
        tau = float(np.linalg.norm(v))
        v /= tau
        tau *= diffs[-1]
        basis, columns, rotations, rhs = [v], [], [], []
        while True:
            w = v + b0 - (apply(v) + b)  # v - K v, formed as v + step(0) - step(v)
            h = []
            for u in basis:
                h.append(float(u @ w))
                w -= h[-1] * u
            h_next = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            rho = math.hypot(h[-1], h_next)
            if not 0.0 < rho < math.inf:  # (I - K) v rounded to 0 or overflowed
                diffs.append(math.nan)
                return FixedPoint(g, False, diffs)
            c, s = h[-1] / rho, h_next / rho
            h[-1] = rho
            columns.append(h)
            rotations.append((c, s))
            rhs.append(c * tau)
            tau *= -s
            v = w / h_next if h_next else w  # h_next 0: the Krylov space is invariant, r is 0
            r = s * s * r + c * tau * v
            diffs.append(float(np.max(np.abs(r))))
            full = (len(basis) + 1) * v.nbytes > _BASIS_BYTES
            if diffs[-1] <= target or len(diffs) == max_iter or full:
                break
            basis.append(v)

        R = np.zeros((len(columns), len(columns)))
        for j, col in enumerate(columns):
            R[: j + 1, j] = col
        x = x + sum(coef * u for coef, u in zip(np.linalg.solve(R, rhs), basis))
        if len(diffs) == max_iter:
            return FixedPoint(x, False, diffs)
        g = apply(x) + b
