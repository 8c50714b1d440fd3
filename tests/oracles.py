"""Reference implementations that only the tests call.

Each one is the plain form of something the library computes in a
structured way, kept here so that the check stays next to its tolerance.
"""

import numpy as np

from radgas import DomainError
from radgas.slab import _expn


def fredholm_kernel_K(x):
    """K(x) = (1/2) * int_0^(pi/2) tan(psi) exp(-|x|/cos(psi)) dpsi = E1(|x|)/2.

    Even, positive, decreasing in |x|, log-singular at 0 (DomainError there;
    the solvers integrate across the singularity analytically instead).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise DomainError("K has a logarithmic singularity at x = 0")
    return 0.5 * _expn(1, np.abs(x))


def dense(A) -> np.ndarray:
    """The matrix of a `slab._CellToeplitz`, gathered from its cells by offset."""
    n = A.n
    offset = np.subtract.outer(np.arange(n), np.arange(n - 1)) + (n - 2)
    M = np.zeros((n, n))
    M[:, :-1] += A.lo[offset]
    M[:, 1:] += A.hi[offset]
    return M
