"""Slab-geometry radiative transport and the two stationary slab solvers.

The transport part evaluates the explicit ray integrals of the monochromatic
radiation equation mu dG/dy = j - sigma*G by marching cell-by-cell with
analytic per-cell attenuation (exact for constant coefficients).

Both stationary solvers reduce to the same Fredholm equation of the second
kind on [0, L],

    u(x) = int_0^L K(x - xi) u(xi) dxi + g(x),

with the even kernel K(x) = (1/2) * E1(|x|) (logarithmic singularity at 0,
integral 1 over the line).  The discretization is a product-integration
Nystroem scheme on a uniform grid: u is piecewise linear and every kernel
moment over a cell is computed from the closed-form antiderivatives of E1,
so the singularity never meets a quadrature node.  On the uniform grid the
Nystroem matrix is a Toeplitz matrix T (the cell weights depend on the node
offset only) minus two boundary columns, and it is never formed: products go
through one FFT of T's circular embedding and the direct solve through
symmetric Levinson recursion on I - T with a rank-2 Woodbury correction,
both in O(n) memory.  The kernel is even and its row sums are < 1 on any
finite slab, so I - T is symmetric positive definite and the fixed-point
map u = A u + g, whose GMRES solve cross-checks the direct one, is a contraction.

Everything runs on numpy alone: the exponential integrals E1, E3 and E4
(`_expn`), the real FFTs (`numpy.fft`) and the Toeplitz solve (`_levinson`
and `_ToeplitzInverse`) are the module's own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

from .constants import PhysConsts
from .domain3d import _leggauss, _next_fast_len
from .errors import NonContraction, NonPositiveW, SingularDenominator
from .physics import pseudo_planck
from .picard import fixed_point

__all__ = [
    "SlabGrid",
    "AngleGrid",
    "BoundaryProfile",
    "RadiationField",
    "transport_solve",
    "flux",
    "angular_mean",
    "kernel_sup",
    "solve_lte_fredholm",
    "solve_exp_limit",
    "FredholmResult",
    "ExpLimitResult",
]


@dataclass(frozen=True)
class SlabGrid:
    """Uniform spatial nodes on [0, L], endpoints included."""

    L: float
    n_y: int = 129

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"L must be > 0, got {self.L}")
        if not math.isfinite(self.L * self.L):  # the ray sweep squares the cell width
            raise ValueError(f"L must have a finite square, got {self.L}")
        if self.n_y < 16:
            raise ValueError(f"n_y must be >= 16, got {self.n_y}")

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.n_y)


@dataclass(frozen=True)
class AngleGrid:
    """Gauss-Legendre nodes for mu = cos(psi) on (0, 1]; weights sum to 1."""

    n_mu: int = 48

    def __post_init__(self):
        if self.n_mu < 16:
            raise ValueError(f"n_mu must be >= 16, got {self.n_mu}")

    @property
    def mu(self) -> np.ndarray:
        x, _ = _leggauss(self.n_mu)
        return 0.5 * (x + 1.0)

    @property
    def weights(self) -> np.ndarray:
        _, w = _leggauss(self.n_mu)
        return 0.5 * w


class BoundaryProfile:
    """Incoming intensity as a function of mu in (0, 1].

    Named forms: zero, constant(c), planck(T) (the pseudo-Planck value at T);
    arbitrary profiles via from_function.  Always nonnegative.
    """

    def __init__(self, fn, label: str):
        self._fn = fn
        self.label = label

    @classmethod
    def zero(cls) -> "BoundaryProfile":
        return cls(lambda mu: np.zeros_like(np.asarray(mu, dtype=float)), "zero")

    @classmethod
    def constant(cls, c: float) -> "BoundaryProfile":
        if c < 0:
            raise ValueError(f"boundary intensity must be >= 0, got {c}")
        return cls(lambda mu: np.full_like(np.asarray(mu, dtype=float), c), f"constant({c})")

    @classmethod
    def planck(cls, T: float, consts: PhysConsts) -> "BoundaryProfile":
        g0 = float(pseudo_planck(T, consts))
        return cls(lambda mu: np.full_like(np.asarray(mu, dtype=float), g0), f"planck(T={T})")

    @classmethod
    def from_function(cls, fn, label: str = "custom") -> "BoundaryProfile":
        return cls(lambda mu: np.asarray(fn(np.asarray(mu, dtype=float)), dtype=float), label)

    def __call__(self, mu) -> np.ndarray:
        vals = np.asarray(self._fn(np.asarray(mu, dtype=float)), dtype=float)
        if np.any(vals < 0):
            raise ValueError(f"boundary profile {self.label} produced negative intensity")
        return vals


@dataclass
class RadiationField:
    """G(y_i, +-mu_j) on the tensor grid; plus/minus are the signed directions."""

    grid: SlabGrid
    angles: AngleGrid
    g_plus: np.ndarray  # (n_y, n_mu), direction +mu
    g_minus: np.ndarray  # (n_y, n_mu), direction -mu


def _emission_moments(sigma_c, delta, mu):
    """(i0, i1) = int_0^D (1, x) * (1/mu) * exp(-sigma*x/mu) dx over one cell.

    The small-depth series are taken on xs, x where it is small and 0
    elsewhere, so no discarded branch forms a power of a large x."""
    x = sigma_c * delta / mu
    small = x < 1e-3
    xs = np.where(small, x, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        one_minus_e = -np.expm1(-x)
        i0 = np.where(small, (delta / mu) * (1.0 - xs / 2.0 + xs**2 / 6.0 - xs**3 / 24.0),
                      one_minus_e / np.where(sigma_c == 0, 1.0, sigma_c))
        # int x * e^(-sigma x/mu) dx / mu; series for small optical depth
        series = (delta**2 / mu) * (0.5 - xs / 3.0 + xs**2 / 8.0 - xs**3 / 30.0 + xs**4 / 144.0)
        sig = np.where(sigma_c == 0, 1.0, sigma_c)
        exact = (mu / sig**2) * one_minus_e - (delta / sig) * np.exp(-x)
        i1 = np.where(small, series, exact)
    return i0, i1


def _linear_emission_integral(j_lo, j_hi, sigma_c, delta, mu):
    """int over one cell of the attenuated piecewise-linear emission.

    Computes int_0^D (j_hi - s*x) * (1/mu) * exp(-sigma*x/mu) dx with
    s = (j_hi - j_lo)/D, where x is measured back from the downstream face.
    Exact for linear emission under constant per-cell absorption.
    """
    i0, i1 = _emission_moments(sigma_c, delta, mu)
    s = (j_hi - j_lo) / delta
    return j_hi * i0 - s * i1


def ray_integrate(
    sigma_nodes: np.ndarray,
    emission_nodes: np.ndarray,
    a_plus: BoundaryProfile,
    a_minus: BoundaryProfile,
    grid: SlabGrid,
    angles: AngleGrid,
) -> RadiationField:
    """March the ray solution of mu dG/dy = j(y) - sigma(y) * G through the slab.

    sigma is treated as constant per cell (midpoint of the nodal values) and
    the emission as linear per cell; both choices make the sweep exact for
    constant coefficients.  The attenuation and emission moments depend on a
    cell only through (sigma, delta), so they are taken once per distinct
    pair: a few pairs for a uniform sigma.  Both directions advance in one
    loop, the +mu field from y = 0 and the -mu field from y = L.
    """
    mu = angles.mu
    n_y = grid.n_y
    j = np.broadcast_to(np.asarray(emission_nodes, dtype=float), (n_y,))[:, None]
    sigma = np.broadcast_to(np.asarray(sigma_nodes, dtype=float), (n_y,))
    deltas = np.diff(grid.y)
    pairs = np.stack([0.5 * (sigma[1:] + sigma[:-1]), deltas], axis=1)
    cells, cell = np.unique(pairs, axis=0, return_inverse=True)
    sigma_c, delta = cells.T[:, :, None]
    i0, i1 = _emission_moments(sigma_c, delta, mu)

    # g[i] = (G(y_i, +mu), G(y_(n_y-1-i), -mu)): step k crosses cell k in +mu
    # and cell n_y - 2 - k in -mu, and row k + 1 holds the step's emission
    # until the step adds the attenuated row k to it.  The emission is
    # _linear_emission_integral in both directions on one set of moments:
    # the slope s changes sign, and subtracting -s * i1 adds s * i1 exactly
    g = np.empty((n_y, 2, angles.n_mu))
    e_plus, e_minus = g[1:, 0], g[:0:-1, 1]
    slope = i1[cell]
    slope *= (j[1:] - j[:-1]) / deltas[:, None]
    np.take(i0, cell, axis=0, out=e_plus)
    e_plus *= j[1:]
    e_plus -= slope
    np.take(i0, cell, axis=0, out=e_minus)
    e_minus *= j[:-1]
    e_minus += slope
    del slope

    att = np.exp(-sigma_c * delta / mu)[np.stack([cell, cell[::-1]], axis=1)]
    g[0] = a_plus(mu), a_minus(mu)
    step = np.empty((2, angles.n_mu))
    for k in range(n_y - 1):
        np.multiply(g[k], att[k], out=step)
        g[k + 1] += step
    del att
    return RadiationField(grid=grid, angles=angles, g_plus=g[:, 0].copy(), g_minus=g[::-1, 1].copy())


def transport_solve(
    rho,
    T,
    boundary: tuple[BoundaryProfile, BoundaryProfile],
    consts: PhysConsts,
    grid: SlabGrid,
    angles: AngleGrid,
) -> RadiationField:
    """Solve the slab radiation equation for given density/temperature fields.

    Absorption sigma = eps0 * rho * (1 - exp(-2*eps0/T)) and emission
    j = eps0 * rho * exp(-2*eps0/T); the source function j/sigma is then the
    pseudo-Planck intensity, so constant (rho, T) with Planck incoming
    boundary reproduces the equilibrium exactly.
    """
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (grid.n_y,))
    T = np.broadcast_to(np.asarray(T, dtype=float), (grid.n_y,))
    if np.any(rho < 0) or np.any(T <= 0):
        raise ValueError("rho must be >= 0 and T > 0 pointwise")
    q = np.exp(-2.0 * consts.epsilon0 / T)
    sigma = consts.epsilon0 * rho * (1.0 - q)
    emission = consts.epsilon0 * rho * q
    a_plus, a_minus = boundary
    return ray_integrate(sigma, emission, a_plus, a_minus, grid, angles)


def flux(field: RadiationField) -> np.ndarray:
    """Net radiative flux J(y) = 2*pi * sum_j w_j mu_j (G(y, +mu_j) - G(y, -mu_j))."""
    wmu = field.angles.weights * field.angles.mu
    return 2.0 * math.pi * (field.g_plus - field.g_minus) @ wmu


def angular_mean(field: RadiationField) -> np.ndarray:
    """Full-sphere integral int G dn = 2*pi * sum_j w_j (G(y,+mu_j) + G(y,-mu_j))."""
    return 2.0 * math.pi * (field.g_plus + field.g_minus) @ field.angles.weights


# ---------------------------------------------------------------------------
# Fredholm kernel K = (1/2) E1(|x|) and its product-integration machinery
# ---------------------------------------------------------------------------


_EULER = 0.57721566490153286061

#: Depth of the continued fraction in `_expn`: at x just above 1, where it
#: converges slowest, 100 levels already reach the round-off of the series.
_EXPN_CF_DEPTH = 120


def _expn(n: int, x) -> np.ndarray:
    """E_n(x) = int_1^inf e^(-x t) / t^n dt for n >= 1 and x >= 0, elementwise.

    A power series for 0 < x <= 1 and the even continued fraction, evaluated
    bottom-up from a fixed depth, for x > 1 (Abramowitz and Stegun 5.1.12 and
    5.1.22); E_1(0) = inf and E_n(0) = 1/(n - 1) exactly.  Within 1e-14
    relative of scipy.special.expn over [1e-12, 700].
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    out[x == 0] = np.inf if n == 1 else 1.0 / (n - 1)

    near = (x > 0) & (x <= 1)
    s = x[near]
    log_s = np.log(s)
    # sum_k (-s)^k / k! * c_k with c_k = -1/(k - n + 1), except at k = n - 1,
    # where the term is (-s)^(n-1) / (n-1)! * (psi(n) - log s)
    total = (-log_s - _EULER) if n == 1 else np.full_like(s, 1.0 / (n - 1))
    term = np.ones_like(s)
    psi = -_EULER + sum(1.0 / m for m in range(1, n))
    for k in range(1, 21):
        term *= -s / k
        total += term * (psi - log_s) if k == n - 1 else term / (n - 1 - k)
    out[near] = total

    far = x > 1
    s = x[far]
    # E_n(s) = e^-s / (s + n - 1*n / (s + n + 2 - 2*(n + 1) / (s + n + 4 - ...)))
    den = s + (n + 2 * _EXPN_CF_DEPTH)
    for i in range(_EXPN_CF_DEPTH, 0, -1):
        den = (s + (n + 2 * (i - 1))) - (i * (n - 1 + i)) / den
    out[far] = np.exp(-s) / den
    return out


def _kernel_moments(s):
    """Antiderivatives of K at s = |t| from one E1 evaluation: (m0, m1) with

    m0 = int_0^s K(u) du = (s E1(s) - e^-s + 1)/2, odd in t, and
    m1 = int_0^s u K(u) du = (s^2 E1(s)/2 - (s+1) e^-s / 2 + 1/2) / 2, even in t.
    """
    s = np.asarray(s, dtype=float)
    e1 = _expn(1, np.where(s > 0, s, 1.0))  # both moments are 0 at s = 0
    es = np.exp(-s)
    return 0.5 * (s * e1 - es + 1.0), 0.5 * (0.5 * s**2 * e1 - 0.5 * (s + 1.0) * es + 0.5)


#: Parity of (m0, m1) under t -> -t.
_KERNEL_PARITY = (-1.0, 1.0)


def kernel_sup(L: float) -> float:
    """sup over x in (0, L) of int_0^L K(x - xi) dxi; attained at the midpoint."""
    m0, _ = _kernel_moments(L / 2.0)
    return float(2.0 * m0)


def _toeplitz_weights(y: np.ndarray, moments, parity):
    """Cell weights (lo, hi) of a piecewise-linear u against a kernel k(y_i - xi), by offset.

    moments(s) gives the antiderivatives (m0, m1) of k(t) and t * k(t) at
    s = |t|, and parity their signs under t -> -t; then
    int_{y_j}^{y_j+1} k(y_i - xi) u(xi) dxi = lo[i - j + n - 2] u_j + hi[i - j + n - 2] u_j+1.
    On the uniform grid each weight depends on i - j only, so the moments are
    evaluated once on the n distinct |offsets| k * h and mirrored onto the
    2n - 1 offsets (i - j) * h.  The offsets equal the node differences
    y_i - y_j exactly when h is a power of two; otherwise they differ in the
    last bits.
    """
    n = len(y)
    h = (y[-1] - y[0]) / (n - 1)
    s = np.arange(n) * h
    k0, k1 = (np.concatenate([p * m[:0:-1], m]) for p, m in zip(parity, moments(s)))
    b = np.arange(2 - n, n) * h  # y_i - y_j at index i - j + n - 2
    i0 = k0[1:] - k0[:-1]
    i1 = b * i0 - (k1[1:] - k1[:-1])
    return i0 - i1 / h, i1 / h


def _levinson(c: np.ndarray) -> np.ndarray:
    """First column f of T^-1 for the symmetric Toeplitz T with first column c.

    Levinson recursion (Golub and Van Loan, section 4.7) on the forward
    vectors f_k (T_k f_k = e_0) of the leading k x k blocks.  T is symmetric,
    so T_k's backward vector (T_k g_k = e_k-1) is f_k reversed and one vector
    carries the recursion.  Needs every leading minor of T nonsingular, which
    a positive definite T has.  O(n^2) time, O(n) memory.
    """
    n = len(c)
    c_rev = c[::-1].copy()
    f = np.zeros(n)
    f[0] = 1.0 / c[0]
    for k in range(1, n):
        # T_k+1 [f_k; 0] = e_0 + e e_k and T_k+1 [0; J f_k] = e e_0 + e_k
        e = c_rev[n - 1 - k : n - 1] @ f[:k]
        fk = f[: k + 1]
        np.multiply(fk - e * fk[::-1], 1.0 / (1.0 - e * e), out=fk)
    return f


def _frozen(*arrays):
    """Mark each array read-only and return them: the operators and factors below
    are shared by every solve on their grid."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _ToeplitzInverse:
    """T^-1 for the symmetric positive definite Toeplitz T with first column c, factored once.

    With the first column f of T^-1 from `_levinson` (its last column is
    J f), the Gohberg-Semencul formula

        T^-1 = (L(f) U(f) - L(Z J f) U(Z J f)) / f[0]

    (L(a), U(a): the lower and upper triangular Toeplitz matrices with first
    column, first row a; J the reversal, Z the down-shift) applies T^-1 to
    any right-hand side by FFT products with the two spectra of f and Z J f,
    U(a) = J L(a) J being a convolution too.  numpy's FFT transforms each
    column of a batch as it transforms that column alone, so a column's
    result does not depend on the batch it came in.
    """

    def __init__(self, c: np.ndarray):
        self.f = f = _levinson(c)
        n = self.n = len(f)
        self.period = _next_fast_len(2 * n - 1)
        # the first columns of L(f) and L(Z J f)
        self.spectra = rfft([f, np.append(0.0, f[:0:-1])], self.period)
        _frozen(self.f, self.spectra)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """T^-1 b for b of shape (n,) or (n, m)."""
        n, period = self.n, self.period
        cols = np.asarray(b, dtype=float).reshape(n, -1)
        f_hat, zjf_hat = self.spectra[:, :, None]

        def lower(a_hat, v_hat):
            """The first n entries of the convolution of two spectra: L(a) v."""
            return irfft(a_hat * v_hat, period, axis=0)[:n]

        jb_hat = rfft(cols[::-1], period, axis=0)
        u1 = lower(f_hat, jb_hat)[::-1]  # U(f) b
        u2 = lower(zjf_hat, jb_hat)[::-1]  # U(Z J f) b
        x = lower(f_hat, rfft(u1, period, axis=0)) - lower(zjf_hat, rfft(u2, period, axis=0))
        return (x / self.f[0]).reshape(np.shape(b))


class _CellToeplitz:
    """The (n, n) matrix A with (A u)_i = sum_j lo[i - j + n - 2] u_j + hi[i - j + n - 2] u_j+1.

    A is the Toeplitz matrix T with t(i - k) = lo[i - k + n - 2] + hi[i - k + n - 1]
    minus two boundary columns: the hi weight of the missing cell -1 in
    column 0 and the lo weight of the missing cell n - 1 in column n - 1.
    Products go through the FFT of T's circular embedding and (I - A) u = g
    through the Gohberg-Semencul inverse of I - T plus a rank-2 Woodbury
    correction, both in O(n) memory.  The spectrum and the factor are built
    on first use and kept, so every later product and solve on the operator
    costs FFTs alone; all of the operator's arrays are read-only.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo, self.hi = lo, hi
        n = self.n = len(lo) // 2 + 1
        # t(d) at index d + n - 1, d = i - k = 1 - n .. n - 1
        self.t = np.zeros(2 * n - 1)
        self.t[1:] += lo
        self.t[:-1] += hi
        self.c0 = np.append(hi[n - 1:], 0.0)  # T[:, 0] - A[:, 0]
        self.c1 = np.insert(lo[: n - 1], 0, 0.0)  # T[:, n - 1] - A[:, n - 1]
        _frozen(self.lo, self.hi, self.t, self.c0, self.c1)

    @functools.cached_property
    def _spectrum(self):
        n = self.n
        period = _next_fast_len(2 * n - 1)
        circ = np.zeros(period)
        circ[:n] = self.t[n - 1:]  # d = 0 .. n - 1
        circ[period - n + 1:] = self.t[: n - 1]  # d = 1 - n .. -1
        return period, *_frozen(rfft(circ))

    @functools.cached_property
    def _factor(self):
        """(inverse, zu, woodbury): the `_ToeplitzInverse` of I - T, its solved boundary
        columns zu = (I - T)^-1 [c0, c1] and the 2 x 2 Woodbury matrix I + zu[ends]."""
        n = self.n
        shifted = -self.t[n - 1:]  # the first column of I - T
        shifted[0] += 1.0
        inverse = _ToeplitzInverse(shifted)
        zu = inverse(np.column_stack([self.c0, self.c1]))
        return inverse, *_frozen(zu, np.eye(2) + zu[[0, n - 1]])

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A @ u."""
        period, spectrum = self._spectrum
        Tu = irfft(spectrum * rfft(u, period), period)[: self.n]
        return Tu - self.c0 * u[0] - self.c1 * u[-1]

    def row_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Row sums of A and of T."""
        a = self.apply(np.ones(self.n))
        return a, a + self.c0 + self.c1

    def solve_shifted(self, g: np.ndarray) -> np.ndarray:
        """(I - A)^-1 g on the cached factor: (I - A) = (I - T) + U V^T with U = [c0, c1]
        and V = [e_0, e_n-1], so one Gohberg-Semencul product on g and a 2 x 2
        Woodbury solve; no recursion runs after the first solve.  `refine`
        takes one step on it.

        Needs I - T symmetric positive definite: T symmetric and >= 0 with row
        sums < 1, which `_check_contraction` enforces for the Nystroem operator
        and the `three_level` module docstring argues for alpha * M_src.
        """
        inverse, zu, woodbury = self._factor
        zg = inverse(g)
        return zg - zu @ np.linalg.solve(woodbury, zg[[0, self.n - 1]])

    def refine(self, g: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, float]:
        """s after one step of iterative refinement, and max|(I - A) s - g| before it.

        The residual r = g - (I - A) s takes one product and the correction
        solves (I - A) d = r on the same cached factor, so the step costs FFTs
        and no second recursion (Wilkinson; Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., ch. 12).  It removes most of the
        Levinson solve's own rounding where I - A is nearly singular.
        """
        r = g - (s - self.apply(s))
        return s + self.solve_shifted(r), float(np.max(np.abs(r)))


def _nystrom_operator(y: np.ndarray) -> _CellToeplitz:
    """Product-integration operator A with (A u)_i ~= int_0^L K(y_i - xi) u(xi) dxi.

    u is piecewise linear on the grid; each cell integral uses the exact E1
    moments, so the diagonal (singular) cells are handled analytically.
    """
    return _CellToeplitz(*_toeplitz_weights(y, _kernel_moments, _KERNEL_PARITY))


def angular_response(kappa: float, grid: SlabGrid, angles: AngleGrid) -> _CellToeplitz:
    """Operator M with angular_mean(ray_integrate(kappa, e, zero, zero)) = M e.

    Under a constant absorption kappa the sweep's cell integral of a linear
    emission reaches a node m cells downstream attenuated by
    exp(-kappa*m*h/mu), so each cell weight depends only on the offset i - j
    between receiving node i and cell j.  The weights are the sweep's own
    integrals of a unit far (upstream) and a unit near node, attenuated and
    summed over the angles, and held by offset like the Nystroem weights.
    """
    n = grid.n_y
    h = grid.L / (n - 1)
    mu = angles.mu
    far = _linear_emission_integral(1.0, 0.0, kappa, h, mu)
    near = _linear_emission_integral(0.0, 1.0, kappa, h, mu)
    att = np.exp(-kappa * h * np.arange(n - 1)[:, None] / mu)  # m = 0 .. n - 2 cells
    wq = 2.0 * math.pi * angles.weights
    f, e = att @ (wq * far), att @ (wq * near)
    # cell j reaches node i = j + t along +mu for t >= 1 (node j far, t - 1
    # cells between) and along -mu for t <= 0 (node j near, -t cells between)
    lo = np.concatenate([e[::-1], f])  # weight of node j, by offset t = 2 - n .. n - 1
    hi = np.concatenate([f[::-1], e])  # weight of node j + 1
    return _CellToeplitz(lo, hi)


def _ensure_positive(w: np.ndarray, y: np.ndarray):
    """Reject solutions that dip <= 0 (identically-zero w is admissible)."""
    if float(np.max(np.abs(w))) > 0 and float(np.min(w)) <= 0:
        at = int(np.argmin(w))
        raise NonPositiveW(f"w({y[at]:.6g}) = {w[at]:.3e} <= 0: inadmissible boundary profile")


def _check_contraction(A: _CellToeplitz) -> float:
    """The largest row sum of A; NonContraction unless those of A and T are all < 1.

    The contraction bound needs the rows of A below 1 and Levinson a positive definite
    I - T; T's rows exceed A's by the two boundary columns.  A row sum is 1
    minus the escape, which is below the FFT's rounding past about 50 optical depths.
    """
    a_rows, t_rows = A.row_sums()
    for name, rows in (("A", a_rows), ("T", t_rows)):
        sup = float(np.max(rows))
        if sup >= 1.0:
            raise NonContraction(
                f"kernel row sum of {name} {sup!r} >= 1: the escape from a slab this thick is"
                " below the rounding of the FFT row sums, or the quadrature is misconfigured"
            )
    return float(np.max(a_rows))


def _flux_moments(s):
    """Antiderivatives of the odd flux integrand sgn(u) E2(|u|) at s = |t|, from one
    E3 and one E4 evaluation: (p0, p1) with

    p0 = 0.5 - E3(s), even in t, the antiderivative of sgn(u) E2(|u|), and
    p1 = -s E3(s) - E4(s) + 1/3, odd in t, that of |u| E2(|u|).
    """
    e3 = _expn(3, s)
    return 0.5 - e3, -s * e3 - _expn(4, s) + 1.0 / 3.0


#: Parity of (p0, p1) under t -> -t.
_FLUX_PARITY = (1.0, -1.0)


#: Slab grids whose operators `_slab_operators` keeps: a batch's jobs share a
#: few grids, and one grid's operators take about 0.9 MB at n_y 4097.
_GRID_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _slab_operators(grid: SlabGrid):
    """(A, sup, flux): the Nystroem operator of the grid, its contraction bound from
    `_check_contraction` and the odd E2 flux operator, built once per grid.

    Each depends on the grid alone, so the weights, the spectra and (on the
    first solve) A's factor are shared by every solve on the grid; their
    arrays are read-only.  A grid that fails the contraction check raises
    NonContraction and is not kept, so every solve on it raises again.
    """
    y = grid.y
    A = _nystrom_operator(y)
    sup = _check_contraction(A)
    return A, sup, _CellToeplitz(*_toeplitz_weights(y, _flux_moments, _FLUX_PARITY))


def _e2_product_flux(u: np.ndarray, grid: SlabGrid, boundary_term: np.ndarray, coeff: float):
    """J(y)/(2*pi) = boundary_term + coeff * int_0^L u(xi) sgn(y-xi) E2(|y-xi|) dxi.

    Piecewise-linear u with analytic E2/E3/E4 moments (mu integrated exactly),
    so the only inconsistency left is the interpolation of u itself.  The
    odd kernel has the same offset structure as K and is applied by FFT.
    """
    _, _, flux_operator = _slab_operators(grid)
    return boundary_term + coeff * flux_operator.apply(u)


def _slab_fredholm(profile: BoundaryProfile, coupling: float, grid: SlabGrid, angles: AngleGrid):
    """The solve both slab models share: u = A u + g, then the field and flux of u.

    g(y) = int_0^1 profile(mu) e^(-y/mu) dmu / (2 * coupling) is driven by the
    incoming profile at y = 0, and the rays carry the emission coupling * u.
    A, its contraction bound and the flux operator depend on the grid alone
    and come from `_slab_operators`, built once per grid; only g is per solve.
    The direct Nystroem solve (on A's cached Levinson factor, then one step
    of iterative refinement) is authoritative; `direct_residual` is
    max|(I - A) s - g| before the step and `residual_max` the same after it.
    The GMRES fixed-point solve from zero, on FFT products, cross-checks it
    on every solve.  `picard_ratio` is the max-norm
    contraction bound, the largest row sum of A: the integral of K over the
    slab at a node, `kernel_sup(L)` to rounding when a node sits at the
    midpoint.  Returns (u, field, flux_j, diagnostics), the diagnostics as
    result-dataclass keywords.
    """
    y = grid.y
    mu = angles.mu
    wq = angles.weights
    vals = profile(mu)
    decay = np.exp(-y[:, None] / mu[None, :])
    g = (decay @ (wq * vals)) / (2.0 * coupling)
    boundary_term = decay @ (wq * mu * vals)
    del decay  # as large as one angle-resolved field

    A, sup, _ = _slab_operators(grid)
    u, direct_residual = A.refine(g, A.solve_shifted(g))
    picard = fixed_point(A.apply, g, tol=1e-13, max_iter=200)
    diagnostics = {
        "picard_ratio": sup,
        "direct_residual": direct_residual,
        "picard_gap": float(np.max(np.abs(u - picard.x))),
        "residual_max": float(np.max(np.abs(u - A.apply(u) - g))),
        "converged": picard.converged,
    }

    field = ray_integrate(np.ones_like(y), coupling * u, profile, BoundaryProfile.zero(), grid, angles)
    flux_j = 2.0 * math.pi * _e2_product_flux(u, grid, boundary_term, coupling)
    return u, field, flux_j, diagnostics


@dataclass
class FredholmResult:
    """Output of the linearized-LTE slab solve."""

    theta: np.ndarray
    zeta: np.ndarray
    i0: float
    C0: float
    grid: SlabGrid
    h_field: RadiationField
    flux_j: np.ndarray  # product-integration flux J(y); constant in theory
    picard_ratio: float
    picard_gap: float  # max |Nystroem - Picard|
    direct_residual: float  # max |(I - A) s - g| of the direct solve s, before refinement
    residual_max: float
    converged: bool  # the Picard check met its tolerance before its iteration cap
    alpha0: float


def solve_lte_fredholm(
    j0: BoundaryProfile,
    grid: SlabGrid,
    angles: AngleGrid,
    consts: PhysConsts,
    T0: float = 1.0,
    zeta_mass: float | None = None,
) -> FredholmResult:
    """Stationary temperature/density perturbations of the linearized LTE slab.

    Solves theta(x) = int_0^L K(x-xi) theta(xi) dxi - Phi'(x)/2 where Phi is
    built from the incoming perturbation j0 at y = 0 only (the constant flux
    i0 drops under the differentiation and is recovered a posteriori from the
    reconstructed field).  zeta = C0 - theta with C0 fixed by the prescribed
    integral of zeta (C0 = 0 when no mass constraint is given), so zeta + theta
    is constant and its wall Neumann condition holds by construction.

    Uses rescaled units with unit absorption depth; T0 sets the coupling
    alpha0 = (2*eps0/T0)*(1 + G0(T0)) which linearly scales theta and zeta
    but none of the flux quantities.  Raises SingularDenominator when alpha0
    is not finite: G0 = q/(1 - q) with q = exp(-2*eps0/T0) rounding to 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # reported below
        g0 = float(pseudo_planck(T0, consts))
    alpha0 = 2.0 * consts.epsilon0 / T0 * (1.0 + g0)
    if not math.isfinite(alpha0):
        raise SingularDenominator(
            f"coupling alpha0 = {alpha0} at T0 {T0}, epsilon0 {consts.epsilon0}: "
            "1 - exp(-2*epsilon0/T0) rounds to 0 in G0(T0)"
        )
    theta, h_field, flux_j, diagnostics = _slab_fredholm(j0, alpha0, grid, angles)

    if zeta_mass is None:
        C0 = 0.0
    else:
        C0 = (zeta_mass + float(np.trapezoid(theta, grid.y))) / grid.L

    return FredholmResult(
        theta=theta,
        zeta=C0 - theta,
        i0=float(np.mean(flux_j)) / (2.0 * math.pi),
        C0=C0,
        grid=grid,
        h_field=h_field,
        flux_j=flux_j,
        alpha0=alpha0,
        **diagnostics,
    )


@dataclass
class ExpLimitResult:
    """Output of the exponential-dependence slab solve."""

    w: np.ndarray
    j0: float
    H: RadiationField
    grid: SlabGrid
    flux_j: np.ndarray
    picard_ratio: float
    picard_gap: float
    direct_residual: float  # max |(I - A) s - g| of the direct solve s, before refinement
    residual_max: float
    converged: bool  # the Picard check met its tolerance before its iteration cap
    energy_residual: np.ndarray  # int (H - w) dn at interior nodes, angle-grid route


def solve_exp_limit(
    a_plus: BoundaryProfile,
    grid: SlabGrid,
    angles: AngleGrid,
    normalize: bool = True,
) -> ExpLimitResult:
    """Stationary solution of the exponential-dependence slab model.

    Solves w(y) = int_0^L K(y-z) w(z) dz - S'(y)/2 with
    S(y) = int_0^1 mu a_+(mu) exp(-y/mu) dmu, reconstructs H along the rays,
    and recovers the constant flux j0.  The incoming profile is rescaled to
    2*pi*int a+ = 1 when `normalize` is set (zero profiles are left alone).
    Raises NonPositiveW if the converged w dips <= 0 while not identically 0.
    """
    norm = 2.0 * math.pi * float(np.sum(angles.weights * a_plus(angles.mu)))
    if normalize and norm > 0:
        a_plus = BoundaryProfile.from_function(
            lambda m, base=a_plus, n=norm: base(m) / n, label=f"normalized({a_plus.label})"
        )
    w, H, flux_j, diagnostics = _slab_fredholm(a_plus, 1.0, grid, angles)
    _ensure_positive(w, grid.y)

    return ExpLimitResult(
        w=w,
        j0=float(np.mean(flux_j)),
        H=H,
        grid=grid,
        flux_j=flux_j,
        energy_residual=angular_mean(H) - 4.0 * math.pi * w,
        **diagnostics,
    )
