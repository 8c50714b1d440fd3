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
so the singularity never meets a quadrature node.  A direct dense solve and
Picard iteration are both run; the kernel row sums are < 1 on any finite
slab, which makes Picard a contraction and cross-checks the direct path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1, expn

from .constants import PhysConsts
from .errors import DomainError, NonContraction, NonPositiveW
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
    "fredholm_kernel_K",
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
        x, _ = np.polynomial.legendre.leggauss(self.n_mu)
        return 0.5 * (x + 1.0)

    @property
    def weights(self) -> np.ndarray:
        _, w = np.polynomial.legendre.leggauss(self.n_mu)
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


def _cell_coeffs(nodes: np.ndarray) -> np.ndarray:
    return 0.5 * (nodes[1:] + nodes[:-1])


def _linear_emission_integral(j_lo, j_hi, sigma_c, delta, mu):
    """int over one cell of the attenuated piecewise-linear emission.

    Computes int_0^D (j_hi - s*x) * (1/mu) * exp(-sigma*x/mu) dx with
    s = (j_hi - j_lo)/D, where x is measured back from the downstream face.
    Exact for linear emission under constant per-cell absorption.
    """
    x = sigma_c * delta / mu
    s = (j_hi - j_lo) / delta
    small = x < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        one_minus_e = -np.expm1(-x)
        i0 = np.where(small, (delta / mu) * (1.0 - x / 2.0 + x**2 / 6.0 - x**3 / 24.0),
                      one_minus_e / np.where(sigma_c == 0, 1.0, sigma_c))
        # int x * e^(-sigma x/mu) dx / mu; series for small optical depth
        series = (delta**2 / mu) * (0.5 - x / 3.0 + x**2 / 8.0 - x**3 / 30.0 + x**4 / 144.0)
        sig = np.where(sigma_c == 0, 1.0, sigma_c)
        exact = (mu / sig**2) * one_minus_e - (delta / sig) * np.exp(-x)
        i1 = np.where(small, series, exact)
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
    constant coefficients.
    """
    mu = angles.mu
    n_y = grid.n_y
    # per-node and per-cell columns, broadcast against mu
    j = np.broadcast_to(np.asarray(emission_nodes, dtype=float), (n_y,))[:, None]
    sigma = np.broadcast_to(np.asarray(sigma_nodes, dtype=float), (n_y,))
    sigma_c = _cell_coeffs(sigma)[:, None]
    deltas = np.diff(grid.y)[:, None]
    att = np.exp(-sigma_c * deltas / mu)
    e_plus = _linear_emission_integral(j[:-1], j[1:], sigma_c, deltas, mu)
    e_minus = _linear_emission_integral(j[1:], j[:-1], sigma_c, deltas, mu)

    shape = (n_y, angles.n_mu)
    g_plus = np.empty(shape)
    g_plus[0] = a_plus(mu)
    for k in range(n_y - 1):
        g_plus[k + 1] = g_plus[k] * att[k] + e_plus[k]

    g_minus = np.empty(shape)
    g_minus[n_y - 1] = a_minus(mu)
    for k in range(n_y - 2, -1, -1):
        g_minus[k] = g_minus[k + 1] * att[k] + e_minus[k]

    return RadiationField(grid=grid, angles=angles, g_plus=g_plus, g_minus=g_minus)


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


def fredholm_kernel_K(x):
    """K(x) = (1/2) * int_0^(pi/2) tan(psi) exp(-|x|/cos(psi)) dpsi = E1(|x|)/2.

    Even, positive, decreasing in |x|, log-singular at 0 (DomainError there;
    the solvers integrate across the singularity analytically instead).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise DomainError("K has a logarithmic singularity at x = 0")
    return 0.5 * exp1(np.abs(x))


def _m0(t):
    """Odd antiderivative of K: int_0^t K(u) du = sgn(t)/2 * (|t| E1(|t|) - e^-|t| + 1)."""
    t = np.asarray(t, dtype=float)
    s = np.abs(t)
    val = np.where(s > 0, 0.5 * (s * exp1(np.where(s > 0, s, 1.0)) - np.exp(-s) + 1.0), 0.0)
    return np.sign(t) * val


def _m1(t):
    """Even second moment: int_0^t u K(u) du = (s^2 E1(s)/2 - (s+1) e^-s / 2 + 1/2) / 2."""
    t = np.asarray(t, dtype=float)
    s = np.abs(t)
    e1 = exp1(np.where(s > 0, s, 1.0))
    return np.where(s > 0, 0.5 * (0.5 * s**2 * e1 - 0.5 * (s + 1.0) * np.exp(-s) + 0.5), 0.0)


def kernel_sup(L: float) -> float:
    """sup over x in (0, L) of int_0^L K(x - xi) dxi; attained at the midpoint."""
    return float(2.0 * _m0(L / 2.0))


def _by_offset(cells: np.ndarray) -> np.ndarray:
    """The (n, n - 1) matrix of per-offset cell values: entry (i, j), cell j
    seen from node i, is cells[i - j + n - 2]."""
    n = len(cells) // 2 + 1
    return cells[np.subtract.outer(np.arange(n), np.arange(n - 1)) + (n - 2)]


def _toeplitz_weights(y: np.ndarray, m0, m1):
    """Cell weights (lo, hi) of a piecewise-linear u against a kernel k(y_i - xi).

    m0 and m1 are antiderivatives of k(t) and t * k(t); then
    int_{y_j}^{y_j+1} k(y_i - xi) u(xi) dxi = lo[i, j] u_j + hi[i, j] u_j+1.
    On the uniform grid each weight depends on i - j only, so m0 and m1 are
    evaluated on the 2n - 1 offsets (i - j) * h and the (n, n - 1) matrices
    are gathered from the cell values by `_by_offset`.  The offsets equal the
    node differences y_i - y_j exactly when h is a power of two; otherwise
    they differ in the last bits.
    """
    n = len(y)
    h = (y[-1] - y[0]) / (n - 1)
    d = np.arange(-(n - 1), n) * h
    b = d[1:]  # y_i - y_j at index i - j + n - 2
    k0, k1 = m0(d), m1(d)
    i0 = k0[1:] - k0[:-1]
    i1 = b * i0 - (k1[1:] - k1[:-1])
    return _by_offset(i0 - i1 / h), _by_offset(i1 / h)


def _node_matrix(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(n, n) matrix A with (A u)_i = sum_j lo[i, j] u_j + hi[i, j] u_j+1."""
    A = np.zeros((len(lo), len(lo)))
    A[:, :-1] += lo
    A[:, 1:] += hi
    return A


def _nystrom_matrix(y: np.ndarray) -> np.ndarray:
    """Product-integration matrix A with (A u)_i ~= int_0^L K(y_i - xi) u(xi) dxi.

    u is piecewise linear on the grid; each cell integral uses the exact E1
    moments, so the diagonal (singular) cells are handled analytically.
    """
    return _node_matrix(*_toeplitz_weights(y, _m0, _m1))


def angular_response(kappa: float, grid: SlabGrid, angles: AngleGrid) -> np.ndarray:
    """Matrix M with angular_mean(ray_integrate(kappa, e, zero, zero)) = M @ e.

    Under a constant absorption kappa the sweep's cell integral of a linear
    emission reaches a node m cells downstream attenuated by
    exp(-kappa*m*h/mu), so each cell weight depends only on the offset i - j
    between receiving node i and cell j.  The weights are the sweep's own
    integrals of a unit far (upstream) and a unit near node, attenuated and
    summed over the angles, and gathered by offset like the Nystroem weights.
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
    return _node_matrix(_by_offset(lo), _by_offset(hi))


def _ensure_positive(w: np.ndarray, y: np.ndarray):
    """Reject solutions that dip <= 0 (identically-zero w is admissible)."""
    if float(np.max(np.abs(w))) > 0 and float(np.min(w)) <= 0:
        at = int(np.argmin(w))
        raise NonPositiveW(f"w({y[at]:.6g}) = {w[at]:.3e} <= 0: inadmissible boundary profile")


def _check_contraction(A: np.ndarray):
    row_sums = A.sum(axis=1)
    sup = float(np.max(row_sums))
    if sup >= 1.0:
        raise NonContraction(f"kernel row sum {sup:.6f} >= 1; quadrature misconfigured")
    return sup


def _p0(t):
    """Even antiderivative of the odd flux integrand sgn(u) E2(|u|)."""
    s = np.abs(t)
    return 0.5 - expn(3, s)


def _p1(t):
    """Odd antiderivative of the even flux integrand |u| E2(|u|)."""
    s = np.abs(t)
    return np.sign(t) * (-s * expn(3, s) - expn(4, s) + 1.0 / 3.0)


def _e2_product_flux(u: np.ndarray, y: np.ndarray, boundary_term: np.ndarray, coeff: float):
    """J(y)/(2*pi) = boundary_term + coeff * int_0^L u(xi) sgn(y-xi) E2(|y-xi|) dxi.

    Piecewise-linear u with analytic E2/E3/E4 moments (mu integrated exactly),
    so the only inconsistency left is the interpolation of u itself.
    """
    w_lo, w_hi = _toeplitz_weights(y, _p0, _p1)
    inner = w_lo @ u[:-1] + w_hi @ u[1:]
    return boundary_term + coeff * inner


def _slab_fredholm(profile: BoundaryProfile, coupling: float, grid: SlabGrid, angles: AngleGrid):
    """The solve both slab models share: u = A u + g, then the field and flux of u.

    g(y) = int_0^1 profile(mu) e^(-y/mu) dmu / (2 * coupling) is driven by the
    incoming profile at y = 0, and the rays carry the emission coupling * u.
    The direct Nystroem solve is authoritative; Picard iteration from zero
    cross-checks it.  Returns (u, field, flux_j, diagnostics), the diagnostics
    as result-dataclass keywords.
    """
    y = grid.y
    mu = angles.mu
    wq = angles.weights
    vals = profile(mu)
    decay = np.exp(-y[:, None] / mu[None, :])
    g = (decay @ (wq * vals)) / (2.0 * coupling)

    A = _nystrom_matrix(y)
    sup = _check_contraction(A)
    u = np.linalg.solve(np.eye(len(y)) - A, g)
    picard = fixed_point(lambda x: A @ x + g, np.zeros_like(g), tol=1e-13, max_iter=10_000)
    diagnostics = {
        "kernel_sup": sup,
        "picard_ratio": picard.ratio(sup),
        "picard_gap": float(np.max(np.abs(u - picard.x))),
        "residual_max": float(np.max(np.abs(u - A @ u - g))),
        "converged": picard.converged,
    }
    del A  # the flux gather below builds n^2 weight matrices of its own

    field = ray_integrate(np.ones_like(y), coupling * u, profile, BoundaryProfile.zero(), grid, angles)
    boundary_term = decay @ (wq * mu * vals)
    flux_j = 2.0 * math.pi * _e2_product_flux(u, y, boundary_term, coupling)
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
    kernel_sup: float
    picard_ratio: float
    picard_gap: float  # max |Nystroem - Picard|
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
    but none of the flux quantities.
    """
    g0 = float(pseudo_planck(T0, consts))
    alpha0 = 2.0 * consts.epsilon0 / T0 * (1.0 + g0)
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
    kernel_sup: float
    picard_ratio: float
    picard_gap: float
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
