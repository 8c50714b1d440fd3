"""Linearized stationary solver for the three-level molecule system in a slab.

Around the constant background (rho0, rho0*q, rho0*q^2, u=0, T0, G_p) with
q = exp(-2*eps/T0), the density perturbations (sigma1, sigma2, sigma3), the
temperature perturbation xi (an input field), and the radiation perturbation
h satisfy, at every node,

  (1) radiative balance of the two lines, with the angular integral of h
      closing the equation nonlocally,
  (2) the pressure closure  sigma1 + q*sigma2 + q^2*sigma3 = C0 - (1+q+q^2)*xi,
  (3) collisional balance   P12*(s2-s1) + P23*q^2*(s3-s2) = (2e/T0)*(P12+P23*q^2)*xi,

plus the transport equation for h with absorption eps*rho0*(g1+g2*q)*(1-q).
The densities reach the radiation only through the scalar source
s = c_src . sigma, and the angular integral of h is M_src s + b_I, with M_src
the `slab.angular_response` operator (a Toeplitz matrix T minus two boundary
columns, held by offset) and b_I the boundary-driven sweep.  Eliminating the
local 3 x 3 node equations leaves (I - alpha M_src) s = g, with
alpha = kappa/(4 pi): the linearised radiation is pure scattering, so
alpha*T is symmetric and >= 0 with row sums 1 - (escape) < 1, and
I - alpha*T is positive definite.  The slab's Levinson solve, refined by one
step, therefore gives s, and FFT products give M_src s, in O(n) memory with
no n x n matrix.  This direct path is authoritative.  The fixed-point solve of s = alpha M_src s + g
on the n-vector s, the one the slab models run, cross-checks it; both
sources go through the same node solve to densities, which are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysConsts
from .errors import SingularDenominator, SingularSystem
from .physics import pseudo_planck
from .slab import AngleGrid, BoundaryProfile, RadiationField, SlabGrid
from .slab import _CellToeplitz, angular_mean, angular_response, ray_integrate

__all__ = [
    "ThreeLevelParams",
    "ThreeLevelSolution",
    "constant_state",
    "radiation_solve_3p",
    "solve_three_level",
    "lte_deviation",
    "non_lte_curvature",
]


@dataclass(frozen=True)
class ThreeLevelParams:
    """Background and rate constants of the three-level model.

    gamma1/gamma2 are the line weights (gamma1 + gamma2 = 1), eps the level
    spacing, and P12/P23 the nonelastic exchange rates of the two channels at
    the background temperature (computable from the collision reduction or
    supplied directly).  The absorption kappa must have a finite square, as
    the ray sweep squares it.
    """

    gamma1: float
    gamma2: float
    eps: float
    T0: float
    rho0: float
    P12: float
    P23: float

    def __post_init__(self):
        if abs(self.gamma1 + self.gamma2 - 1.0) > 1e-12:
            raise ValueError(f"gamma1 + gamma2 must be 1, got {self.gamma1 + self.gamma2}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("line weights must be >= 0")
        for name in ("eps", "T0", "rho0", "P12", "P23"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not math.isfinite(self.kappa * self.kappa):
            raise ValueError(f"absorption kappa must have a finite square, got {self.kappa}")

    @property
    def q(self) -> float:
        return math.exp(-2.0 * self.eps / self.T0)

    @property
    def kappa(self) -> float:
        """Constant line absorption eps*rho0*(g1 + g2*q)*(1-q) of h."""
        q = self.q
        return self.eps * self.rho0 * (self.gamma1 + self.gamma2 * q) * (1.0 - q)


def constant_state(params: ThreeLevelParams) -> dict:
    """The constant stationary background the linearization expands around."""
    q = params.q
    consts = PhysConsts(epsilon0=params.eps)
    return {
        "rho1": params.rho0,
        "rho2": params.rho0 * q,
        "rho3": params.rho0 * q**2,
        "u": np.zeros(3),
        "T": params.T0,
        "G_p": float(pseudo_planck(params.T0, consts)),
    }


def radiation_solve_3p(
    sigma1,
    sigma2,
    sigma3,
    params: ThreeLevelParams,
    boundary: tuple[BoundaryProfile, BoundaryProfile],
    grid: SlabGrid,
    angles: AngleGrid,
) -> RadiationField:
    """Ray-integral solution of the linearized radiation equation.

    The absorption params.kappa is constant; the source is built linearly
    from the density perturbations.  Affine in (sigma, boundary).
    """
    q = params.q
    n = grid.n_y
    s1 = np.broadcast_to(np.asarray(sigma1, dtype=float), (n,))
    s2 = np.broadcast_to(np.asarray(sigma2, dtype=float), (n,))
    s3 = np.broadcast_to(np.asarray(sigma3, dtype=float), (n,))
    source = params.eps * params.rho0 * (
        params.gamma1 * (s2 - s1) + params.gamma2 * q * (s3 - s2)
    )
    a_plus, a_minus = boundary
    return ray_integrate(np.full(n, params.kappa), source, a_plus, a_minus, grid, angles)


@dataclass
class ThreeLevelSolution:
    """Converged perturbation fields plus solver diagnostics."""

    sigma1: np.ndarray
    sigma2: np.ndarray
    sigma3: np.ndarray
    h: RadiationField
    C0: float
    xi: np.ndarray
    beta: np.ndarray  # (2 eps / T0) xi: sigma2 - sigma1 = sigma3 - sigma2 = beta in LTE
    grid: SlabGrid
    eq1_residual: float
    eq2_residual: float
    eq3_residual: float
    path_gap: float  # max |sigma(direct source) - sigma(Picard source)|
    direct_residual: float  # max |(I - A) s - g| of the Levinson source s, before refinement
    picard_iterations: int
    converged: bool  # the Picard check met its tolerance before its iteration cap


def _node_matrix(params: ThreeLevelParams, G_p: float):
    """Local coefficients of (eq1, eq2, eq3) on (sigma1, sigma2, sigma3)."""
    q = params.q
    g1, g2 = params.gamma1, params.gamma2
    row1 = 4.0 * math.pi * G_p * np.array([-g1, g1 - g2 * q, g2 * q])
    row2 = np.array([1.0, q, q**2])
    row3 = np.array([-params.P12, params.P12 - params.P23 * q**2, params.P23 * q**2])
    return np.vstack([row1, row2, row3])


# an input so large that the solve overflows gives a non-finite G_p (raised
# below), or a non-finite sigma, residual or path_gap, or an unconverged
# check, which the caller reports; none of them warns
@np.errstate(all="ignore")
def solve_three_level(
    xi,
    boundary: tuple[BoundaryProfile, BoundaryProfile],
    params: ThreeLevelParams,
    grid: SlabGrid,
    angles: AngleGrid,
    mass_C0: float | str = 0.0,
    m0: float | None = None,
) -> ThreeLevelSolution:
    """Solve the coupled linear stationary system for (sigma1, sigma2, sigma3).

    mass_C0 is either the pressure constant C0 directly or "from-mass", in
    which case C0 is computed from the total-gas relation using m0 (default:
    the background mass, which gives C0 = (1+q+q^2) * mean(xi)).

    Both the direct Levinson solve for the source s, refined by one step
    (`direct_residual` is its max|(I - A) s - g| before the step), and the
    GMRES fixed-point solve of s = alpha M_src s + g are run; each s is mapped to
    (sigma1, sigma2, sigma3) by the same node solve, the max-norm gap of the
    two is reported as path_gap, and the direct path is authoritative.
    GMRES needs no contraction, so it converges where kappa*L is so large
    that the escape rounds away: alpha times T's largest row sum is
    1 + 1.6e-15 at kappa 256, where it takes about 270 products at n_y 4097.
    Raises SingularDenominator when the coupling G_p = q/(1 - q) is not
    finite (q = exp(-2*eps/T0) rounds to 1), and SingularSystem when the
    node matrix is rank deficient.
    """
    q = params.q
    g1, g2 = params.gamma1, params.gamma2
    n = grid.n_y
    y = grid.y
    xi = np.broadcast_to(np.asarray(xi, dtype=float), (n,)).astype(float)

    if mass_C0 == "from-mass":
        pop = 1.0 + q + q**2
        background = params.rho0 * grid.L * pop
        total = background if m0 is None else float(m0)
        C0 = (pop * float(np.trapezoid(xi, y)) + total - background) / grid.L
    else:
        C0 = float(mass_C0)

    G_p = constant_state(params)["G_p"]
    if not math.isfinite(G_p):
        raise SingularDenominator(
            f"coupling G_p = {G_p} at T0 {params.T0}, eps {params.eps}: 1 - exp(-2*eps/T0) rounds to 0"
        )
    local = _node_matrix(params, G_p)
    # |det| against prod(|row|), a test no scaling of a row changes; each row
    # is scaled by a power of two near its largest entry, so no norm overflows
    rows = np.ldexp(local, -np.frexp(np.max(np.abs(local), axis=1, keepdims=True))[1])
    det = float(np.linalg.det(rows))
    if abs(det) <= 1e-12 * np.prod(np.linalg.norm(rows, axis=1)):
        raise SingularSystem(
            f"node matrix is rank deficient (det of the scaled rows = {det:.3e}); rows = {local.tolist()}"
        )

    # angular integral of h: M_src @ src + b_I, src = c_src @ sigma
    M_src = angular_response(params.kappa, grid, angles)
    b_I = angular_mean(ray_integrate(np.full(n, params.kappa), np.zeros(n), *boundary, grid, angles))
    c_src = params.eps * params.rho0 * np.array([-g1, g1 - g2 * q, g2 * q])
    rad = q * (g1 + g2 * q)
    eq23 = np.vstack([
        C0 - (1.0 + q + q**2) * xi,
        (2.0 * params.eps / params.T0) * (params.P12 + params.P23 * q**2) * xi,
    ])

    def node_rhs(I_h):
        return np.vstack([rad * I_h, eq23])

    # sigma = local^-1 node_rhs(I) makes src = alpha*I + c_src . local^-1 [0; eq2; eq3],
    # so src solves (1 - alpha M_src) src = g = alpha b_I + c_src . local^-1 [0; eq2; eq3].
    # alpha = kappa/(4 pi) to rounding, so I - alpha*T is positive definite
    # (module docstring) and the Levinson solve applies
    alpha = rad * (c_src @ np.linalg.solve(local, [1.0, 0.0, 0.0]))
    A = _CellToeplitz(alpha * M_src.lo, alpha * M_src.hi)
    g = alpha * b_I + c_src @ np.linalg.solve(local, node_rhs(np.zeros(n)))

    def sigma_of(src):
        return np.linalg.solve(local, node_rhs(M_src.apply(src) + b_I))

    src, direct_residual, picard = A.solve(g, tol=1e-14, max_iter=2000)
    sigma = sigma_of(src)
    h = radiation_solve_3p(*sigma, params, boundary, grid, angles)
    residuals = np.max(np.abs(local @ sigma - node_rhs(angular_mean(h))), axis=1)
    return ThreeLevelSolution(
        sigma1=sigma[0],
        sigma2=sigma[1],
        sigma3=sigma[2],
        h=h,
        C0=C0,
        xi=xi,
        beta=(2.0 * params.eps / params.T0) * xi,
        grid=grid,
        eq1_residual=float(residuals[0]),
        eq2_residual=float(residuals[1]),
        eq3_residual=float(residuals[2]),
        path_gap=float(np.max(np.abs(sigma - sigma_of(picard.x)))),
        direct_residual=direct_residual,
        picard_iterations=len(picard.diffs),
        converged=picard.converged,
    )


def _finite_sigmas(solution: ThreeLevelSolution) -> bool:
    return all(np.isfinite(s).all() for s in (solution.sigma1, solution.sigma2, solution.sigma3))


def lte_deviation(solution: ThreeLevelSolution) -> tuple[float, dict]:
    """Largest deviation from the linearized Boltzmann ratio at the
    temperature perturbation xi, over level pairs and nodes, and where it
    occurs: max |sigma_j - sigma_i - (j - i) beta| with beta = (2 eps / T0)
    xi, which vanishes in LTE.  NaN, at no pair or node, when a sigma is not
    finite."""
    if not _finite_sigmas(solution):
        return math.nan, {"pair": None, "node": None, "y": None}
    s1, s2, s3, beta = solution.sigma1, solution.sigma2, solution.sigma3, solution.beta
    stacks = {
        (1, 2): np.abs(s2 - s1 - beta),
        (2, 3): np.abs(s3 - s2 - beta),
        (1, 3): np.abs(s3 - s1 - 2.0 * beta),
    }
    best_pair, best_idx, best_val = None, 0, -1.0
    for pair, vals in stacks.items():
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_pair, best_idx, best_val = pair, idx, float(vals[idx])
    return best_val, {
        "pair": best_pair,
        "node": best_idx,
        "y": float(solution.grid.y[best_idx]),
    }


def non_lte_curvature(solution: ThreeLevelSolution) -> float:
    """max |sigma1 - 2 sigma2 + sigma3| over the nodes: the second difference
    of the levels, which vanishes in LTE at any temperature perturbation, so
    it needs no xi.  NaN when a sigma is not finite."""
    if not _finite_sigmas(solution):
        return math.nan
    return float(np.max(np.abs(solution.sigma1 - 2.0 * solution.sigma2 + solution.sigma3)))
