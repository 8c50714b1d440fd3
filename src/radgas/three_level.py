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
the n x n `slab.angular_response` matrix and b_I the boundary-driven sweep.
Eliminating the local 3 x 3 node equations leaves one n x n system for s;
this direct path is authoritative, and a sigma -> h -> sigma Picard loop
cross-checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysConsts
from .errors import SingularSystem
from .physics import pseudo_planck
from .picard import fixed_point
from .slab import AngleGrid, BoundaryProfile, RadiationField, SlabGrid
from .slab import angular_mean, angular_response, ray_integrate

__all__ = [
    "ThreeLevelParams",
    "ThreeLevelSolution",
    "constant_state",
    "radiation_solve_3p",
    "solve_three_level",
    "lte_deviation",
]


@dataclass(frozen=True)
class ThreeLevelParams:
    """Background and rate constants of the three-level model.

    gamma1/gamma2 are the line weights (gamma1 + gamma2 = 1), eps the level
    spacing, and P12/P23 the nonelastic exchange rates of the two channels at
    the background temperature (computable from the collision reduction or
    supplied directly).
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
    grid: SlabGrid
    eq1_residual: float
    eq2_residual: float
    eq3_residual: float
    path_gap: float  # max |direct - Picard|
    picard_iterations: int
    converged: bool  # the Picard check met its tolerance before max_iter


def _node_matrix(params: ThreeLevelParams, G_p: float):
    """Local coefficients of (eq1, eq2, eq3) on (sigma1, sigma2, sigma3)."""
    q = params.q
    g1, g2 = params.gamma1, params.gamma2
    row1 = 4.0 * math.pi * G_p * np.array([-g1, g1 - g2 * q, g2 * q])
    row2 = np.array([1.0, q, q**2])
    row3 = np.array([-params.P12, params.P12 - params.P23 * q**2, params.P23 * q**2])
    return np.vstack([row1, row2, row3])


def solve_three_level(
    xi,
    boundary: tuple[BoundaryProfile, BoundaryProfile],
    params: ThreeLevelParams,
    grid: SlabGrid,
    angles: AngleGrid,
    mass_C0: float | str = 0.0,
    m0: float | None = None,
    tol: float = 1e-12,
    max_iter: int = 2000,
) -> ThreeLevelSolution:
    """Solve the coupled linear stationary system for (sigma1, sigma2, sigma3).

    mass_C0 is either the pressure constant C0 directly or "from-mass", in
    which case C0 is computed from the total-gas relation using m0 (default:
    the background mass, which gives C0 = (1+q+q^2) * mean(xi)).

    Both the direct n x n solve for the source and the sigma -> h -> sigma
    fixed-point loop are run; their max-norm gap is reported and the direct
    path is authoritative.
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
    local = _node_matrix(params, G_p)
    scale = np.prod([np.linalg.norm(local[i]) for i in range(3)])
    det = float(np.linalg.det(local))
    if abs(det) <= 1e-12 * scale:
        raise SingularSystem(
            f"node matrix is rank deficient (det = {det:.3e}); rows = {local.tolist()}"
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
    # so src solves (1 - alpha M_src) src = alpha b_I + c_src . local^-1 [0; eq2; eq3]
    alpha = rad * (c_src @ np.linalg.solve(local, [1.0, 0.0, 0.0]))
    src = np.linalg.solve(
        np.eye(n) - alpha * M_src,
        alpha * b_I + c_src @ np.linalg.solve(local, node_rhs(np.zeros(n))),
    )
    sigma = np.linalg.solve(local, node_rhs(M_src @ src + b_I))

    # Picard cross-check: sigma -> h -> sigma
    picard = fixed_point(
        lambda sp: np.linalg.solve(local, node_rhs(M_src @ (c_src @ sp) + b_I)),
        np.zeros((3, n)),
        tol,
        max_iter,
    )
    h = radiation_solve_3p(*sigma, params, boundary, grid, angles)
    residuals = np.max(np.abs(local @ sigma - node_rhs(angular_mean(h))), axis=1)
    return ThreeLevelSolution(
        sigma1=sigma[0],
        sigma2=sigma[1],
        sigma3=sigma[2],
        h=h,
        C0=C0,
        xi=xi,
        grid=grid,
        eq1_residual=float(residuals[0]),
        eq2_residual=float(residuals[1]),
        eq3_residual=float(residuals[2]),
        path_gap=float(np.max(np.abs(sigma - picard.x))),
        picard_iterations=picard.iterations,
        converged=picard.converged,
    )


def lte_deviation(solution: ThreeLevelSolution) -> tuple[float, dict]:
    """Largest pairwise |sigma_i - sigma_j| over all nodes, and where it occurs."""
    stacks = {
        (1, 2): np.abs(solution.sigma1 - solution.sigma2),
        (2, 3): np.abs(solution.sigma2 - solution.sigma3),
        (1, 3): np.abs(solution.sigma1 - solution.sigma3),
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
