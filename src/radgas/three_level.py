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
Two solution paths are implemented: a global sparse-free dense assembly
(authoritative) and a sigma -> h -> sigma Picard loop (cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysConsts
from .errors import SingularSystem
from .physics import pseudo_planck
from .slab import AngleGrid, BoundaryProfile, RadiationField, SlabGrid, angular_mean, ray_integrate

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

    Absorption kappa = eps*rho0*(g1 + g2*q)*(1-q) is constant; the source is
    built linearly from the density perturbations.  Affine in (sigma, boundary).
    """
    q = params.q
    n = grid.n_y
    s1 = np.broadcast_to(np.asarray(sigma1, dtype=float), (n,))
    s2 = np.broadcast_to(np.asarray(sigma2, dtype=float), (n,))
    s3 = np.broadcast_to(np.asarray(sigma3, dtype=float), (n,))
    kappa = params.eps * params.rho0 * (params.gamma1 + params.gamma2 * q) * (1.0 - q)
    source = params.eps * params.rho0 * (
        params.gamma1 * (s2 - s1) + params.gamma2 * q * (s3 - s2)
    )
    a_plus, a_minus = boundary
    return ray_integrate(np.full(n, kappa), source, a_plus, a_minus, grid, angles)


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
    path_gap: float  # max |assembled - Picard|
    picard_iterations: int


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

    Both the globally assembled dense solve and the sigma -> h -> sigma
    fixed-point loop are run; their max-norm gap is reported and the
    assembled path is authoritative.
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

    # response of the angular integral of h to a unit nodal source, plus the
    # boundary-driven offset
    zero = BoundaryProfile.zero()
    kappa = params.eps * params.rho0 * (g1 + g2 * q) * (1.0 - q)
    kappa_nodes = np.full(n, kappa)
    M_src = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        M_src[:, k] = angular_mean(ray_integrate(kappa_nodes, e, zero, zero, grid, angles))
    b_I = angular_mean(ray_integrate(kappa_nodes, np.zeros(n), boundary[0], boundary[1], grid, angles))

    # source coefficients: src = eps*rho0*(g1*(s2-s1) + g2*q*(s3-s2))
    c_src = params.eps * params.rho0 * np.array([-g1, g1 - g2 * q, g2 * q])
    rad = q * (g1 + g2 * q)

    # assembled system: rows = eq1, eq2, eq3 at each node
    A = np.zeros((3 * n, 3 * n))
    rhs = np.zeros(3 * n)
    I = np.eye(n)
    for block in range(3):
        A[0:n, block * n : (block + 1) * n] = local[0, block] * I - rad * c_src[block] * M_src
        A[n : 2 * n, block * n : (block + 1) * n] = local[1, block] * I
        A[2 * n : 3 * n, block * n : (block + 1) * n] = local[2, block] * I
    rhs[0:n] = rad * b_I
    rhs[n : 2 * n] = C0 - (1.0 + q + q**2) * xi
    rhs[2 * n : 3 * n] = (2.0 * params.eps / params.T0) * (params.P12 + params.P23 * q**2) * xi

    sol = np.linalg.solve(A, rhs)
    s1, s2, s3 = sol[0:n], sol[n : 2 * n], sol[2 * n : 3 * n]

    # Picard cross-check: sigma -> h -> sigma
    sp = np.zeros((3, n))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        I_h = M_src @ (c_src[0] * sp[0] + c_src[1] * sp[1] + c_src[2] * sp[2]) + b_I
        rhs_local = np.vstack(
            [
                rad * I_h,
                np.broadcast_to(C0 - (1.0 + q + q**2) * xi, (n,)),
                np.broadcast_to(rhs[2 * n : 3 * n], (n,)),
            ]
        )
        new = np.linalg.solve(local, rhs_local)
        diff = float(np.max(np.abs(new - sp)))
        sp = new
        if diff <= tol * max(1.0, float(np.max(np.abs(sp)))):
            break
    path_gap = float(np.max(np.abs(np.vstack([s1, s2, s3]) - sp)))

    h = radiation_solve_3p(s1, s2, s3, params, boundary, grid, angles)
    I_h = angular_mean(h)
    eq1 = local[0, 0] * s1 + local[0, 1] * s2 + local[0, 2] * s3 - rad * I_h
    eq2 = s1 + q * s2 + q**2 * s3 - (C0 - (1.0 + q + q**2) * xi)
    eq3 = (
        local[2, 0] * s1
        + local[2, 1] * s2
        + local[2, 2] * s3
        - rhs[2 * n : 3 * n]
    )
    return ThreeLevelSolution(
        sigma1=s1,
        sigma2=s2,
        sigma3=s3,
        h=h,
        C0=C0,
        xi=xi,
        grid=grid,
        eq1_residual=float(np.max(np.abs(eq1))),
        eq2_residual=float(np.max(np.abs(eq2))),
        eq3_residual=float(np.max(np.abs(eq3))),
        path_gap=path_gap,
        picard_iterations=iterations,
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
