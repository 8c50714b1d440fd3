"""Reference implementations that only the tests call.

Each one is the plain form of something the library computes in a
structured way, or a domain that runs a library path on a shape no
subcommand builds; the tests hold the library to them.
"""

import math
from dataclasses import dataclass

import numpy as np

from radgas import NotInterior, RadgasError
from radgas.collision_reduction import ReducedKernelParams
from radgas.domain3d import ConvexDomain, SphereGrid, _div_R_batch, _profile_values
from radgas.slab import _expn


class BelowThreshold(RadgasError):
    """Endothermic collision channel is closed: |v1 - v2|^2 < 4*epsilon0."""


class DomainError(RadgasError):
    """Arguments outside the mathematically valid region of a kernel."""


# ---------------------------------------------------------------------------
# physics
# ---------------------------------------------------------------------------


def maxwellian(state, excited: bool, consts, v) -> np.ndarray:
    """Evaluate c0*rho*T^(-3/2) * exp(-(|v-u|^2 + 2*eps0*[excited]) / T).

    `v` may be a single 3-vector or an (..., 3) array; the result broadcasts.
    """
    v = np.asarray(v, dtype=float)
    dv2 = np.sum((v - state.u) ** 2, axis=-1)
    shift = 2.0 * consts.epsilon0 if excited else 0.0
    return consts.c0 * state.rho * state.T ** -1.5 * np.exp(-(dv2 + shift) / state.T)


def _check_unit(omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    norms = np.sqrt(np.sum(omega**2, axis=-1))
    if not np.allclose(norms, 1.0, rtol=0, atol=1e-10):
        raise ValueError("omega must be a unit vector")
    return omega


def nonelastic_post_velocities(v1, v2, omega, consts):
    """Post-collision velocities of the excitation channel A+A -> A+A*.

    v3,4 = (v1+v2)/2 +- omega*sqrt(|v1-v2|^2/4 - eps0); v3 carries the
    excitation.  Raises BelowThreshold when the relative kinetic energy cannot
    pay the quantum, i.e. |v1-v2|^2 < 4*eps0.  The loss-side tuples of
    `kinetic._tuple_chunk` are these, bit for bit.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    omega = _check_unit(omega)
    rel2 = np.sum((v1 - v2) ** 2, axis=-1)
    arg = 0.25 * rel2 - consts.epsilon0
    if np.any(arg < 0):
        raise BelowThreshold(
            f"|v1-v2|^2 = {np.min(rel2):.6g} < 4*epsilon0 = {4 * consts.epsilon0:.6g}"
        )
    center = 0.5 * (v1 + v2)
    k = np.sqrt(arg)[..., None]
    return center + k * omega, center - k * omega


@dataclass(frozen=True)
class CollisionTuple:
    """A kinematically valid binary collision (v1, v2) -> (v3, v4)."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    v4: np.ndarray

    def __post_init__(self):
        for name in ("v1", "v2", "v3", "v4"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def nonelastic(cls, v1, v2, omega, consts) -> "CollisionTuple":
        v3, v4 = nonelastic_post_velocities(v1, v2, omega, consts)
        return cls(v1, v2, v3, v4)


def momentum_residual(tup: CollisionTuple) -> np.ndarray:
    return (tup.v1 + tup.v2) - (tup.v3 + tup.v4)


def energy_residual(tup: CollisionTuple, consts) -> np.ndarray:
    """Total-energy defect of a nonelastic tuple, the quantum eps0 included."""
    kin_in = 0.5 * (np.sum(tup.v1**2, axis=-1) + np.sum(tup.v2**2, axis=-1))
    kin_out = 0.5 * (np.sum(tup.v3**2, axis=-1) + np.sum(tup.v4**2, axis=-1))
    return kin_in - (kin_out + consts.epsilon0)


def w_plus(v3, v4, consts):
    """Gain-side rate factor sqrt(|v3-v4|^2 + 4*eps0)/(2|v3-v4|) * B(|v3-v4|).

    With the hard-sphere kernel B = C0*|v3-v4| this is
    (C0/2)*sqrt(|v3-v4|^2 + 4*eps0); C0 = 2 gives sqrt(|v3-v4|^2 + 4*eps0).
    The Monte Carlo weights of `kinetic._tuple_chunk` are 4*pi*m1*m2 times it.
    """
    v3 = np.asarray(v3, dtype=float)
    v4 = np.asarray(v4, dtype=float)
    rel2 = np.sum((v3 - v4) ** 2, axis=-1)
    rel = np.sqrt(rel2)
    return np.sqrt(rel2 + 4.0 * consts.epsilon0) / (2.0 * rel) * (consts.C0_kernel * rel)


def w_minus(v1, v2, consts):
    """Loss-side rate factor sqrt(|v1-v2|^2 - 4*eps0)/(2|v1-v2|) * C0*|v1-v2|.

    Raises BelowThreshold below the endothermic threshold |v1-v2|^2 = 4*eps0.
    The loss-side weights of `kinetic._tuple_chunk` are 4*pi*m1^2 times it.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    rel2 = np.sum((v1 - v2) ** 2, axis=-1)
    if np.any(rel2 < 4.0 * consts.epsilon0):
        raise BelowThreshold(
            f"|v1-v2|^2 = {np.min(rel2):.6g} < 4*epsilon0 = {4 * consts.epsilon0:.6g}"
        )
    rel = np.sqrt(rel2)
    return np.sqrt(rel2 - 4.0 * consts.epsilon0) / (2.0 * rel) * (consts.C0_kernel * rel)


# ---------------------------------------------------------------------------
# kinetic
# ---------------------------------------------------------------------------


def detailed_balance_residual(state1, state2, tup: CollisionTuple, consts):
    """(F1(v1) F1(v2) - F2(v3) F1(v4)) / (F1(v1) F1(v2)) for a nonelastic tuple,
    with F1/F2 the plain Maxwellians of the two states: the residuals that
    `kinetic._balance_sweep` takes its max over, tuple by tuple."""
    lhs = maxwellian(state1, False, consts, tup.v1) * maxwellian(state1, False, consts, tup.v2)
    rhs = maxwellian(state2, False, consts, tup.v3) * maxwellian(state1, False, consts, tup.v4)
    res = (lhs - rhs) / lhs
    return float(res) if np.ndim(res) == 0 else res


# ---------------------------------------------------------------------------
# collision_reduction
# ---------------------------------------------------------------------------


def _check_cone(a, b, c):
    """The reachable region is a = rho^2, b = rho*r*cos(theta), c = r^2."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    tol = 1e-9 * (1.0 + np.sqrt(np.abs(a * c)))
    if np.any(a < 0) or np.any(c < 0) or np.any(np.abs(b) > np.sqrt(a * c) + tol):
        raise DomainError("(a, b, c) outside the cone a,c >= 0, |b| <= sqrt(a*c)")
    return a, b, c


def eval_reduced_kernel(kind: str, a, b, c, params: ReducedKernelParams):
    """Pointwise value of a printed reduced kernel; validates the cone."""
    a, b, c = _check_cone(a, b, c)
    T1, T2, eps0 = params.T1, params.T2, params.epsilon0
    delta = params.delta
    four_eps = 4.0 * eps0 / T1
    w4sq = 0.25 * a + 0.25 * c - 0.5 * b  # |w4|^2 in the (xi, eta) variables

    if kind == "G_delta":
        return 4.0 * math.pi * np.sqrt(a + delta * (a - b) + delta**2 * w4sq + four_eps)
    if kind == "A_kern":
        return 4.0 * math.pi * (T1 / 8.0 * (a + 2.0 * b + c) + eps0) * np.sqrt(T1 * a + 4.0 * eps0)
    if kind == "B1":
        return 2.0 * math.pi * w4sq * np.sqrt(a + four_eps)
    # The two divided-difference kernels share the same rationalized core.
    r1 = np.sqrt(a + delta * (a - b) + delta**2 * w4sq + four_eps)
    r2 = np.sqrt(a + four_eps)
    sroot = math.sqrt(T1) + math.sqrt(T2)
    lin = (a - b) / sroot + (a - 2.0 * b + c) / (4.0 * sroot) * delta
    if kind == "F_delta":
        return 4.0 * math.pi * lin / (r1 + r2)
    if kind == "B2delta":
        return 2.0 * math.pi * T2 * w4sq * lin / (r1 + r2)
    raise ValueError(f"unknown kernel kind {kind!r}")


# ---------------------------------------------------------------------------
# slab
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# domain3d
# ---------------------------------------------------------------------------


class ImplicitDomain(ConvexDomain):
    """A convex domain given by a signed-distance oracle `sdf` (negative
    inside) and a bounding box; ray exits are found by bisection.

    It overrides every method the lattice builder and the attenuation pass
    call, so it exercises them on shapes without the ball's symmetry.
    """

    def __init__(self, sdf, bbox_mins, bbox_maxs):
        super().__init__("implicit")
        self.sdf = sdf
        self.mins = np.asarray(bbox_mins, dtype=float).reshape(3)
        self.maxs = np.asarray(bbox_maxs, dtype=float).reshape(3)

    @property
    def bounding_box(self):
        return self.mins, self.maxs

    def contains(self, points) -> np.ndarray:
        return np.asarray(self.sdf(np.asarray(points, dtype=float))) < 0

    def _exit_distances(self, p, n, iters: int = 60):
        hi = float(np.linalg.norm(self.maxs - self.mins)) * np.ones((p.shape[0], n.shape[0]))
        lo = np.zeros_like(hi)
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            pts = p[:, None, :] - mid[..., None] * n[None, :, :]
            inside = np.asarray(self.sdf(pts)) < 0
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return 0.5 * (lo + hi)


def _interior_point(domain: ConvexDomain, y) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(3)
    if not bool(domain.contains(y)):
        raise NotInterior(f"point {y} is not strictly inside the domain")
    return y


def exit_distance(domain: ConvexDomain, y, n) -> float:
    """Ray-exit distance s > 0 with y - s*n on the boundary; y strictly interior."""
    y = _interior_point(domain, y)
    n = np.asarray(n, dtype=float).reshape(3)
    return float(domain.exit_distances(y[None, :], n[None, :])[0, 0])


def vector_R(domain: ConvexDomain, f, A2: float, y, sphere: SphereGrid) -> np.ndarray:
    """R(y) = int_{S^2} n f(n) e^(-A2 s(y,n)) dn by sphere quadrature.

    f is either a callable on unit vectors or an array of values on the
    sphere nodes (nonnegative).
    """
    y = _interior_point(domain, y)
    nodes, weights = sphere.nodes_weights()
    fvals = _profile_values(f, nodes)
    s = domain.exit_distances(y[None, :], nodes)[0]
    return (weights * fvals * np.exp(-A2 * s)) @ nodes


def div_R(domain: ConvexDomain, f, A2: float, y, sphere: SphereGrid) -> float:
    """Divergence of R at y, -A2 * int_{S^2} f(n) e^(-A2 s(y,n)) dn, on the
    sphere rule that vector_R uses: `nonexistence_check` at one point.

    Exact up to the sphere quadrature at every strictly interior point, the
    boundary skin included; never positive for f >= 0.
    """
    y = _interior_point(domain, y)
    nodes, weights = sphere.nodes_weights()
    fvals = _profile_values(f, nodes)
    return float(_div_R_batch(domain, fvals, A2, y[None, :], nodes, weights)[0])
