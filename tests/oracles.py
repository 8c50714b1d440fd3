"""Reference implementations that only the tests call.

Each one is the plain form of something the library computes in a
structured way, or a domain that runs a library path on a shape no
subcommand builds; the tests hold the library to them.
"""

import argparse
import functools
import math
from dataclasses import dataclass

import numpy as np

from radgas import EmptyLevel, NotInterior, RadgasError, SingularDenominator
from radgas.cli import _SCHEMAS, _Parser
from radgas.collision_reduction import _SINGULAR_RTOL, ReducedKernelParams, _quad_grid, triple_integral
from radgas.domain3d import ConvexDomain, SphereGrid, _div_R_batch, _profile_values
from radgas.levelscan import ContourSet, ScanResult
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


def _shifted_lattice_normals(seed, side, shift):
    """(za, zb, omega), each (n, 3), of one shifted copy of the rank-1 Korobov
    lattice the weak-form pass integrates over: n = 8191 points with
    generating vector (1, a, ..., a^7) mod n, a = 7475, shifted by the 8
    uniforms of default_rng([seed, side, shift]).  Three Box-Muller pairs
    give the six normals of za and zb, and (2 u6 - 1, 2 pi u7) the direction
    (cos theta, phi)."""
    n = 8191
    z = np.array([pow(7475, j, n) for j in range(8)])
    u = (np.arange(n)[:, None] * z % n) / n + np.random.default_rng([seed, side, shift]).random(8)
    u = np.where(u >= 1.0, u - 1.0, u)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0:6:2]))
    angle = 2.0 * np.pi * u[:, 1:6:2]
    normals = np.empty((n, 6))
    normals[:, 0::2] = r * np.cos(angle)
    normals[:, 1::2] = r * np.sin(angle)
    cos_theta = 2.0 * u[:, 6] - 1.0
    sin_theta = 2.0 * np.sqrt(u[:, 6] * (1.0 - u[:, 6]))
    phi = 2.0 * np.pi * u[:, 7]
    omega = np.column_stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta])
    return normals[:, :3], normals[:, 3:], omega


def _collision_tuples(state1, state2, consts, side, za, zb, omega):
    """(weight, v1, v2, v3, v4) of the (n, 3) normals za, zb and unit omega:
    side 0 forms the loss product (v1, v2 ground; open above threshold),
    side 1 the gain product (v3 excited, v4 ground)."""
    m1 = state1.rho * consts.maxwellian_mass
    pref = 2.0 * math.pi * consts.C0_kernel
    eps0 = consts.epsilon0
    first = state1 if side == 0 else state2
    a = first.u + math.sqrt(first.T / 2.0) * za
    b = state1.u + math.sqrt(state1.T / 2.0) * zb
    d = a - b
    rel2 = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
    center = 0.5 * (a + b)
    if side == 0:
        k = np.sqrt(np.maximum(0.25 * rel2 - eps0, 0.0))
        weight = np.where(rel2 > 4.0 * eps0, m1 * m1 * pref * np.sqrt(np.maximum(rel2 - 4.0 * eps0, 0.0)), 0.0)
        return weight, a, b, center + k[:, None] * omega, center - k[:, None] * omega
    kp = np.sqrt(0.25 * rel2 + eps0)
    m2 = state2.rho * consts.maxwellian_mass
    weight = m2 * m1 * pref * np.sqrt(rel2 + 4.0 * eps0)
    return weight, center + kp[:, None] * omega, center - kp[:, None] * omega, a, b


def loss_tuples(state1, state2, consts, seed, shift):
    """(open, tuples): every loss-side tuple of the lattice shift keyed by
    (seed, 0, shift), in lattice order, and the mask of the open ones
    (weight > 0), over which `kinetic._balance_sweep` takes the largest
    detailed-balance residual."""
    weight, *v = _collision_tuples(state1, state2, consts, 0, *_shifted_lattice_normals(seed, 0, shift))
    return weight > 0, CollisionTuple(*v)


def lattice_weak_form(state1, state2, consts, seed, n_shifts, phi1, phi2):
    """(value, std_error) per test-function column of the paired
    shifted-lattice estimate of <phi, K_non.el[F]>, the reference for the
    chunked, threaded pass of `kinetic._weak_form_moments`.

    Each shift of each side is one whole lattice of (n, 3) expressions, its
    weighted changes w * (phi2(v3) + phi1(v4) - phi1(v1) - phi1(v2))
    materialized and summed column by column; `phi1` and `phi2` map (n, 3)
    velocities to (n, k) columns.  Loss shift r is paired with gain shift
    r: d_r = (L_r - G_r) / n, and the estimate is mean(d) with standard
    error sd(d) / sqrt(R), floored at 1e-16 times the mean weight over
    sqrt(R n)."""
    n = 8191
    sums, weights = [], []
    for side in (0, 1):
        per_shift = []
        for shift in range(n_shifts):
            normals = _shifted_lattice_normals(seed, side, shift)
            w, v1, v2, v3, v4 = _collision_tuples(state1, state2, consts, side, *normals)
            change = phi2(v3) + phi1(v4) - phi1(v1) - phi1(v2)
            per_shift.append(np.ascontiguousarray((w[:, None] * change).T).sum(axis=1))
            weights.append(w.sum())
        sums.append(np.array(per_shift).T.copy())
    loss, gain = sums
    d = (loss - gain) / n
    mean = d.sum(axis=1) / n_shifts
    sd = np.sqrt(((d - mean[:, None]) ** 2).sum(axis=1) / (n_shifts - 1) / n_shifts)
    points, weights = n_shifts * n, np.array(weights)
    floor = 1e-16 * ((weights[:n_shifts].sum() + weights[n_shifts:].sum()) / points) / math.sqrt(points)
    return [(float(m), float(s)) for m, s in zip(mean, np.maximum(sd, floor))]


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
    delta = math.sqrt(T2 / T1) - 1.0
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


@functools.lru_cache(maxsize=8)
def plane_quad_grid(r_max=12.0, n_r=96, n_rho=96):
    """Flattened (a, m, c) nodes and combined weights on the (r, rho) plane.

    a = rho^2, m = rho*r and c = r^2, so the cone coordinate b is m*u with
    u = cos(theta).  The weight is pi^2 * r^2 rho^2 * exp(-(r^2+rho^2)/2)
    times the Gauss-Legendre weights on [0, r_max] x [0, r_max].
    """
    xr, wr = np.polynomial.legendre.leggauss(n_r)
    # one rule serves both axes when they have as many nodes
    xq, wq = (xr, wr) if n_rho == n_r else np.polynomial.legendre.leggauss(n_rho)
    r = 0.5 * r_max * (xr + 1.0)
    wr = 0.5 * r_max * wr
    rho = 0.5 * r_max * (xq + 1.0)
    wq = 0.5 * r_max * wq

    R, RHO = np.meshgrid(r, rho, indexing="ij")
    WEIGHT = math.pi**2 * R**2 * RHO**2 * np.exp(-0.5 * (R**2 + RHO**2)) * np.outer(wr, wq)
    return (RHO**2).ravel(), (RHO * R).ravel(), (R**2).ravel(), WEIGHT.ravel()


def plane_integrals(params: ReducedKernelParams, r_max=12.0, n_r=96, n_rho=96) -> tuple:
    """G_delta, F_delta, B2delta, G_delta at T2 = T1, A_kern and B1, in that order.

    Each triple integral is a Gauss-Legendre sum over the (r, rho) plane with
    the theta integral in closed form: the quadrature `collision_reduction`
    used before it rotated the two velocities onto one radial axis.  With
    kappa = 4*eps0/T1 and h = 1 + delta/2 the G_delta radicand is
    r1^2 = P - Q*u, P = a*h^2 + delta^2*c/4 + kappa, Q = delta*h*m, and
    P > |Q| on the whole cone.  The integrals of r1 and u*r1 are written in
    t = Q/P through p = sqrt(1+t), q = sqrt(1-t), which stays accurate as
    Q -> 0.  F_delta is 4*pi*(r1 - r2)/(delta*s) with r2 = sqrt(a + kappa) and
    s = sqrt(T1) + sqrt(T2); its divided difference D is written with delta
    cancelled by hand, so no formula divides by delta.
    """
    a, m, c, w = plane_quad_grid(r_max, n_r, n_rho)
    T1, T2, eps0 = params.T1, params.T2, params.epsilon0
    kappa = 4.0 * eps0 / T1
    r2 = np.sqrt(a + kappa)
    delta = math.sqrt(T2 / T1) - 1.0
    h = 1.0 + 0.5 * delta
    P = a * h * h + 0.25 * delta * delta * c + kappa
    Q_over_delta = h * m
    t = delta * Q_over_delta / P
    p = np.sqrt(1.0 + t)
    q = np.sqrt(1.0 - t)
    sigma = p + q
    pq = p * q
    sqrt_P = np.sqrt(P)
    G = 4.0 * math.pi * (4.0 / 3.0) * sqrt_P * (2.0 + pq) / sigma  # 4*pi * int r1 du

    # D = (int r1 du - 2*r2)/delta, split as 2*(sqrt(P) - r2)/delta plus
    # (int r1 du - 2*sqrt(P))/delta, each with the factor delta taken out.
    D = 2.0 * (a * (1.0 + 0.25 * delta) + 0.25 * delta * c) / (sqrt_P + r2) - (
        (4.0 / 3.0) * sqrt_P * Q_over_delta * (t / P) * (sigma - 1.0)
        / (sigma * sigma * (1.0 + p) * (1.0 + q))
    )
    s = math.sqrt(T1) + math.sqrt(T2)
    F = 4.0 * math.pi / s * D
    # K = int u*r1 du; u*r2 integrates to zero
    K_over_delta = -(4.0 / 15.0) * sqrt_P * Q_over_delta / P * (3.0 * pq + 2.0) / (
        sigma * (1.0 + pq)
    )
    B2 = 2.0 * math.pi * T2 / s * (0.25 * (a + c) * D - 0.5 * m * K_over_delta)
    G0 = 4.0 * math.pi * (4.0 / 3.0) * r2 * 3.0 / 2.0
    A = 8.0 * math.pi * (T1 / 8.0 * (a + c) + eps0) * np.sqrt(T1 * a + 4.0 * eps0)
    B1 = math.pi * (a + c) * np.sqrt(a + kappa)
    return tuple(float(np.add.reduce(vals * w)) for vals in (G, F, B2, G0, A, B1))


# `levelscan.scan` and the functionals and H, S, L under it as they were
# before the scan ran a T1 row at a time as arrays: one (T1, T2) node per
# call, the T1-only integrals cached per row, and the checks of each node
# raised and caught.  Verbatim apart from the names and H, S and L taking
# the node's functionals in place of an optional `funcs=`.


def _pair_integrals_per_node(params: ReducedKernelParams, spec) -> tuple:
    """The triple integrals of G_delta, F_delta and B2delta, in that order."""
    a, w = _quad_grid(spec)
    T1, T2, eps0 = params.T1, params.T2, params.epsilon0
    kappa = 4.0 * eps0 / T1
    delta = math.sqrt(T2 / T1) - 1.0
    h = 1.0 + 0.5 * delta
    s2 = h * h + 0.25 * delta * delta
    r1 = np.sqrt(s2 * a + kappa)
    dd = h * a / (r1 + np.sqrt(a + kappa))  # (r1 - r2)/delta
    s_T = math.sqrt(T1) + math.sqrt(T2)
    G = 8.0 * math.pi * r1
    F = 8.0 * math.pi / s_T * dd
    # the rho.r term: u*r2 integrates to zero, u*r1 to its mean given z
    B2 = 4.0 * math.pi * T2 / s_T * (0.25 * (a + 3.0) * dd - 0.25 * (h / s2) * (3.0 - a) * r1)
    # Fixed summation order for cross-run determinism.
    return tuple(float(np.add.reduce(vals * w)) for vals in (G, F, B2))


@dataclass(frozen=True)
class _CheckedFunctionals:
    """The five reduced functionals at one (T1, T2) pair, checked when built."""

    P11: float
    P21: float
    P_diff: float
    A: float
    B_diff: float

    def __post_init__(self):
        values = (self.P11, self.P21, self.P_diff, self.A, self.B_diff)
        if not all(map(math.isfinite, values)):
            raise SingularDenominator(f"non-finite functional: {values}")
        if not (self.P11 > 0 and self.P21 > 0 and self.A > 0):
            raise SingularDenominator("P11, P21, A must be positive")


@functools.lru_cache(maxsize=512)
def _t1_integrals(T1: float, epsilon0: float, spec) -> tuple:
    """The integrals that depend on T1 only: G_delta at T2 = T1, A_kern and B1."""
    a, w = _quad_grid(spec)
    g0 = 8.0 * math.pi * np.sqrt(a + 4.0 * epsilon0 / T1)
    p = ReducedKernelParams(T1, T1, epsilon0)
    return (
        float(np.add.reduce(g0 * w)),
        triple_integral("A_kern", p, spec),
        triple_integral("B1", p, spec),
    )


def functionals_per_node(T1, T2, consts, spec, mode="printed") -> _CheckedFunctionals:
    """All five functionals at (T1, T2)."""
    if mode not in ("printed", "calibrated"):
        raise ValueError(f"unknown mode {mode!r}")
    t_g0, t_a, t_b1 = _t1_integrals(T1, consts.epsilon0, spec)
    p = ReducedKernelParams(T1, T2, consts.epsilon0)
    t_gd, t_fd, t_b2 = _pair_integrals_per_node(p, spec)
    if mode == "printed":
        return _CheckedFunctionals(P11=t_g0, P21=t_gd, P_diff=t_fd, A=t_a, B_diff=-(t_b1 + t_b2))
    k = consts.c0**2
    s1 = math.sqrt(T1)
    return _CheckedFunctionals(
        P11=k * s1 * t_g0,
        P21=k * s1 * t_gd,
        P_diff=k * t_fd,
        A=k * t_a,
        B_diff=-k * (s1 * t_b1 + t_b2),
    )


def _check_denominator(name: str, value: float, scale: float, T1: float, T2: float):
    if abs(value) <= _SINGULAR_RTOL * max(scale, 1e-300):
        raise SingularDenominator(
            f"{name} = {value:.3e} vanishes within tolerance at (T1, T2) = ({T1}, {T2})"
        )


def H_per_node(T1, T2, consts, f) -> float:
    """H = (T2/T1) * exp(-2*eps0/T1) * P(T1) / P(T2,T1)."""
    return (T2 / T1) * math.exp(-2.0 * consts.epsilon0 / T1) * f.P11 / f.P21


def S_per_node(T1, T2, consts, f) -> float:
    """4*pi*H/(T2 - T1*H) over the collisional bracket; raises where either vanishes."""
    H = H_per_node(T1, T2, consts, f)
    gap = T2 - T1 * H
    _check_denominator("T2 - T1*H", gap, max(abs(T2), abs(T1 * H)), T1, T2)
    numer = 4.0 * math.pi * H / gap
    term_a = f.P_diff * math.exp(-2.0 * consts.epsilon0 / T1) / (T1 * f.P21) * f.A
    term_b = (H / T2) * f.B_diff
    bracket = term_a + term_b
    _check_denominator("S bracket", bracket, max(abs(term_a), abs(term_b)), T1, T2)
    denom = (4.0 * consts.sigma / 3.0) / T1 * bracket
    return numer / denom


def L_per_node(T1, T2, consts, f) -> float:
    """L = S * (1/T1 + H/T2)."""
    H = H_per_node(T1, T2, consts, f)
    S = S_per_node(T1, T2, consts, f)
    return S * (1.0 / T1 + H / T2)


def scan_per_node(window, consts, spec, mode="printed") -> ScanResult:
    """L on the window grid, one node at a time; a node that raises is NaN."""
    t1s = window.t1_values()
    t2s = window.t2_values()
    grid = np.empty((len(t1s), len(t2s)))
    failures = []
    for i, T1 in enumerate(t1s):
        for j, T2 in enumerate(t2s):
            try:
                funcs = functionals_per_node(float(T1), float(T2), consts, spec, mode)
                grid[i, j] = L_per_node(float(T1), float(T2), consts, funcs)
            except SingularDenominator:
                grid[i, j] = np.nan
                failures.append((i, j))
    return ScanResult(grid=grid, window=window, failures=failures)


# ---------------------------------------------------------------------------
# levelscan
# ---------------------------------------------------------------------------
# `levelscan.extract_contours` and `smoothness_report` as they were before
# each became one array pass: a loop over levels and cells and a loop over
# chains, verbatim apart from the two names.  `_stitch` joins a level's
# segments at endpoints with equal coordinates; it once keyed them on
# coordinates rounded to 1e-9 grid units, which merged separate level curves.


def _cell_segments(v00, v10, v11, v01, level):
    """Marching-squares segments for one cell in local [0,1]^2 coordinates.

    Returns (segments, is_saddle); each segment is ((x0, y0), (x1, y1)) with
    x along axis 0 and y along axis 1.  Saddle cells are resolved by
    comparing the corner average with the level.
    """

    def interp(va, vb):
        return (level - va) / (vb - va)

    above = (v00 > level, v10 > level, v11 > level, v01 > level)
    code = above[0] * 1 + above[1] * 2 + above[2] * 4 + above[3] * 8
    if code in (0, 15):
        return [], False

    bottom = (interp(v00, v10), 0.0) if above[0] != above[1] else None
    right = (1.0, interp(v10, v11)) if above[1] != above[2] else None
    top = (interp(v01, v11), 1.0) if above[3] != above[2] else None
    left = (0.0, interp(v00, v01)) if above[0] != above[3] else None

    if code in (5, 10):  # opposite corners above: two segments, ambiguous
        center_above = 0.25 * (v00 + v10 + v11 + v01) > level
        if (code == 5) == center_above:
            return [(bottom, right), (top, left)], True
        return [(bottom, left), (right, top)], True

    crossings = [e for e in (bottom, right, top, left) if e is not None]
    if len(crossings) != 2:  # degenerate (a corner exactly on the level)
        return [], False
    return [(crossings[0], crossings[1])], False



def _stitch(segments):
    """Join segments sharing endpoints into maximal chains, deterministically."""
    endpoint_map: dict = {}
    for idx, (p, q) in enumerate(segments):
        endpoint_map.setdefault(p, []).append((idx, 0))
        endpoint_map.setdefault(q, []).append((idx, 1))

    used = [False] * len(segments)
    chains = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        p, q = segments[start]
        chain = [p, q]
        for grow_end in (True, False):
            while True:
                tip = chain[-1] if grow_end else chain[0]
                candidates = [
                    (idx, end)
                    for idx, end in endpoint_map.get(tip, [])
                    if not used[idx]
                ]
                if not candidates:
                    break
                idx, end = candidates[0]
                used[idx] = True
                nxt = segments[idx][1 - end]
                if grow_end:
                    chain.append(nxt)
                else:
                    chain.insert(0, nxt)
        chains.append(np.asarray(chain, dtype=float))
    return chains


def extract_contours_per_cell(result: ScanResult, levels) -> ContourSet:
    """Marching squares with linear interpolation on the scanned grid.

    Raises EmptyLevel if any requested level crosses no cell.  Cells touching
    a failed (NaN) grid node are skipped.
    """
    window = result.window
    grid = result.grid
    all_polylines = []
    saddle_counts = []
    for level in levels:
        segments = []
        saddles = 0
        for i in range(grid.shape[0] - 1):
            for j in range(grid.shape[1] - 1):
                corners = (grid[i, j], grid[i + 1, j], grid[i + 1, j + 1], grid[i, j + 1])
                if not all(np.isfinite(corners)):
                    continue
                segs, is_saddle = _cell_segments(*corners, float(level))
                saddles += is_saddle
                for (x0, y0), (x1, y1) in segs:
                    segments.append(((i + x0, j + y0), (i + x1, j + y1)))
        if not segments:
            raise EmptyLevel(f"level {level} intersects no grid cell")
        chains = _stitch(segments)
        polylines = [
            np.column_stack(
                (
                    window.t1_min + window.step * chain[:, 0],
                    window.t2_min + window.step * chain[:, 1],
                )
            )
            for chain in chains
        ]
        all_polylines.append(polylines)
        saddle_counts.append(saddles)
    return ContourSet(levels=list(levels), polylines=all_polylines, saddle_counts=saddle_counts)


def smoothness_report_per_chain(result: ScanResult, contours: ContourSet) -> dict:
    """Connectivity/saddle/turning-angle summary per level.

    Levels with more than one connected component or any saddle ambiguity are
    flagged: those are exactly the failure modes of the smooth-curve
    hypothesis the scan is probing.
    """
    rows = []
    for level, polylines, saddles in zip(
        contours.levels, contours.polylines, contours.saddle_counts
    ):
        max_turn = 0.0
        for chain in polylines:
            if len(chain) < 3:
                continue
            d = np.diff(chain, axis=0)
            norms = np.linalg.norm(d, axis=1)
            keep = norms > 1e-14
            d = d[keep]
            norms = norms[keep]
            if len(d) < 2:
                continue
            cosang = np.sum(d[1:] * d[:-1], axis=1) / (norms[1:] * norms[:-1])
            max_turn = max(max_turn, float(np.max(np.arccos(np.clip(cosang, -1.0, 1.0)))))
        rows.append(
            {
                "level": float(level),
                "components": len(polylines),
                "saddles": int(saddles),
                "max_turning_angle": max_turn,
                "flagged": len(polylines) > 1 or saddles > 0,
            }
        )
    return {
        "levels": rows,
        "n_failures": len(result.failures),
        "any_flagged": any(r["flagged"] for r in rows),
    }


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


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def build_parser_all_at_once() -> argparse.ArgumentParser:
    """The command-line parser with every subcommand's options added up front,
    as `cli._build_parser` built it before options were added on first use."""
    parser = _Parser(
        prog="radgas",
        description="Stationary gas-radiation solvers: batch runs with CSV/JSON artifacts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output directory (default $RADGAS_OUT)")
        p.add_argument("--seed", type=int, default=None, help="random seed")
        p.add_argument("--print-config", action="store_true", help="echo the resolved config")
        for key, (typ, default, help_text) in schema.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, help=help_text)
    return parser
