"""Reduced nonelastic collision integrals and their auxiliary functions.

The mass/energy exchange between ground and excited molecules is governed by
three 6-fold velocity integrals (number exchange P, energy exchange A, and the
two-temperature transfer B).  For the simplified hard-sphere kernel they
collapse to 3-fold integrals over (r, rho, theta) with five printed kernels:

    G_delta  ->  P(T2, T1)            F_delta  ->  (P(T2,T1) - P(T1))/(T2-T1)
    A_kern   ->  A(T1; eps0)          B1, B2delta -> -B(T1,T2)/(T2-T1)

F_delta and B2delta are the divided-difference forms with the removable
T2 = T1 singularity eliminated via delta = sqrt(T2/T1) - 1.

Every printed kernel is elementary in u = cos(theta), so the theta integral is
taken in closed form and only the (r, rho) plane is summed by Gauss-Legendre.
G_delta, F_delta and B2delta share their radicand and are summed in one pass
per (T1, T2) pair (`_pair_integrals`); A_kern and B1 depend on T1 alone.

Two evaluation modes exist.  "printed" evaluates the reduced formulas exactly
as stated (this is what the level-curve scan consumes; every constant cancels
from the ratios there).  "calibrated" restores the change-of-variables factors
the printed forms drop -- a factor sqrt(T1) inside G_delta/B1 and the
constant c0^2 of the two Maxwellian normalizations -- so the values match the
defining 6-fold integrals.  `radgas verify` checks them against those
integrals on its own Monte Carlo draws (`kinetic.exchange_reduced`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import PhysConsts
from .errors import SingularDenominator

__all__ = [
    "TripleQuadSpec",
    "ReducedKernelParams",
    "CollisionFunctionals",
    "triple_integral",
    "functionals",
    "H_func",
    "S_func",
    "L_func",
]

#: Relative tolerance below which H/S/L denominators count as singular.
_SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class TripleQuadSpec:
    """Node counts and truncation for the (r, rho) quadrature of the triple integrals.

    The theta direction is integrated exactly, so only the two radial axes
    carry nodes.  r_max = 12 puts the discarded Gaussian tail below 1e-30 of
    the integrand mass; Gauss-Legendre on the mapped intervals handles the
    square-root kernels, which are smooth but not polynomial.
    """

    r_max: float = 12.0
    n_r: int = 96
    n_rho: int = 96

    def __post_init__(self):
        if not self.r_max > 0:
            raise ValueError(f"r_max must be > 0, got {self.r_max}")
        if self.n_r < 16 or self.n_rho < 16:
            raise ValueError(f"n_r and n_rho must be >= 16, got ({self.n_r}, {self.n_rho})")

    @property
    def n_theta(self) -> int:
        # The theta integral is exact, so one triple integral evaluates
        # n_r * n_rho nodes; node counters that multiply by n_theta stay right.
        return 1


@dataclass(frozen=True)
class ReducedKernelParams:
    """Temperatures and quantum entering the reduced kernels."""

    T1: float
    T2: float
    epsilon0: float

    def __post_init__(self):
        if not (self.T1 > 0 and self.T2 > 0):
            raise ValueError(f"temperatures must be > 0, got ({self.T1}, {self.T2})")
        if not self.epsilon0 > 0:
            raise ValueError(f"epsilon0 must be > 0, got {self.epsilon0}")

    @property
    def delta(self) -> float:
        # Recomputed on demand so it can never go stale.
        return math.sqrt(self.T2 / self.T1) - 1.0


@lru_cache(maxsize=8)
def _quad_grid(spec: TripleQuadSpec):
    """Flattened (a, m, c) nodes and combined weights on the (r, rho) plane.

    a = rho^2, m = rho*r and c = r^2, so the cone coordinate b is m*u with
    u = cos(theta).  The weight is pi^2 * r^2 rho^2 * exp(-(r^2+rho^2)/2)
    times the Gauss-Legendre weights on [0, r_max] x [0, r_max].
    """
    xr, wr = leggauss(spec.n_r)
    # one rule serves both axes when they have as many nodes
    xq, wq = (xr, wr) if spec.n_rho == spec.n_r else leggauss(spec.n_rho)
    r = 0.5 * spec.r_max * (xr + 1.0)
    wr = 0.5 * spec.r_max * wr
    rho = 0.5 * spec.r_max * (xq + 1.0)
    wq = 0.5 * spec.r_max * wq

    R, RHO = np.meshgrid(r, rho, indexing="ij")
    WEIGHT = math.pi**2 * R**2 * RHO**2 * np.exp(-0.5 * (R**2 + RHO**2)) * np.outer(wr, wq)
    return (RHO**2).ravel(), (RHO * R).ravel(), (R**2).ravel(), WEIGHT.ravel()


def triple_integral(kind: str, params: ReducedKernelParams, spec: TripleQuadSpec) -> float:
    """pi^2 * triple integral of r^2 rho^2 sin(theta) * kernel * exp(-(r^2+rho^2)/2).

    The theta integral is exact; (r, rho) use spec's Gauss-Legendre grid.
    `kind` is one of the kernels of T1 alone, "A_kern" or "B1".  The kernels
    of a (T1, T2) pair come from `_pair_integrals`.
    """
    a, m, c, w = _quad_grid(spec)
    T1, eps0 = params.T1, params.epsilon0
    if kind == "A_kern":  # the odd term in b integrates to zero
        vals = 8.0 * math.pi * (T1 / 8.0 * (a + c) + eps0) * np.sqrt(T1 * a + 4.0 * eps0)
    elif kind == "B1":
        vals = math.pi * (a + c) * np.sqrt(a + 4.0 * eps0 / T1)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    # Fixed summation order for cross-run determinism.
    return float(np.add.reduce(vals * w))


def _pair_integrals(params: ReducedKernelParams, spec: TripleQuadSpec) -> tuple:
    """The triple integrals of G_delta, F_delta and B2delta, in that order.

    One pass over spec's (r, rho) nodes with the theta integral in closed form.
    With kappa = 4*eps0/T1 and h = 1 + delta/2 the G_delta radicand is
    r1^2 = P - Q*u, P = a*h^2 + delta^2*c/4 + kappa, Q = delta*h*m, and
    P > |Q| on the whole cone.  The integrals of r1 and u*r1 are written in
    t = Q/P through p = sqrt(1+t), q = sqrt(1-t), which stays accurate as
    Q -> 0.  F_delta is 4*pi*(r1 - r2)/(delta*s) with r2 = sqrt(a + kappa) and
    s = sqrt(T1) + sqrt(T2); its divided difference D is written with delta
    cancelled by hand, so no formula divides by delta and the diagonal
    T2 = T1 needs no special case.
    """
    a, m, c, w = _quad_grid(spec)
    T1, T2, eps0 = params.T1, params.T2, params.epsilon0
    kappa = 4.0 * eps0 / T1
    r2 = np.sqrt(a + kappa)
    delta = params.delta
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
    # Fixed summation order for cross-run determinism.
    return tuple(float(np.add.reduce(vals * w)) for vals in (G, F, B2))


@dataclass(frozen=True)
class CollisionFunctionals:
    """The five reduced functionals at one (T1, T2) pair.

    P_diff and B_diff are the divided differences (P(T2,T1)-P(T1))/(T2-T1)
    and B(T1,T2)/(T2-T1); both are regular at T2 = T1.
    """

    P11: float
    P21: float
    P_diff: float
    A: float
    B_diff: float

    def __post_init__(self):
        values = (self.P11, self.P21, self.P_diff, self.A, self.B_diff)
        if not all(np.isfinite(v) for v in values):
            raise ValueError(f"non-finite functional: {values}")
        if not (self.P11 > 0 and self.P21 > 0 and self.A > 0):
            raise ValueError("P11, P21, A must be positive")


@lru_cache(maxsize=512)
def _t1_integrals(T1: float, epsilon0: float, spec: TripleQuadSpec) -> tuple:
    """The integrals that depend on T1 only: G_delta at T2 = T1, A_kern and B1.

    Cached as floats, so a scan pays for them once per T1 row.
    """
    a, _, _, w = _quad_grid(spec)
    r2 = np.sqrt(a + 4.0 * epsilon0 / T1)
    # delta = 0 identity of `_pair_integrals`' G: P = a + kappa exactly, so
    # sqrt(P) is r2, and t = 0, p = q = pq = 1, sigma = 2; the integrand
    # 4*pi*(4/3)*sqrt(P)*(2 + pq)/sigma is then this one, bit for bit.
    g0 = 4.0 * math.pi * (4.0 / 3.0) * r2 * 3.0 / 2.0
    p = ReducedKernelParams(T1, T1, epsilon0)
    return (
        float(np.add.reduce(g0 * w)),
        triple_integral("A_kern", p, spec),
        triple_integral("B1", p, spec),
    )


def functionals(
    T1: float,
    T2: float,
    consts: PhysConsts,
    spec: TripleQuadSpec = TripleQuadSpec(),
    mode: str = "printed",
) -> CollisionFunctionals:
    """Evaluate all five functionals at (T1, T2).

    mode="printed" reproduces the stated reduced formulas verbatim.
    mode="calibrated" restores sqrt(T1) inside G_delta/G_0/B1 (A and the
    divided-difference kernels already carry consistent factors) and applies
    the constant c0^2 that the printed triples drop from the two Maxwellian
    normalizations, so the results equal the defining 6-fold integrals.
    """
    if mode not in ("printed", "calibrated"):
        raise ValueError(f"unknown mode {mode!r}")
    t_g0, t_a, t_b1 = _t1_integrals(T1, consts.epsilon0, spec)
    p = ReducedKernelParams(T1, T2, consts.epsilon0)
    t_gd, t_fd, t_b2 = _pair_integrals(p, spec)

    if mode == "printed":
        return CollisionFunctionals(
            P11=t_g0, P21=t_gd, P_diff=t_fd, A=t_a, B_diff=-(t_b1 + t_b2)
        )
    k = consts.c0**2
    s1 = math.sqrt(T1)
    return CollisionFunctionals(
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


def H_func(
    T1: float,
    T2: float,
    consts: PhysConsts,
    spec: TripleQuadSpec = TripleQuadSpec(),
    funcs: CollisionFunctionals | None = None,
) -> float:
    """H = (T2/T1) * exp(-2*eps0/T1) * P(T1) / P(T2,T1).

    The overall constants of the P's cancel, so H is mode-independent.
    """
    f = funcs if funcs is not None else functionals(T1, T2, consts, spec)
    return (T2 / T1) * math.exp(-2.0 * consts.epsilon0 / T1) * f.P11 / f.P21


def S_func(
    T1: float,
    T2: float,
    consts: PhysConsts,
    spec: TripleQuadSpec = TripleQuadSpec(),
    funcs: CollisionFunctionals | None = None,
) -> float:
    """Singularity-removed S: 4*pi*H/(T2 - T1*H) over the collisional bracket.

    Raises SingularDenominator when T2 - T1*H or the bracket vanishes within
    tolerance rather than returning NaN/inf.
    """
    f = funcs if funcs is not None else functionals(T1, T2, consts, spec)
    H = H_func(T1, T2, consts, spec, funcs=f)
    gap = T2 - T1 * H
    _check_denominator("T2 - T1*H", gap, max(abs(T2), abs(T1 * H)), T1, T2)
    numer = 4.0 * math.pi * H / gap
    term_a = f.P_diff * math.exp(-2.0 * consts.epsilon0 / T1) / (T1 * f.P21) * f.A
    term_b = (H / T2) * f.B_diff
    bracket = term_a + term_b
    _check_denominator("S bracket", bracket, max(abs(term_a), abs(term_b)), T1, T2)
    denom = (4.0 * consts.sigma / 3.0) / T1 * bracket
    return numer / denom


def L_func(
    T1: float,
    T2: float,
    consts: PhysConsts,
    spec: TripleQuadSpec = TripleQuadSpec(),
    funcs: CollisionFunctionals | None = None,
) -> float:
    """L = S * (1/T1 + H/T2): the level-curve quantity of the nonexistence result."""
    f = funcs if funcs is not None else functionals(T1, T2, consts, spec)
    H = H_func(T1, T2, consts, spec, funcs=f)
    S = S_func(T1, T2, consts, spec, funcs=f)
    return S * (1.0 / T1 + H / T2)
