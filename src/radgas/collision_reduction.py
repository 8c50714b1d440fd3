"""Reduced nonelastic collision integrals and their auxiliary functions.

The mass/energy exchange between ground and excited molecules is governed by
three 6-fold velocity integrals (number exchange P, energy exchange A, and the
two-temperature transfer B).  For the simplified hard-sphere kernel they
collapse to 3-fold integrals over (r, rho, theta) with five printed kernels:

    G_delta  ->  P(T2, T1)            F_delta  ->  (P(T2,T1) - P(T1))/(T2-T1)
    A_kern   ->  A(T1; eps0)          B1, B2delta -> -B(T1,T2)/(T2-T1)

F_delta and B2delta are the divided-difference forms with the removable
T2 = T1 singularity eliminated via delta = sqrt(T2/T1) - 1.

Each triple integral is pi^3 times the mean of its kernel over two
independent standard 3-D normal vectors rho and r (a = |rho|^2, c = |r|^2).
An orthogonal rotation of the pair puts the G_delta radicand on one normal
vector alone; the other enters only through its exact moments, so every
kernel is a Gauss-Legendre sum over one radial axis.  G_delta, F_delta and
B2delta are summed in one pass per (T1, T2) pair (`_pair_integrals`);
A_kern and B1 depend on T1 alone.

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
    """Node count and truncation of the radial quadrature of the triple integrals.

    The angle is integrated exactly and the second radial axis through exact
    moments, so only one radial axis carries nodes.  r_max = 12 puts the
    discarded Gaussian tail below 1e-30 of the integrand mass; Gauss-Legendre
    on the mapped interval handles the square-root kernels, which are smooth
    but not polynomial.
    """

    r_max: float = 12.0
    n_r: int = 96

    def __post_init__(self):
        if not self.r_max > 0:
            raise ValueError(f"r_max must be > 0, got {self.r_max}")
        if self.n_r < 16:
            raise ValueError(f"n_r must be >= 16, got {self.n_r}")

    @property
    def n_rho(self) -> int:
        # One radial axis carries nodes, so one triple integral evaluates
        # n_r nodes; node counters that multiply by n_rho stay right.
        return 1

    @property
    def n_theta(self) -> int:
        # The theta integral is exact, so one triple integral evaluates
        # n_r nodes; node counters that multiply by n_theta stay right.
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
    """Nodes a = x^2 and weights W of the radial Gauss-Legendre rule on [0, r_max].

    W = pi^2 * C * x^2 * exp(-x^2/2) times the Gauss-Legendre weights, with
    C the same rule's value of the integral of r^2 * exp(-r^2/2) over the
    second radial axis, so 2 * sum(W) is the pi^3 of a unit kernel.  Each
    kernel enters through its mean over u = cos(theta) and the second normal
    vector, written in a and that vector's moments (E|y|^2 = 3, E[y] = 0).
    """
    x, w = leggauss(spec.n_r)
    x = 0.5 * spec.r_max * (x + 1.0)
    g = x**2 * np.exp(-0.5 * x**2) * (0.5 * spec.r_max * w)
    return x**2, math.pi**2 * float(np.add.reduce(g)) * g


def triple_integral(kind: str, params: ReducedKernelParams, spec: TripleQuadSpec) -> float:
    """pi^2 * triple integral of r^2 rho^2 sin(theta) * kernel * exp(-(r^2+rho^2)/2).

    The theta and r integrals are exact; rho uses spec's Gauss-Legendre axis.
    `kind` is one of the kernels of T1 alone, "A_kern" or "B1".  The kernels
    of a (T1, T2) pair come from `_pair_integrals`.
    """
    a, w = _quad_grid(spec)
    T1, eps0 = params.T1, params.epsilon0
    if kind == "A_kern":  # the odd term in b integrates to zero
        vals = 8.0 * math.pi * (T1 / 8.0 * (a + 3.0) + eps0) * np.sqrt(T1 * a + 4.0 * eps0)
    elif kind == "B1":
        vals = math.pi * (a + 3.0) * np.sqrt(a + 4.0 * eps0 / T1)
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    # Fixed summation order for cross-run determinism.
    return float(np.add.reduce(vals * w))


def _pair_integrals(params: ReducedKernelParams, spec: TripleQuadSpec) -> tuple:
    """The triple integrals of G_delta, F_delta and B2delta, in that order.

    With kappa = 4*eps0/T1 and h = 1 + delta/2 the G_delta radicand is
    r1^2 = |h*rho - (delta/2)*r|^2 + kappa.  The rotation z = (h*rho -
    (delta/2)*r)/s, y = ((delta/2)*rho + h*r)/s with s^2 = h^2 + delta^2/4
    makes z and y independent standard normal vectors, r1^2 = s^2*|z|^2 +
    kappa and |rho|^2 + |r|^2 = |z|^2 + |y|^2, and given z the mean of rho.r
    is (h*delta/2)*(3 - |z|^2)/s^2.  So one pass over spec's axis, a = |z|^2,
    sums all three.  F_delta is 4*pi*(r1 - r2)/(delta*s_T) with r2 =
    sqrt(a + kappa) and s_T = sqrt(T1) + sqrt(T2); its divided difference is
    h*a/(r1 + r2), since s^2 - 1 = delta*h, so no formula divides by delta and
    the diagonal T2 = T1 needs no special case.
    """
    a, w = _quad_grid(spec)
    T1, T2, eps0 = params.T1, params.T2, params.epsilon0
    kappa = 4.0 * eps0 / T1
    delta = params.delta
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
        if not all(map(math.isfinite, values)):
            raise SingularDenominator(f"non-finite functional: {values}")
        if not (self.P11 > 0 and self.P21 > 0 and self.A > 0):
            raise SingularDenominator("P11, P21, A must be positive")


@lru_cache(maxsize=512)
def _t1_integrals(T1: float, epsilon0: float, spec: TripleQuadSpec) -> tuple:
    """The integrals that depend on T1 only: G_delta at T2 = T1, A_kern and B1.

    Cached as floats, so a scan pays for them once per T1 row.
    """
    a, w = _quad_grid(spec)
    # delta = 0 identity of `_pair_integrals`' G: s^2 = 1 exactly, so r1 is
    # this r2 and the integrand 8*pi*r1 is this one, bit for bit.
    g0 = 8.0 * math.pi * np.sqrt(a + 4.0 * epsilon0 / T1)
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
