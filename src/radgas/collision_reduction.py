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
kernel is a Gauss-Legendre sum over one radial axis.  A_kern and B1 depend
on T1 alone; G_delta, F_delta and B2delta are summed in one pass
(`_pair_integrals`).

The functionals and H, S, L have one implementation, `_rows`, for K values
of T1, each with its own vector of T2.  `levelscan.scan` runs it on blocks
of rows; `functionals`, `H_func`, `S_func` and `L_func` on one point.

Two evaluation modes exist.  "printed" evaluates the reduced formulas exactly
as stated; the level-curve scan draws its L.  "calibrated" restores the
factors the printed forms drop -- a sqrt(T1) inside G_delta/B1 and the
constant c0^2 of the two Maxwellian normalizations -- so the values match
the defining 6-fold integrals, which `radgas verify` checks on its own Monte
Carlo draws (`kinetic.exchange_reduced`).  Only H is the same in both modes:
the calibrated L is proportional to 1/c0^2, the printed one free of c0.
Scaling (T1, T2, eps0) by lambda scales the calibrated P11, P21, P_diff, A
and B_diff by lambda to the 1/2, 1/2, -1/2, 3/2 and 1/2 and the calibrated L
by lambda^(-1/2); the printed L follows no such law.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
        if not math.isfinite(self.r_max * self.r_max):  # the nodes are a = x^2 on [0, r_max]
            raise ValueError(f"r_max must have a finite square, got {self.r_max}")
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


def _pair_integrals(T1: np.ndarray, T2: np.ndarray, epsilon0: float, spec: TripleQuadSpec) -> tuple:
    """For T1 of shape (K,) and T2 broadcasting to (K, m): the triple integral
    of G_delta at T2 = T1, (K, 1), then those of G_delta, F_delta and B2delta
    at each (T1[k], T2[k, j]), (K, m).

    With kappa = 4*eps0/T1 and h = 1 + delta/2 the G_delta radicand is
    r1^2 = |h*rho - (delta/2)*r|^2 + kappa.  The rotation z = (h*rho -
    (delta/2)*r)/s, y = ((delta/2)*rho + h*r)/s with s^2 = h^2 + delta^2/4
    makes z and y independent standard normal vectors, r1^2 = s^2*|z|^2 +
    kappa and |rho|^2 + |r|^2 = |z|^2 + |y|^2, and given z the mean of rho.r
    is (h*delta/2)*(3 - |z|^2)/s^2.  So one pass over spec's axis, a = |z|^2,
    sums all three.  F_delta is 4*pi*(r1 - r2)/(delta*s_T) with r2 =
    sqrt(a + kappa) and s_T = sqrt(T1) + sqrt(T2); its divided difference is
    h*a/(r1 + r2), since s^2 - 1 = delta*h, so no formula divides by delta and
    the diagonal T2 = T1 needs no special case.  At T2 = T1, s^2 = 1 exactly
    and r1 is r2, so the first sum is the G_delta sum at delta = 0, bit for bit.
    Each row of the (K, m, n_r) kernels sums in the order of a sum over one
    vector, so no entry depends on the others.
    """
    a, w = _quad_grid(spec)
    T1 = T1[:, None, None]
    kappa = 4.0 * epsilon0 / T1
    r2 = np.sqrt(a + kappa)
    T2 = T2[..., None]
    delta = np.sqrt(T2 / T1) - 1.0
    h = 1.0 + 0.5 * delta
    s2 = h * h + 0.25 * delta * delta
    s_T = np.sqrt(T1) + np.sqrt(T2)
    r1 = np.sqrt(s2 * a + kappa)
    dd = h * a
    dd /= r1 + r2  # (r1 - r2)/delta

    def integral(vals):  # of a temporary, in place; fixed summation order for cross-run determinism
        vals *= w
        return np.add.reduce(vals, axis=-1)

    # the rho.r term of B2delta: u*r2 integrates to zero, u*r1 to its mean given z
    B2 = integral(4.0 * math.pi * T2 / s_T * (0.25 * (a + 3.0) * dd - 0.25 * (h / s2) * (3.0 - a) * r1))
    G, F = integral(8.0 * math.pi * r1), integral(8.0 * math.pi / s_T * dd)
    return integral(8.0 * math.pi * r2), G, F, B2


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


#: The checks of a node, in order: the functionals are finite; P11, P21 and A
#: are positive; neither denominator of S (the gap T2 - T1*H, the bracket) vanishes.
_NON_FINITE, _NOT_POSITIVE, _GAP, _BRACKET = 1, 2, 3, 4


#: The functionals and H, S, L at each (T1[k], T2[k, j]): (K, 1) arrays for
#: P11 and A, which depend on T1 alone, and (K, m) arrays for the rest; L is
#: NaN where a check fails, and fail is 0 or the first check that fails.
_Row = namedtuple("_Row", "P11 P21 P_diff A B_diff H gap bracket S L fail")


def _vanishes(value, x, y):
    """|value| within _SINGULAR_RTOL of the larger of |x| and |y| (at least 1e-300)."""
    return np.abs(value) <= _SINGULAR_RTOL * np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-300)


def _rows(T1: np.ndarray, T2: np.ndarray, consts: PhysConsts, spec: TripleQuadSpec, mode: str = "printed") -> _Row:
    """The five functionals and H, S, L at each (T1[k], T2[k, j]), for T1 of
    shape (K,) and T2 of any shape that broadcasts to (K, m).

    mode="calibrated" multiplies G_delta, G_0 and B1 by sqrt(T1) and every
    functional by c0^2 (see above); "printed" takes the integrals as they
    are.  A node that fails a check warns nothing; its L is NaN.
    """
    if mode not in ("printed", "calibrated"):
        raise ValueError(f"unknown mode {mode!r}")
    eps0 = consts.epsilon0
    # an overflow or 0/0 anywhere, the T1-only integrals included, makes a
    # non-finite functional, which the _NON_FINITE check flags
    with np.errstate(all="ignore"):
        per_t1 = []  # math.exp, not np.exp over T1, keeps the bits of one T1 at a time
        for t in T1.tolist():
            p = ReducedKernelParams(t, t, eps0)
            integrals = triple_integral("A_kern", p, spec), triple_integral("B1", p, spec)
            per_t1.append((*integrals, math.exp(-2.0 * eps0 / t)))
        A, t_b1, e = np.array(per_t1).T[:, :, None]
        P11, P21, P_diff, t_b2 = _pair_integrals(T1, T2, eps0, spec)
        T1 = T1[:, None]
        B_diff = -(t_b1 + t_b2)
        if mode == "calibrated":
            k, s1 = consts.c0**2, np.sqrt(T1)
            P11, P21, P_diff, A, B_diff = k * s1 * P11, k * s1 * P21, k * P_diff, k * A, -k * (s1 * t_b1 + t_b2)
        H = (T2 / T1) * e * P11 / P21  # the constants of the P's cancel
        T1H = T1 * H
        gap = T2 - T1H
        term_a = P_diff * e / (T1 * P21) * A
        term_b = (H / T2) * B_diff
        bracket = term_a + term_b
        S = 4.0 * math.pi * H / gap / ((4.0 * consts.sigma / 3.0) / T1 * bracket)
        L = S * (1.0 / T1 + H / T2)
        # the last check first, so that each node keeps the first it fails
        fail = np.zeros(L.shape, dtype=np.int8)
        fail[_vanishes(bracket, term_a, term_b)] = _BRACKET
        fail[_vanishes(gap, T2, T1H)] = _GAP
        fail[np.minimum(np.minimum(P11, A), P21) <= 0] = _NOT_POSITIVE  # a NaN fails the next check
        finite = np.isfinite(P11) & np.isfinite(A) & np.isfinite(P21) & np.isfinite(P_diff) & np.isfinite(B_diff)
        fail[~finite] = _NON_FINITE
    L[fail != 0] = np.nan
    return _Row(P11, P21, P_diff, A, B_diff, H, gap, bracket, S, L, fail)


def _node(T1, T2, consts, spec, mode="printed", last_check=_BRACKET) -> _Row:
    """`_rows` at the one point (T1, T2); raises SingularDenominator, naming
    the first check that fails, where one up to `last_check` fails."""
    ReducedKernelParams(T1, T2, consts.epsilon0)  # rejects a temperature <= 0
    row = _rows(np.array([T1], dtype=float), np.array([[T2]], dtype=float), consts, spec, mode)
    fail = row.fail.item()
    if fail == _NON_FINITE:
        raise SingularDenominator(f"non-finite functional: {_values(row)}")
    if fail == _NOT_POSITIVE:
        raise SingularDenominator("P11, P21, A must be positive")
    if 0 < fail <= last_check:
        name, value = ("T2 - T1*H", row.gap) if fail == _GAP else ("S bracket", row.bracket)
        raise SingularDenominator(f"{name} = {value.item():.3e} vanishes within tolerance at (T1, T2) = ({T1}, {T2})")
    return row


def _values(row: _Row) -> tuple:
    return tuple(v.item() for v in (row.P11, row.P21, row.P_diff, row.A, row.B_diff))


def functionals(T1, T2, consts: PhysConsts, spec=TripleQuadSpec(), mode="printed") -> CollisionFunctionals:
    """All five functionals at (T1, T2) in `mode`, "printed" or "calibrated".
    Raises SingularDenominator where one is not finite or P11, P21 or A not positive."""
    return CollisionFunctionals(*_values(_node(T1, T2, consts, spec, mode, _NOT_POSITIVE)))


def H_func(T1, T2, consts: PhysConsts, spec=TripleQuadSpec()) -> float:
    """H = (T2/T1) * exp(-2*eps0/T1) * P(T1) / P(T2,T1), the same in both modes."""
    return _node(T1, T2, consts, spec, last_check=_NOT_POSITIVE).H.item()


def S_func(T1, T2, consts: PhysConsts, spec=TripleQuadSpec()) -> float:
    """Singularity-removed S: 4*pi*H/(T2 - T1*H) over the collisional bracket.
    Raises SingularDenominator where either vanishes within tolerance."""
    return _node(T1, T2, consts, spec).S.item()


def L_func(T1, T2, consts: PhysConsts, spec=TripleQuadSpec()) -> float:
    """L = S * (1/T1 + H/T2): the level-curve quantity of the nonexistence result."""
    return _node(T1, T2, consts, spec).L.item()
