"""Monte Carlo verification of the kinetic-level identities.

The estimators integrate the symmetrized weak form of the nonelastic
collision operators over sampled collision tuples.  The loss product is
sampled in pre-collision coordinates (both molecules from the ground-state
Maxwellian, channel open only above threshold) and the gain product in
post-collision coordinates (excited x ground, always open); each tuple is
completed through the exact kinematics, so conservation of molecule number,
momentum, and total energy holds per sample up to floating-point rounding.
A nonzero residual therefore points at a kinematics or kernel bug, not at
Monte Carlo noise.

Sampling uses the Maxwellians themselves as proposals (unit weights).  One
loss pass and one gain pass feed a whole vector of test functions.  Each
batch draws from an RNG keyed by (seed, side, batch), so reports are
reproducible bit for bit for a fixed plan, and estimates on the same pair of
Maxwellians share their random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision_reduction import functionals
from .constants import PhysConsts
from .physics import MaxwellianState, energy_density, entropy_lambda, maxwellian

__all__ = [
    "McPlan",
    "MomentReport",
    "detailed_balance_residual",
    "conservation_and_exchange",
    "kernel_of_L_check",
    "entropy_identity_check",
]

_BATCH = 1 << 17


@dataclass(frozen=True)
class McPlan:
    """Sample count and seed; proposals are the species Maxwellians."""

    n_samples: int = 10**6
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 10**4:
            raise ValueError(f"n_samples must be >= 1e4, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Estimate:
    value: float
    std_error: float

    @property
    def sigmas(self) -> float:
        return abs(self.value) / self.std_error if self.std_error > 0 else math.inf

    def consistent_with_zero(self, n_sigma: float = 3.0, floor: float = 1e-10) -> bool:
        return abs(self.value) <= n_sigma * self.std_error + floor


@dataclass
class MomentReport:
    """Weak-form conservation residuals with their standard errors."""

    mass: Estimate
    momentum: tuple
    energy: Estimate

    def all_pass(self, n_sigma: float = 3.0, floor: float = 1e-10) -> bool:
        checks = [self.mass, *self.momentum, self.energy]
        return all(e.consistent_with_zero(n_sigma, floor) for e in checks)

    def rows(self):
        out = [("mass", self.mass)]
        out += [(f"momentum_{ax}", e) for ax, e in zip("xyz", self.momentum)]
        out.append(("energy", self.energy))
        return out

    def __str__(self):
        lines = [f"{name:12s} {e.value:+.6e} +- {e.std_error:.2e}" for name, e in self.rows()]
        return "\n".join(lines)


def detailed_balance_residual(
    state1: MaxwellianState, state2: MaxwellianState, tup, consts: PhysConsts
) -> float:
    """(F1(v1) F1(v2) - F2(v3) F1(v4)) / (F1(v1) F1(v2)) for a nonelastic tuple.

    F1/F2 are the plain Maxwellians of the two states; the residual vanishes
    pointwise exactly when the densities sit in the Boltzmann ratio with a
    common velocity and temperature.
    """
    if tup.kind != "nonelastic":
        raise ValueError("detailed balance is a property of nonelastic tuples")
    lhs = maxwellian(state1, False, consts, tup.v1) * maxwellian(state1, False, consts, tup.v2)
    rhs = maxwellian(state2, False, consts, tup.v3) * maxwellian(state1, False, consts, tup.v4)
    res = (lhs - rhs) / lhs
    return float(res) if np.ndim(res) == 0 else res


def _collision_batch(state1, state2, consts, side, rng, size):
    """(weight, v1, v2, v3, v4) of one batch: side 0 draws the loss product
    (v1, v2 ground; open above threshold), side 1 the gain product (v3
    excited, v4 ground; always open)."""
    m1 = state1.rho * consts.maxwellian_mass
    pref = 2.0 * math.pi * consts.C0_kernel
    eps0 = consts.epsilon0
    first = state1 if side == 0 else state2
    a = first.u + math.sqrt(first.T / 2.0) * rng.standard_normal((size, 3))
    b = state1.u + math.sqrt(state1.T / 2.0) * rng.standard_normal((size, 3))
    omega = rng.standard_normal((size, 3))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    rel2 = np.sum((a - b) ** 2, axis=1)
    center = 0.5 * (a + b)
    if side == 0:
        k = np.sqrt(np.maximum(0.25 * rel2 - eps0, 0.0))
        weight = np.where(
            rel2 > 4.0 * eps0, m1 * m1 * pref * np.sqrt(np.maximum(rel2 - 4.0 * eps0, 0.0)), 0.0
        )
        return weight, a, b, center + k[:, None] * omega, center - k[:, None] * omega
    kp = np.sqrt(0.25 * rel2 + eps0)
    m2 = state2.rho * consts.maxwellian_mass
    weight = m2 * m1 * pref * np.sqrt(rel2 + 4.0 * eps0)
    return weight, center + kp[:, None] * omega, center - kp[:, None] * omega, a, b


def _weak_form_moments(
    state1: MaxwellianState,
    state2: MaxwellianState,
    consts: PhysConsts,
    plan: McPlan,
    phi1,
    phi2,
) -> list:
    """Loss-side minus gain-side Monte Carlo estimates of <phi, K_non.el[F]>.

    `phi1` (ground) and `phi2` (excited) map an (n, 3) velocity batch to
    (n, k) test-function values; one loss pass and one gain pass feed all k
    columns, and the result is one Estimate per column.
    """
    n = plan.n_samples

    def batch_sums(side, b, size):
        """Column sums of one batch's weighted samples and of their squares,
        and the sum of |weight|; the batch's arrays are freed on return, so
        the next batch is drawn without them."""
        rng = np.random.default_rng([plan.seed, side, b])
        weight, v1, v2, v3, v4 = _collision_batch(state1, state2, consts, side, rng, size)
        samples = weight[:, None] * (phi1(v4) + phi2(v3) - phi1(v1) - phi1(v2))
        sq = np.sum(samples * samples, axis=0)
        return np.sum(samples, axis=0), sq, float(np.sum(np.abs(weight)))

    def accumulate(side):
        total = total_sq = weight_abs = 0.0
        for b, start in enumerate(range(0, n, _BATCH)):
            batch_total, batch_sq, batch_abs = batch_sums(side, b, min(_BATCH, n - start))
            total = total + batch_total
            total_sq = total_sq + batch_sq
            weight_abs += batch_abs
        mean = total / n
        se = np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)
        # rounding floor: the weak-form weights carry ~1e-16 relative noise,
        # so a per-sample-exact cancellation still reports a positive error
        return mean, np.maximum(se, 1e-16 * (weight_abs / n) / math.sqrt(n))

    loss_mean, loss_se = accumulate(0)
    gain_mean, gain_se = accumulate(1)
    se = np.sqrt(loss_se**2 + gain_se**2)
    return [Estimate(float(m), float(e)) for m, e in zip(loss_mean - gain_mean, se)]


def _conserved(v, excitation=0.0, *extra):
    """Columns 1, v and |v|^2/2 + excitation of an (n, 3) velocity batch, then
    one constant column per `extra` value."""
    cols = [np.ones(len(v)), v, 0.5 * np.sum(v * v, axis=1) + excitation]
    return np.column_stack(cols + [np.full(len(v), c) for c in extra])


def _zeros(k):
    return lambda v: np.zeros((len(v), k))


def conservation_and_exchange(
    state1: MaxwellianState, state2: MaxwellianState, plan: McPlan, consts: PhysConsts
) -> tuple:
    """The conservation report and the mass-exchange estimate of one pair
    from one loss and one gain pass: (MomentReport, Estimate).

    Five conservation columns: test functions (1, 1) for molecule number,
    (v, v) for momentum and (|v|^2/2, |v|^2/2 + eps0) for total energy.  All
    three vanish per sampled tuple by the collision kinematics, so their
    estimates sit at the rounding floor unless the kinematics are broken.
    The sixth column is the excited-molecule production rate, test functions
    (0, 1); its reduced closed form is
    rho1^2 e^(-2 eps0/T1) P(T1) - rho1 rho2 P(T2, T1).
    """
    *conserved, exchange = _weak_form_moments(
        state1,
        state2,
        consts,
        plan,
        lambda v: _conserved(v, 0.0, 0.0),
        lambda v: _conserved(v, consts.epsilon0, 1.0),
    )
    mass, *momentum, energy = conserved
    return MomentReport(mass=mass, momentum=tuple(momentum), energy=energy), exchange


def mass_exchange_reduced(state1: MaxwellianState, state2: MaxwellianState, consts: PhysConsts) -> float:
    """The same rate from the calibrated reduced integrals (cross-module oracle)."""
    f = functionals(state1.T, state2.T, consts, mode="calibrated")
    q = math.exp(-2.0 * consts.epsilon0 / state1.T)
    return state1.rho**2 * q * f.P11 - state1.rho * state2.rho * f.P21


def kernel_of_L_check(state: MaxwellianState, consts: PhysConsts, plan: McPlan) -> dict:
    """Verify that the collision operator annihilates the LTE pair built on `state`.

    Projects K[F_eq] on the excited-species moments 1, v - u and |v - u|^2/2;
    at LTE every projection is consistent with zero.
    """
    q = math.exp(-2.0 * consts.epsilon0 / state.T)
    state2 = MaxwellianState(state.rho * q, state.u, state.T)
    excited = lambda v: _conserved(v - state.u)
    estimates = _weak_form_moments(state, state2, consts, plan, _zeros(5), excited)
    rows = dict(zip(["number", "momentum_x", "momentum_y", "momentum_z", "energy"], estimates))
    return {
        "projections": rows,
        "all_within_3_sigma": all(e.consistent_with_zero() for e in rows.values()),
    }


def entropy_identity_check(T_list, consts: PhysConsts, rel_step: float = 1e-5) -> dict:
    """Finite-difference check of T * lambda'(T) = 2 * e'(T) at each temperature."""
    rows = []
    for T in T_list:
        h = rel_step * T
        lam_p = float(entropy_lambda(T + h, consts) - entropy_lambda(T - h, consts)) / (2 * h)
        e_p = float(energy_density(T + h, consts) - energy_density(T - h, consts)) / (2 * h)
        rel = abs(T * lam_p - 2.0 * e_p) / abs(2.0 * e_p)
        rows.append({"T": float(T), "T_lambda_prime": T * lam_p, "two_e_prime": 2 * e_p, "rel_error": rel})
    return {"rows": rows, "max_rel_error": max(r["rel_error"] for r in rows)}
