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

Sampling uses the Maxwellians themselves as proposals (unit weights) with
per-batch counter-based RNG streams, so reports are reproducible bit for bit
for a fixed plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision_reduction import TripleQuadSpec, functionals
from .constants import PhysConsts
from .physics import MaxwellianState, energy_density, entropy_lambda, maxwellian

__all__ = [
    "McPlan",
    "MomentReport",
    "detailed_balance_residual",
    "mc_conservation",
    "mass_exchange_estimate",
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


def _phi_delta(phi1, phi2, v1, v2, v3, v4):
    """phi1(v4) + phi2(v3) - phi1(v1) - phi1(v2) on sample batches."""
    return phi1(v4) + phi2(v3) - phi1(v1) - phi1(v2)


def _weak_form_moment(
    state1: MaxwellianState,
    state2: MaxwellianState,
    consts: PhysConsts,
    plan: McPlan,
    phi1,
    phi2,
    stream: int,
) -> Estimate:
    """Loss-side minus gain-side Monte Carlo estimate of <phi, K_non.el[F]>."""
    n = plan.n_samples
    m1 = state1.rho * consts.maxwellian_mass
    m2 = state2.rho * consts.maxwellian_mass
    pref = 2.0 * math.pi * consts.C0_kernel
    eps0 = consts.epsilon0

    def batches(side):
        start = 0
        b = 0
        while start < n:
            size = min(_BATCH, n - start)
            yield np.random.default_rng([plan.seed, stream, side, b]), size
            start += size
            b += 1

    def accumulate(side):
        total = 0.0
        total_sq = 0.0
        weight_abs = 0.0
        for rng, size in batches(side):
            if side == 0:  # loss: v1, v2 ~ ground Maxwellian at (u1, T1)
                v1 = state1.u + math.sqrt(state1.T / 2.0) * rng.standard_normal((size, 3))
                v2 = state1.u + math.sqrt(state1.T / 2.0) * rng.standard_normal((size, 3))
                omega = rng.standard_normal((size, 3))
                omega /= np.linalg.norm(omega, axis=1, keepdims=True)
                rel2 = np.sum((v1 - v2) ** 2, axis=1)
                open_ch = rel2 > 4.0 * eps0
                k = np.sqrt(np.maximum(0.25 * rel2 - eps0, 0.0))
                center = 0.5 * (v1 + v2)
                v3 = center + k[:, None] * omega
                v4 = center - k[:, None] * omega
                weight = np.where(
                    open_ch, m1 * m1 * pref * np.sqrt(np.maximum(rel2 - 4.0 * eps0, 0.0)), 0.0
                )
            else:  # gain: v3 ~ excited at (u2, T2), v4 ~ ground at (u1, T1)
                v3 = state2.u + math.sqrt(state2.T / 2.0) * rng.standard_normal((size, 3))
                v4 = state1.u + math.sqrt(state1.T / 2.0) * rng.standard_normal((size, 3))
                omega = rng.standard_normal((size, 3))
                omega /= np.linalg.norm(omega, axis=1, keepdims=True)
                rel2 = np.sum((v3 - v4) ** 2, axis=1)
                kp = np.sqrt(0.25 * rel2 + eps0)
                center = 0.5 * (v3 + v4)
                v1 = center + kp[:, None] * omega
                v2 = center - kp[:, None] * omega
                weight = m2 * m1 * pref * np.sqrt(rel2 + 4.0 * eps0)
            samples = weight * _phi_delta(phi1, phi2, v1, v2, v3, v4)
            total += float(np.sum(samples))
            total_sq += float(np.sum(samples * samples))
            weight_abs += float(np.sum(np.abs(weight)))
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0)
        se = math.sqrt(var / n)
        # rounding floor: the weak-form weights carry ~1e-16 relative noise,
        # so a per-sample-exact cancellation still reports a positive error
        return mean, max(se, 1e-16 * (weight_abs / n) / math.sqrt(n))

    loss_mean, loss_se = accumulate(0)
    gain_mean, gain_se = accumulate(1)
    return Estimate(loss_mean - gain_mean, math.sqrt(loss_se**2 + gain_se**2))


def mc_conservation(
    state1: MaxwellianState, state2: MaxwellianState, plan: McPlan, consts: PhysConsts
) -> MomentReport:
    """Mass/momentum/energy residuals of the nonelastic operators.

    Test functions: (1, 1) for molecule number, (v, v) for momentum, and
    (|v|^2/2, |v|^2/2 + eps0) for total energy.  All three vanish per sampled
    tuple by the collision kinematics, so the estimates sit at the rounding
    floor unless the kinematics are broken.
    """
    one = lambda v: np.ones(v.shape[0])
    mass = _weak_form_moment(state1, state2, consts, plan, one, one, stream=0)
    momentum = tuple(
        _weak_form_moment(
            state1,
            state2,
            consts,
            plan,
            lambda v, ax=ax: v[:, ax],
            lambda v, ax=ax: v[:, ax],
            stream=1 + ax,
        )
        for ax in range(3)
    )
    kin = lambda v: 0.5 * np.sum(v * v, axis=1)
    kin_exc = lambda v: 0.5 * np.sum(v * v, axis=1) + consts.epsilon0
    energy = _weak_form_moment(state1, state2, consts, plan, kin, kin_exc, stream=4)
    return MomentReport(mass=mass, momentum=momentum, energy=energy)


def mass_exchange_estimate(
    state1: MaxwellianState, state2: MaxwellianState, plan: McPlan, consts: PhysConsts
) -> Estimate:
    """Monte Carlo estimate of the excited-molecule production rate.

    Weak-form moment with (phi1, phi2) = (0, 1); its reduced closed form is
    rho1^2 e^(-2 eps0/T1) P(T1) - rho1 rho2 P(T2, T1).
    """
    zero = lambda v: np.zeros(v.shape[0])
    one = lambda v: np.ones(v.shape[0])
    return _weak_form_moment(state1, state2, consts, plan, zero, one, stream=9)


def mass_exchange_reduced(
    state1: MaxwellianState,
    state2: MaxwellianState,
    consts: PhysConsts,
    spec: TripleQuadSpec = TripleQuadSpec(),
    constants: dict | None = None,
) -> float:
    """The same rate from the calibrated reduced integrals (cross-module oracle)."""
    f = functionals(state1.T, state2.T, consts, spec, mode="calibrated", constants=constants)
    q = math.exp(-2.0 * consts.epsilon0 / state1.T)
    return state1.rho**2 * q * f.P11 - state1.rho * state2.rho * f.P21


def kernel_of_L_check(state: MaxwellianState, consts: PhysConsts, plan: McPlan) -> dict:
    """Verify that the collision operator annihilates the LTE pair built on `state`.

    Projects K[F_eq] on the excited-species moments 1, (v - u), |v - u|^2;
    at LTE every projection is consistent with zero.
    """
    q = math.exp(-2.0 * consts.epsilon0 / state.T)
    state2 = MaxwellianState(state.rho * q, state.u, state.T)
    zero = lambda v: np.zeros(v.shape[0])
    rows = {}
    rows["number"] = _weak_form_moment(
        state, state2, consts, plan, zero, lambda v: np.ones(v.shape[0]), stream=9
    )
    for ax in range(3):
        rows[f"momentum_{'xyz'[ax]}"] = _weak_form_moment(
            state,
            state2,
            consts,
            plan,
            zero,
            lambda v, ax=ax: v[:, ax] - state.u[ax],
            stream=20 + ax,
        )
    rows["energy"] = _weak_form_moment(
        state,
        state2,
        consts,
        plan,
        zero,
        lambda v: np.sum((v - state.u) ** 2, axis=1),
        stream=24,
    )
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
