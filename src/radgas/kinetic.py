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

Sampling uses the Maxwellians themselves as proposals (unit weights).  Each
batch draws its standard normals from an RNG keyed by (seed, side, batch), so
reports are reproducible bit for bit for a fixed plan and every estimator
sees the same random numbers.  One draw per side therefore serves several
estimators at once (`weak_form_checks`: conservation, mass exchange and the
kernel of L): each forms its collision tuples from its own Maxwellians, in
row chunks of the batch, and feeds its whole vector of test functions, so
memory stays bounded by the batch and the chunk whatever the sample count.

The loss and gain sides share no running total, so they run at once: the
loss side on one worker thread, the gain side on the calling thread.  Each
side adds its batches to its own sums in batch order, so the estimates do
not depend on the threads' timing.  Each side draws a batch's `za`/`zb`
normals into one reused buffer and its `omega` normals, which come last in
the batch's stream, one chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .collision_reduction import functionals
from .constants import PhysConsts
from .physics import CollisionTuple, MaxwellianState, energy_density, entropy_lambda, maxwellian
from .twothreads import on_two_threads

__all__ = [
    "McPlan",
    "MomentReport",
    "detailed_balance_residual",
    "detailed_balance_check",
    "weak_form_checks",
    "entropy_identity_check",
]

_BATCH = 1 << 17
_CHUNK = 1 << 13


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


def detailed_balance_check(lte_pair, n_tuples: int, seed: int, consts: PhysConsts) -> float | None:
    """Largest |detailed_balance_residual| of `lte_pair` over the nonelastic
    tuples among `n_tuples` sampled ground-state pairs, or None when no pair
    is above threshold (nothing was checked).

    Both molecules come from the ground Maxwellian of `lte_pair`, the scattering
    direction is uniform, and the RNG is keyed by (seed, 1).
    """
    s1, s2 = lte_pair
    rng = default_rng([seed, 1])
    v1 = s1.u + rng.normal(size=(n_tuples, 3)) * math.sqrt(s1.T / 2)
    v2 = s1.u + rng.normal(size=(n_tuples, 3)) * math.sqrt(s1.T / 2)
    keep = np.flatnonzero(np.sum((v1 - v2) ** 2, axis=1) > 4 * consts.epsilon0 + 1e-9)
    # the directions of the kept tuples come last in the stream, so drawing
    # them chunk by chunk keeps their bits; a max is exact in any grouping
    chunk_max = []
    for lo in range(0, len(keep), _CHUNK):
        rows = keep[lo : lo + _CHUNK]
        om = rng.normal(size=(len(rows), 3))
        om /= np.linalg.norm(om, axis=1, keepdims=True)
        tup = CollisionTuple.nonelastic(v1[rows], v2[rows], om, consts)
        chunk_max.append(np.max(np.abs(detailed_balance_residual(s1, s2, tup, consts))))
    return float(np.max(chunk_max)) if chunk_max else None


def _tuple_chunk(state1, state2, consts, side, normals):
    """(weight, v1, v2, v3, v4) of one chunk from its standard normals
    (za, zb, unit omega), each (c, 3): side 0 forms the loss product (v1, v2
    ground; open above threshold), side 1 the gain product (v3 excited, v4
    ground; always open)."""
    za, zb, omega = normals
    m1 = state1.rho * consts.maxwellian_mass
    pref = 2.0 * math.pi * consts.C0_kernel
    eps0 = consts.epsilon0
    first = state1 if side == 0 else state2
    a = first.u + math.sqrt(first.T / 2.0) * za
    b = state1.u + math.sqrt(state1.T / 2.0) * zb
    d = a - b
    d *= d
    rel2 = d[:, 0] + d[:, 1] + d[:, 2]
    del d
    center = a + b
    center *= 0.5
    if side == 0:
        k = np.sqrt(np.maximum(0.25 * rel2 - eps0, 0.0))
        weight = np.where(
            rel2 > 4.0 * eps0, m1 * m1 * pref * np.sqrt(np.maximum(rel2 - 4.0 * eps0, 0.0)), 0.0
        )
    else:
        k = np.sqrt(0.25 * rel2 + eps0)
        m2 = state2.rho * consts.maxwellian_mass
        weight = m2 * m1 * pref * np.sqrt(rel2 + 4.0 * eps0)
    kw = k[:, None] * omega
    minus = center - kw
    center += kw
    return (weight, a, b, center, minus) if side == 0 else (weight, center, minus, a, b)


def _batch_normals(rng, size, pair, omega):
    """The row chunks (za, zb, omega) of one batch's standard normals, in the
    stream order of ``rng.standard_normal((3, size, 3))``: za and zb are drawn
    whole into the reused buffer `pair` (at least 6 * size floats), then omega
    one chunk at a time into the reused (_CHUNK, 3) buffer `omega`."""
    za, zb = rng.standard_normal(out=pair[: 6 * size].reshape(2, size, 3))
    for lo in range(0, size, _CHUNK):
        om = rng.standard_normal(out=omega[: min(_CHUNK, size - lo)])
        yield za[lo : lo + len(om)], zb[lo : lo + len(om)], om


def _add_chunk(acc, problem, consts, side, normals):
    """Adds one chunk's column sums of w*D and (w*D)^2 and its weight sum to
    the problem's running totals `acc`; the chunk's tuples are freed on return."""
    state1, state2, phi1, phi2 = problem
    weight, v1, v2, v3, v4 = _tuple_chunk(state1, state2, consts, side, normals)
    samples = phi2(v3)
    if phi1 is not None:
        samples += phi1(v4)
        samples -= phi1(v1)
        samples -= phi1(v2)
    samples *= weight[:, None]
    # a column sum reads that column alone, so a problem's estimates do not
    # depend on which other columns ride along
    acc[0] = acc[0] + samples.sum(axis=0)
    samples *= samples
    acc[1] = acc[1] + samples.sum(axis=0)
    acc[2] += float(weight.sum())


def _weak_form_moments(problems, consts: PhysConsts, plan: McPlan) -> list:
    """Loss-side minus gain-side Monte Carlo estimates of <phi, K_non.el[F]>,
    one list of Estimates per problem (state1, state2, phi1, phi2).

    `phi1` (ground) and `phi2` (excited) map an (n, 3) velocity batch to
    (n, k) test-function values; `phi1` None stands for all-zero ground-state
    test functions.  Each (seed, side, batch) block of standard normals is
    drawn once and serves every problem: walking it in row chunks, each
    problem forms the chunk's collision tuples from its own Maxwellians and
    adds the column sums of w*D and (w*D)^2, with
    D = phi1(v4) + phi2(v3) - phi1(v1) - phi1(v2), to its running totals.

    The loss side runs on one worker thread and the gain side on the calling
    thread (`twothreads.on_two_threads`): the worker is always joined, and its
    exception re-raised here.
    """
    n = plan.n_samples
    # per side and problem: [sum of w*D, sum of (w*D)^2, sum of w]; weights are >= 0
    sums = [[[0.0, 0.0, 0.0] for _ in problems] for _ in (0, 1)]

    def add_side(side):
        pair, omega = np.empty(6 * _BATCH), np.empty((_CHUNK, 3))
        for b, start in enumerate(range(0, n, _BATCH)):
            rng = default_rng([plan.seed, side, b])
            for za, zb, om in _batch_normals(rng, min(_BATCH, n - start), pair, omega):
                om /= np.sqrt(om[:, 0] ** 2 + om[:, 1] ** 2 + om[:, 2] ** 2)[:, None]
                for acc, problem in zip(sums[side], problems):
                    _add_chunk(acc, problem, consts, side, (za, zb, om))

    on_two_threads(add_side, (1, 0))  # the gain side here, the loss side on the worker

    def side_estimate(total, total_sq, weight_sum):
        mean = total / n
        se = np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)
        # rounding floor: the weak-form weights carry ~1e-16 relative noise,
        # so a per-sample-exact cancellation still reports a positive error
        return mean, np.maximum(se, 1e-16 * (weight_sum / n) / math.sqrt(n))

    out = []
    for loss, gain in zip(*sums):
        (loss_mean, loss_se), (gain_mean, gain_se) = side_estimate(*loss), side_estimate(*gain)
        se = np.sqrt(loss_se**2 + gain_se**2)
        out.append([Estimate(float(m), float(e)) for m, e in zip(loss_mean - gain_mean, se)])
    return out


def _conserved(v, excitation=0.0, *extra):
    """Columns 1, v and |v|^2/2 + excitation of an (n, 3) velocity batch, then
    one constant column per `extra` value; filled row by row in a (k, n)
    array and returned as its (n, k) transpose, so each column is contiguous."""
    out = np.empty((5 + len(extra), len(v)))
    out[0] = 1.0
    out[1:4] = v.T
    energy = out[4]
    np.multiply(out[1], out[1], out=energy)
    energy += out[2] * out[2]
    energy += out[3] * out[3]
    energy *= 0.5
    energy += excitation
    out[5:] = np.reshape(extra, (-1, 1))
    return out.T


def _exchange_problem(state1, state2, consts):
    """Five conservation columns and the mass-exchange column (see
    `weak_form_checks`)."""
    return (
        state1,
        state2,
        lambda v: _conserved(v, 0.0, 0.0),
        lambda v: _conserved(v, consts.epsilon0, 1.0),
    )


def _exchange_result(estimates) -> tuple:
    *conserved, exchange = estimates
    mass, *momentum, energy = conserved
    return MomentReport(mass=mass, momentum=tuple(momentum), energy=energy), exchange


def _kernel_problem(state, consts):
    """The LTE pair on `state`, projected on the excited-species moments."""
    q = math.exp(-2.0 * consts.epsilon0 / state.T)
    state2 = MaxwellianState(state.rho * q, state.u, state.T)
    return state, state2, None, lambda v: _conserved(v - state.u)


def _kernel_result(estimates) -> dict:
    rows = dict(zip(["number", "momentum_x", "momentum_y", "momentum_z", "energy"], estimates))
    return {
        "projections": rows,
        "all_within_3_sigma": all(e.consistent_with_zero() for e in rows.values()),
    }


def mass_exchange_reduced(state1: MaxwellianState, state2: MaxwellianState, consts: PhysConsts) -> float:
    """The mass-exchange rate of `weak_form_checks` from the calibrated reduced
    integrals (cross-module oracle)."""
    f = functionals(state1.T, state2.T, consts, mode="calibrated")
    q = math.exp(-2.0 * consts.epsilon0 / state1.T)
    return state1.rho**2 * q * f.P11 - state1.rho * state2.rho * f.P21


def weak_form_checks(generic_pair, lte_state: MaxwellianState, plan: McPlan, consts: PhysConsts) -> tuple:
    """The conservation report and the mass-exchange estimate of `generic_pair`
    and the kernel-of-L check of the LTE pair on `lte_state`, from one draw
    per side: (MomentReport, Estimate, kernel dict).

    Five conservation columns: test functions (1, 1) for molecule number,
    (v, v) for momentum and (|v|^2/2, |v|^2/2 + eps0) for total energy.  All
    three vanish per sampled tuple by the collision kinematics, so their
    estimates sit at the rounding floor unless the kinematics are broken.
    The sixth column is the excited-molecule production rate, test functions
    (0, 1); its reduced closed form is
    rho1^2 e^(-2 eps0/T1) P(T1) - rho1 rho2 P(T2, T1).

    The kernel check projects K[F_eq] on the excited-species moments 1, v - u
    and |v - u|^2/2; at LTE every projection is consistent with zero.

    Every problem keys its batches by (seed, side, batch), so the results
    equal those of each problem estimated alone, bit for bit.
    """
    exchange, kernel = _weak_form_moments(
        [_exchange_problem(*generic_pair, consts), _kernel_problem(lte_state, consts)], consts, plan
    )
    return (*_exchange_result(exchange), _kernel_result(kernel))


#: Central-difference step of `entropy_identity_check`, relative to T.
_REL_STEP = 1e-5


def entropy_identity_check(T_list, consts: PhysConsts) -> dict:
    """Finite-difference check of T * lambda'(T) = 2 * e'(T) at each temperature."""
    rows = []
    for T in T_list:
        h = _REL_STEP * T
        lam_p = float(entropy_lambda(T + h, consts) - entropy_lambda(T - h, consts)) / (2 * h)
        e_p = float(energy_density(T + h, consts) - energy_density(T - h, consts)) / (2 * h)
        rel = abs(T * lam_p - 2.0 * e_p) / abs(2.0 * e_p)
        rows.append({"T": float(T), "T_lambda_prime": T * lam_p, "two_e_prime": 2 * e_p, "rel_error": rel})
    return {"rows": rows, "max_rel_error": max(r["rel_error"] for r in rows)}
