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
estimators at once (`verify_checks`: conservation, mass exchange and the
kernel of L): each forms its collision tuples from its own Maxwellians, in
row chunks of the batch, and feeds its whole vector of test functions, so
memory stays bounded by the batch and the chunk whatever the sample count.

The loss and gain sides share no running total, so they run at once: the
loss side on one worker thread, the gain side on the calling thread, which
for `radgas verify` (`verify_checks`) then runs the detailed-balance
sweep.  Each side adds its batches to its own sums in batch order, so the
estimates do not depend on the threads' timing.  Each side draws a batch's `za`/`zb` normals into one
reused buffer, which the sweep reuses for its molecule velocities, and its
`omega` normals, which come last in the batch's stream, one chunk at a time.
A chunk's tuples and test functions live in contiguous (3, c) coordinate
rows and (k, c) test-function rows that each thread allocates once; every
step writes them with `out=` in the order of the (c, 3) expressions it
replaced, so every sum keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision_reduction import functionals
from .constants import PhysConsts
from .physics import CollisionTuple, MaxwellianState, energy_density, entropy_lambda, maxwellian
from .twothreads import on_two_threads

__all__ = [
    "McPlan",
    "MomentReport",
    "detailed_balance_residual",
    "entropy_identity_check",
]

_BATCH = 1 << 17
_CHUNK = 1 << 13
#: Tuples per step of the detailed-balance sweep: its temporaries stay near
#: 1 MiB, so the sweep fits beside the loss side's buffers.
_SWEEP_CHUNK = 1 << 12


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
    lhs = maxwellian(state1, False, consts, tup.v1) * maxwellian(state1, False, consts, tup.v2)
    rhs = maxwellian(state2, False, consts, tup.v3) * maxwellian(state1, False, consts, tup.v4)
    res = (lhs - rhs) / lhs
    return float(res) if np.ndim(res) == 0 else res


def _balance_sweep(lte_pair, n_tuples, seed, consts, pair=None):
    """Largest |detailed_balance_residual| of `lte_pair` over the nonelastic
    tuples among `n_tuples` sampled ground-state pairs, or None when no pair
    is above threshold (nothing was checked).

    Both molecules come from the ground Maxwellian of `lte_pair`, drawn into
    the buffer `pair` (a fresh one when it is None or holds fewer than
    6 * n_tuples floats), the scattering direction is uniform, and the RNG
    is keyed by (seed, 1).
    """
    from numpy.random import default_rng

    s1, s2 = lte_pair
    if pair is None or pair.size < 6 * n_tuples:
        pair = np.empty(6 * n_tuples)
    rng = default_rng([seed, 1])
    v = rng.standard_normal(out=pair[: 6 * n_tuples].reshape(2, n_tuples, 3))
    v *= math.sqrt(s1.T / 2)
    v += s1.u
    v1, v2 = v
    # the directions of the kept tuples come last in the stream, so drawing
    # them chunk by chunk keeps their bits; a max is exact in any grouping
    chunk_max = []
    for lo in range(0, n_tuples, _SWEEP_CHUNK):
        a, b = v1[lo : lo + _SWEEP_CHUNK], v2[lo : lo + _SWEEP_CHUNK]
        rows = np.flatnonzero(np.sum((a - b) ** 2, axis=1) > 4 * consts.epsilon0 + 1e-9)
        if len(rows):
            om = rng.normal(size=(len(rows), 3))
            om /= np.linalg.norm(om, axis=1, keepdims=True)
            tup = CollisionTuple.nonelastic(a[rows], b[rows], om, consts)
            chunk_max.append(np.max(np.abs(detailed_balance_residual(s1, s2, tup, consts))))
    return float(np.max(chunk_max)) if chunk_max else None


class _Rows:
    """One thread's reused (rows, _CHUNK) buffers, one row per coordinate or
    test function, so each step of a chunk is one numpy call over contiguous
    rows: two threads queue for the GIL between numpy calls, so the number
    of calls costs as much CPU as their length.

    `v` holds the chunk's (v3, v4, v1, v2), each as (3, c) coordinate rows;
    `kw` holds k, the weight and |v1 - v2|^2.  `samples` is the scratch of
    the tuple steps until it takes the test functions.
    """

    def __init__(self, n_cols):
        self.v = np.empty((4, 3, _CHUNK))
        self.kw = np.empty((3, _CHUNK))
        self.open = np.empty(_CHUNK, dtype=bool)
        self.samples = np.empty((max(3, n_cols), _CHUNK))


def _tuple_chunk(state1, state2, consts, side, normals, rows):
    """(weight, v) of one chunk, v the (4, 3, c) rows of (v3, v4, v1, v2),
    written into the buffers of `rows` from the chunk's standard normals:
    (za, zb) as one (2, c, 3) array and unit omega (c, 3).  Side 0 forms the
    loss product (v1, v2 ground; open above threshold), side 1 the gain
    product (v3 excited, v4 ground; always open).  Each step is the old
    (c, 3) expression on the rows."""
    zab, omega = normals
    c = len(omega)
    v = rows.v[:, :, :c]
    # the drawn pair (a, b) is (v1, v2) on side 0 and (v3, v4) on side 1;
    # the centre of mass plus and minus k omega gives the other two
    ab, centre, minus = (v[2:], v[0], v[1]) if side == 0 else (v[:2], v[2], v[3])
    a, b = ab
    k, weight, rel2 = rows.kw[:, :c]
    kw, scratch = rows.kw[:2, :c], rows.samples[:3, :c]
    m1 = state1.rho * consts.maxwellian_mass
    pref = 2.0 * math.pi * consts.C0_kernel
    eps0 = consts.epsilon0
    first = state1 if side == 0 else state2
    # a = u + sqrt(T / 2) za for `first`, b the same for state1
    np.multiply(zab.transpose(0, 2, 1), [[[math.sqrt(first.T / 2.0)]], [[math.sqrt(state1.T / 2.0)]]], out=ab)
    ab += np.stack([first.u, state1.u])[:, :, None]
    # |a - b|^2 summed as ((x + y) + z)
    np.subtract(a, b, out=scratch)
    scratch *= scratch
    np.add(scratch[0], scratch[1], out=rel2)
    rel2 += scratch[2]
    np.add(a, b, out=centre)
    centre *= 0.5
    # k from 0.25 rel2 -+ eps0 and the weight's root from rel2 -+ 4 eps0, as two rows
    np.multiply(rel2, [[0.25], [1.0]], out=kw)
    if side == 0:
        kw -= [[eps0], [4.0 * eps0]]
        np.maximum(kw, 0.0, out=kw)
        np.sqrt(kw, out=kw)
        weight *= m1 * m1 * pref
        # below threshold the channel is closed
        closed = np.greater(rel2, 4.0 * eps0, out=rows.open[:c])
        np.logical_not(closed, out=closed)
        np.putmask(weight, closed, 0.0)
    else:
        kw += [[eps0], [4.0 * eps0]]
        np.sqrt(kw, out=kw)
        weight *= state2.rho * consts.maxwellian_mass * m1 * pref
    np.multiply(k, omega.T, out=scratch)
    np.subtract(centre, scratch, out=minus)
    centre += scratch
    return weight, v


def _batch_normals(rng, size, pair, omega):
    """The row chunks ((za, zb), omega) of one batch's standard normals, in
    the stream order of ``rng.standard_normal((3, size, 3))``: za and zb are
    drawn whole into the reused buffer `pair` (at least 6 * size floats) and
    yielded as one (2, c, 3) view per chunk, then omega one chunk at a time
    into the reused (_CHUNK, 3) buffer `omega`."""
    zab = rng.standard_normal(out=pair[: 6 * size].reshape(2, size, 3))
    for lo in range(0, size, _CHUNK):
        om = rng.standard_normal(out=omega[: min(_CHUNK, size - lo)])
        yield zab[:, lo : lo + len(om)], om


def _add_chunk(acc, problem, consts, side, normals, rows):
    """Adds one chunk's row sums of w*D and (w*D)^2 and its weight sum to
    the problem's running totals `acc`."""
    state1, state2, change, n_cols = problem
    weight, v = _tuple_chunk(state1, state2, consts, side, normals, rows)
    samples = rows.samples[:n_cols, : len(weight)]
    change(v, samples)
    samples *= weight
    # a row sum reads that row alone, so a problem's estimates do not
    # depend on which other rows ride along
    acc[0] = acc[0] + samples.sum(axis=1)
    samples *= samples
    acc[1] = acc[1] + samples.sum(axis=1)
    acc[2] += float(weight.sum())


def _add_side(side_sums, problems, consts, plan, side, pair, default_rng):
    """Adds every batch of `side` to the running totals of each problem,
    drawing the batches' za/zb normals into `pair` from the generators
    `default_rng` makes."""
    n = plan.n_samples
    omega = np.empty((_CHUNK, 3))
    rows = _Rows(max(problem[3] for problem in problems))
    for b, start in enumerate(range(0, n, _BATCH)):
        rng = default_rng([plan.seed, side, b])
        for zab, om in _batch_normals(rng, min(_BATCH, n - start), pair, omega):
            c = len(om)
            # om /= |om|, the norm summed as ((x^2 + y^2) + z^2)
            squares, norm = rows.samples[:3, :c], rows.kw[0, :c]
            np.multiply(om.T, om.T, out=squares)
            np.add(squares[0], squares[1], out=norm)
            norm += squares[2]
            np.sqrt(norm, out=norm)
            np.divide(om.T, norm, out=om.T)
            for acc, problem in zip(side_sums, problems):
                _add_chunk(acc, problem, consts, side, (zab, om), rows)


def _weak_form_moments(problems, consts: PhysConsts, plan: McPlan, then=None) -> list:
    """Loss-side minus gain-side Monte Carlo estimates of <phi, K_non.el[F]>,
    one list of Estimates per problem (state1, state2, change, n_cols).

    ``change(v, out)`` writes each tuple's change of the n_cols test
    functions, D = phi2(v3) + phi1(v4) - phi1(v1) - phi1(v2) with phi1
    (ground) and phi2 (excited), into the rows of the (n_cols, c) array
    `out`; `v` holds the (4, 3, c) coordinate rows of (v3, v4, v1, v2), which
    it may overwrite (`_moment_change`).  Each (seed, side, batch) block of
    standard normals is drawn once and serves every problem: walking it in
    row chunks, each problem forms the chunk's collision tuples from its own
    Maxwellians and adds the row sums of w*D and (w*D)^2 to its running
    totals.

    Each thread owns one normals buffer (6 * _BATCH floats, 6 MiB) and one
    `_Rows` set (24 rows of _CHUNK floats with the omega buffer, 1.5 MiB): a
    chunk's tuples and test functions are written into those rows with
    `out=`, in the order of the (c, 3) expressions they replace, so every
    sum keeps its bits.  The drawn za/zb are read in place, as strided
    (3, c) views, and not copied into rows of their own.  The loss side
    runs on one worker thread; the gain side runs on the calling thread,
    which then calls ``then(pair)`` with the gain side's spent normals
    buffer (`twothreads.on_two_threads`): the worker is always joined, and
    its exception re-raised here.  A default `verify` pass peaks at 15.2 MiB
    of traced memory.
    """
    # numpy.random is imported here, on the calling thread, before the worker
    # starts: a run that draws nothing never loads it
    from numpy.random import default_rng

    n = plan.n_samples
    # per side and problem: [sum of w*D, sum of (w*D)^2, sum of w]; weights are >= 0
    sums = [[[0.0, 0.0, 0.0] for _ in problems] for _ in (0, 1)]

    def add_side(side):
        pair = np.empty(6 * _BATCH)
        _add_side(sums[side], problems, consts, plan, side, pair, default_rng)
        if side == 1 and then is not None:
            then(pair)

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


def _moment_change(v, out, excited, ground=None):
    """Writes D = phi2(v3) + phi1(v4) - phi1(v1) - phi1(v2), in that order,
    into the rows of `out`, for the moments phi = (1, v - u,
    |v - u|^2/2 + excitation, *extra) of each species.

    `v` holds the (4, 3, c) rows of (v3, v4, v1, v2) and is overwritten.
    `excited` and `ground` are (u, excitation, extra) with u a 3-vector or
    None for no shift; `ground` None stands for all-zero ground-state test
    functions.  Each step runs over all four velocities at once, in the old
    per-column expression order, so D keeps its bits.
    """
    species = [excited] if ground is None else [excited, ground, ground, ground]
    v = v[: len(species)]
    if any(u is not None for u, _, _ in species):
        # a zero shift is exact: x - 0.0 == x for every float
        v -= np.array([np.zeros(3) if u is None else u for u, _, _ in species])[:, :, None]
    momentum, energy = out[1:4], out[4]
    if ground is None:
        np.copyto(momentum, v[0])
    else:
        np.add(v[0], v[1], out=momentum)
        momentum -= v[2]
        momentum -= v[3]
    # |v - u|^2/2 + excitation per velocity, the squares summed as ((x + y) + z)
    v *= v
    sums = v[:, 0]
    sums += v[:, 1]
    sums += v[:, 2]
    sums *= 0.5
    sums += np.array([e for _, e, _ in species])[:, None]
    if ground is None:
        np.copyto(energy, sums[0])
    else:
        np.add(sums[0], sums[1], out=energy)
        energy -= sums[2]
        energy -= sums[3]
    # the constant rows, 1 and the extras, in the same order
    values = (1.0, *excited[2])
    if ground is not None:
        values = [((c2 + c1) - c1) - c1 for c2, c1 in zip(values, (1.0, *ground[2]))]
    for row, value in zip((out[0], *out[5:]), values):
        row.fill(value)


def _exchange_problem(state1, state2, consts):
    """Five conservation columns and the mass-exchange column (see
    `verify_checks`)."""
    ground, excited = (None, 0.0, (0.0,)), (None, consts.epsilon0, (1.0,))
    return state1, state2, lambda v, out: _moment_change(v, out, excited, ground), 6


def _exchange_result(estimates) -> tuple:
    *conserved, exchange = estimates
    mass, *momentum, energy = conserved
    return MomentReport(mass=mass, momentum=tuple(momentum), energy=energy), exchange


def _kernel_problem(state, consts):
    """The LTE pair on `state`, projected on the excited-species moments."""
    q = math.exp(-2.0 * consts.epsilon0 / state.T)
    state2 = MaxwellianState(state.rho * q, state.u, state.T)
    return state, state2, lambda v, out: _moment_change(v, out, (state.u, 0.0, ())), 5


def _kernel_result(estimates) -> dict:
    rows = dict(zip(["number", "momentum_x", "momentum_y", "momentum_z", "energy"], estimates))
    return {
        "projections": rows,
        "all_within_3_sigma": all(e.consistent_with_zero() for e in rows.values()),
    }


def mass_exchange_reduced(state1: MaxwellianState, state2: MaxwellianState, consts: PhysConsts) -> float:
    """The mass-exchange rate of `verify_checks` from the calibrated reduced
    integrals (cross-module oracle)."""
    f = functionals(state1.T, state2.T, consts, mode="calibrated")
    q = math.exp(-2.0 * consts.epsilon0 / state1.T)
    return state1.rho**2 * q * f.P11 - state1.rho * state2.rho * f.P21


def _weak_form_checks(generic_pair, lte_state, plan, consts, then=None):
    """(MomentReport, Estimate, kernel dict) of `verify_checks` from one draw
    per side; the calling thread calls ``then(pair)`` after the gain side."""
    exchange, kernel = _weak_form_moments(
        [_exchange_problem(*generic_pair, consts), _kernel_problem(lte_state, consts)], consts, plan, then
    )
    return (*_exchange_result(exchange), _kernel_result(kernel))


def verify_checks(lte_pair, n_tuples, generic_pair, lte_state, plan, consts) -> tuple:
    """The checks of `radgas verify`: (balance, (MomentReport, Estimate,
    kernel dict)).

    `balance` is the largest detailed-balance residual of `lte_pair` over
    `n_tuples` sampled ground-state pairs (`_balance_sweep`, keyed by
    (plan.seed, 1)), or None when no pair is above threshold.

    The rest comes from one draw per side.  The conservation report and the
    mass-exchange estimate are those of `generic_pair`.  Five conservation
    columns: test functions (1, 1) for molecule number, (v, v) for momentum
    and (|v|^2/2, |v|^2/2 + eps0) for total energy.  All three vanish per
    sampled tuple by the collision kinematics, so their estimates sit at the
    rounding floor unless the kinematics are broken.  The sixth column is
    the excited-molecule production rate, test functions (0, 1); its reduced
    closed form is rho1^2 e^(-2 eps0/T1) P(T1) - rho1 rho2 P(T2, T1).  The
    kernel check projects K[F_eq] of the LTE pair on `lte_state` on the
    excited-species moments 1, v - u and |v - u|^2/2; at LTE every
    projection is consistent with zero.

    Every problem keys its batches by (seed, side, batch), so the results
    equal those of each problem estimated alone, bit for bit.  One
    two-thread pass serves all: the calling thread runs the gain side and
    then the detailed-balance sweep, in the gain side's spent normals
    buffer, while the worker runs the loss side.
    """
    balance = []

    def sweep(pair):
        balance.append(_balance_sweep(lte_pair, n_tuples, plan.seed, consts, pair))

    checks = _weak_form_checks(generic_pair, lte_state, plan, consts, sweep)
    return balance[0], checks


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
