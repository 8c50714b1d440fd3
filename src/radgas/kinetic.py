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
estimators at once (`verify_checks`: conservation, mass and energy
exchange, and the kernel of L): each forms its collision tuples from its own
Maxwellians, in row chunks of the batch, and feeds its whole vector of test
functions, so memory stays bounded by the batch and the chunk whatever the
sample count.

The loss and gain sides share no running total, so they run at once: the
loss side on one worker thread, the gain side on the calling thread.  Each
side adds its batches to its own sums in batch order, so the estimates do
not depend on the threads' timing.  Each side draws a batch's `za`/`zb`
normals into one reused buffer, and its `omega` normals, which come last in
the batch's stream, one chunk at a time.  A chunk's tuples and test
functions live in contiguous (3, c) coordinate rows and (k, c)
test-function rows that each thread allocates once; every step writes them
with `out=` in the order of the (c, 3) expressions it replaced, so every sum
keeps its bits.

The detailed-balance sweep of `radgas verify` (`_balance_sweep`) runs on
the same rows after both sides: the loss-side tuples of `_tuple_chunk` and
the squared speeds of `_moment_change` give F1(v1) F1(v2) - F2(v3) F1(v4)
tuple by tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collision_reduction import functionals
from .constants import PhysConsts
from .physics import MaxwellianState, energy_density, entropy_lambda
from .twothreads import on_two_threads

__all__ = [
    "McPlan",
    "MomentReport",
    "entropy_identity_check",
]

_BATCH = 1 << 17
_CHUNK = 1 << 13
#: An estimate is consistent with zero within _N_SIGMA standard errors plus
#: _FLOOR, which absorbs the rounding of a per-sample-exact cancellation.
_N_SIGMA = 3.0
_FLOOR = 1e-10


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

    def consistent_with_zero(self) -> bool:
        return abs(self.value) <= _N_SIGMA * self.std_error + _FLOOR


@dataclass
class MomentReport:
    """Weak-form conservation residuals with their standard errors."""

    mass: Estimate
    momentum: tuple
    energy: Estimate

    def all_pass(self) -> bool:
        return all(e.consistent_with_zero() for e in [self.mass, *self.momentum, self.energy])

    def rows(self):
        out = [("mass", self.mass)]
        out += [(f"momentum_{ax}", e) for ax, e in zip("xyz", self.momentum)]
        out.append(("energy", self.energy))
        return out

    def __str__(self):
        lines = [f"{name:12s} {e.value:+.6e} +- {e.std_error:.2e}" for name, e in self.rows()]
        return "\n".join(lines)


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


def _squared_speeds(v, out=None):
    """|v|^2 of the (..., 3, c) coordinate rows `v`, summed as ((x + y) + z)
    into `out` (by default the x rows of v); squares v in place."""
    v *= v
    if out is None:
        out = v[..., 0, :]
    np.add(v[..., 0, :], v[..., 1, :], out=out)
    out += v[..., 2, :]
    return out


def _pair_rows(first, second, zab, ab, scratch, rel2):
    """Writes a = u + sqrt(T / 2) za for the state `first` and b the same
    from zb for `second` into the (2, 3, c) rows `ab`, from the (2, c, 3)
    normals `zab`, and |a - b|^2 into `rel2`; `scratch` is (3, c)."""
    np.multiply(zab.transpose(0, 2, 1), [[[math.sqrt(first.T / 2.0)]], [[math.sqrt(second.T / 2.0)]]], out=ab)
    ab += np.stack([first.u, second.u])[:, :, None]
    np.subtract(ab[0], ab[1], out=scratch)
    _squared_speeds(scratch, rel2)


def _normalize(omega, rows):
    """omega /= |omega| for the (c, 3) directions `omega`, the norm summed as
    ((x^2 + y^2) + z^2) in the scratch of `rows`."""
    c = len(omega)
    squares, norm = rows.samples[:3, :c], rows.kw[0, :c]
    np.copyto(squares, omega.T)
    np.sqrt(_squared_speeds(squares, norm), out=norm)
    np.divide(omega.T, norm, out=omega.T)


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
    _pair_rows(state1 if side == 0 else state2, state1, zab, ab, scratch, rel2)
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


def _balance_residual(state1, state2, consts, v):
    """(F1(v1) F1(v2) - F2(v3) F1(v4)) / (F1(v1) F1(v2)) of the (4, 3, c)
    rows `v` of (v3, v4, v1, v2), which it overwrites, as a (c,) view of v.

    F is the plain Maxwellian c0 rho T^(-3/2) exp(-|v - u|^2 / T) of a
    state; the residual vanishes pointwise exactly when the densities sit in
    the Boltzmann ratio with a common velocity and temperature."""
    states = (state2, state1, state1, state1)
    v -= np.array([s.u for s in states])[:, :, None]
    f = _squared_speeds(v)
    np.negative(f, out=f)
    f /= np.array([[s.T] for s in states])
    np.exp(f, out=f)
    f *= np.array([[consts.c0 * s.rho * s.T**-1.5] for s in states])
    # F2(v3) F1(v4) into row 0, then F1(v1) F1(v2) into row 1
    rhs, lhs = f[0], f[1]
    rhs *= f[1]
    np.multiply(f[2], f[3], out=lhs)
    np.subtract(lhs, rhs, out=rhs)
    rhs /= lhs
    return rhs


def _balance_sweep(lte_pair, n_tuples, seed, consts):
    """Largest |`_balance_residual`| of `lte_pair` over the nonelastic tuples
    among `n_tuples` sampled ground-state pairs, or None when no pair is
    above threshold (nothing was checked).

    Both molecules come from the ground Maxwellian of `lte_pair` and the
    scattering direction is uniform; the RNG, keyed by (seed, 1), draws every
    pair first and then the directions of the kept tuples, one `_CHUNK` of
    pairs at a time.  The kept tuples are the loss-side tuples of
    `_tuple_chunk`.
    """
    from numpy.random import default_rng

    s1, s2 = lte_pair
    rng = default_rng([seed, 1])
    zab = rng.standard_normal((2, n_tuples, 3))
    rows, omega = _Rows(3), np.empty((_CHUNK, 3))
    # a max is exact in any grouping
    chunk_max = []
    for lo in range(0, n_tuples, _CHUNK):
        z = zab[:, lo : lo + _CHUNK]
        c = z.shape[1]
        rel2 = rows.kw[2, :c]
        _pair_rows(s1, s1, z, rows.v[2:, :, :c], rows.samples[:3, :c], rel2)
        kept = np.flatnonzero(rel2 > 4 * consts.epsilon0 + 1e-9)
        if len(kept):
            om = rng.standard_normal(out=omega[: len(kept)])
            _normalize(om, rows)
            _, v = _tuple_chunk(s1, s2, consts, 0, (z[:, kept], om), rows)
            chunk_max.append(np.max(np.abs(_balance_residual(s1, s2, consts, v))))
    return float(np.max(chunk_max)) if chunk_max else None


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


def _add_side(side_sums, problems, consts, plan, side, default_rng):
    """Adds every batch of `side` to the running totals of each problem,
    drawing the batches' normals from the generators `default_rng` makes
    into buffers of this side's own."""
    n = plan.n_samples
    pair, omega = np.empty(6 * _BATCH), np.empty((_CHUNK, 3))
    rows = _Rows(max(problem[3] for problem in problems))
    for b, start in enumerate(range(0, n, _BATCH)):
        rng = default_rng([plan.seed, side, b])
        for zab, om in _batch_normals(rng, min(_BATCH, n - start), pair, omega):
            _normalize(om, rows)
            for acc, problem in zip(side_sums, problems):
                _add_chunk(acc, problem, consts, side, (zab, om), rows)


def _weak_form_moments(problems, consts: PhysConsts, plan: McPlan) -> list:
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
    `_Rows` set (25 rows of _CHUNK floats with the omega buffer, 1.6 MiB): a
    chunk's tuples and test functions are written into those rows with
    `out=`, in the order of the (c, 3) expressions they replace, so every
    sum keeps its bits.  The drawn za/zb are read in place, as strided
    (3, c) views, and not copied into rows of their own.  The loss side
    runs on one worker thread and the gain side on the calling thread
    (`twothreads.on_two_threads`): the worker is always joined, and its
    exception re-raised here.  A default `verify` pass peaks at 15.3 MiB
    of traced memory.
    """
    # numpy.random is imported here, on the calling thread, before the worker
    # starts: a run that draws nothing never loads it
    from numpy.random import default_rng

    n = plan.n_samples
    # per side and problem: [sum of w*D, sum of (w*D)^2, sum of w]; weights are >= 0
    sums = [[[0.0, 0.0, 0.0] for _ in problems] for _ in (0, 1)]

    def add_side(side):
        _add_side(sums[side], problems, consts, plan, side, default_rng)

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
    # |v - u|^2/2 + excitation per velocity
    sums = _squared_speeds(v)
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
    """Five conservation columns and the mass- and energy-exchange columns
    (see `verify_checks`)."""
    ground, excited = (None, 0.0, (0.0,)), (None, consts.epsilon0, (1.0,))

    def change(v, out):
        _moment_change(v, out[:6], excited, ground)
        # |v3|^2/2 + eps0, which `_moment_change` leaves in v3's x row
        np.copyto(out[6], v[0, 0])

    return state1, state2, change, 7


def _exchange_result(estimates) -> tuple:
    mass, *momentum, energy = estimates[:5]
    return MomentReport(mass=mass, momentum=tuple(momentum), energy=energy), tuple(estimates[5:])


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


def exchange_reduced(state1: MaxwellianState, state2: MaxwellianState, consts: PhysConsts) -> tuple:
    """The (mass, energy) exchange rates of `verify_checks` from the
    calibrated reduced integrals (cross-module oracle)."""
    f = functionals(state1.T, state2.T, consts, mode="calibrated")
    eps0 = consts.epsilon0
    q = math.exp(-2.0 * eps0 / state1.T)
    loss, gain = state1.rho**2 * q, state1.rho * state2.rho
    mass = loss * f.P11 - gain * f.P21
    gain_energy = (f.A - eps0 * f.P11) - (state2.T - state1.T) * f.B_diff + eps0 * f.P21
    return mass, loss * f.A - gain * gain_energy


def _weak_form_checks(generic_pair, lte_state, plan, consts):
    """(MomentReport, (mass, energy) exchange Estimates, kernel dict) of
    `verify_checks` from one draw per side."""
    exchange, kernel = _weak_form_moments(
        [_exchange_problem(*generic_pair, consts), _kernel_problem(lte_state, consts)], consts, plan
    )
    return (*_exchange_result(exchange), _kernel_result(kernel))


def verify_checks(lte_pair, n_tuples, generic_pair, lte_state, plan, consts) -> tuple:
    """The checks of `radgas verify`: (balance, (MomentReport, (mass,
    energy) exchange Estimates, kernel dict)).

    `balance` is the largest detailed-balance residual of `lte_pair` over
    `n_tuples` sampled ground-state pairs (`_balance_sweep`, keyed by
    (plan.seed, 1)), or None when no pair is above threshold.

    The rest comes from one draw per side.  The conservation report and the
    exchange estimates are those of `generic_pair`.  Five conservation
    columns: test functions (1, 1) for molecule number, (v, v) for momentum
    and (|v|^2/2, |v|^2/2 + eps0) for total energy.  All three vanish per
    sampled tuple by the collision kinematics, so their estimates sit at the
    rounding floor unless the kinematics are broken.  The sixth column is
    the excited-molecule production rate, test functions (0, 1); its reduced
    closed form is rho1^2 q P(T1) - rho1 rho2 P(T2, T1), q = e^(-2 eps0/T1).
    The seventh is the excited molecules' energy gain, test functions
    (0, |v|^2/2 + eps0), with the reduced closed form rho1^2 q A(T1) -
    rho1 rho2 [(A - eps0 P11) - (T2 - T1) B_diff + eps0 P21]
    (`exchange_reduced`).  The
    kernel check projects K[F_eq] of the LTE pair on `lte_state` on the
    excited-species moments 1, v - u and |v - u|^2/2; at LTE every
    projection is consistent with zero.

    Every problem keys its batches by (seed, side, batch), so the results
    equal those of each problem estimated alone, bit for bit.  One
    two-thread pass serves all: the calling thread runs the gain side while
    the worker runs the loss side.  The detailed-balance sweep runs after
    that pass, on the calling thread, once both sides' buffers are freed.
    """
    checks = _weak_form_checks(generic_pair, lte_state, plan, consts)
    return _balance_sweep(lte_pair, n_tuples, plan.seed, consts), checks


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
