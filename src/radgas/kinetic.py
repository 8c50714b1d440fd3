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
sample count.  Only test functions whose change varies across tuples take a
row: the one whose change is 1 on every tuple (an excited molecule made) is
estimated from the weight sums, and molecule number, whose change is 0.0
exactly, is not estimated.

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
from .errors import SingularDenominator
from .physics import MaxwellianState, energy_density, entropy_lambda
from .twothreads import on_two_threads

__all__ = [
    "McPlan",
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


class _Rows:
    """One thread's reused (rows, _CHUNK) buffers, one row per coordinate or
    test function, so each step of a chunk is one numpy call over contiguous
    rows: two threads queue for the GIL between numpy calls, so the number
    of calls costs as much CPU as their length.

    `v` holds the chunk's (v3, v4, v1, v2), each as (3, c) coordinate rows;
    `kw` holds k (then the squared weight), the weight and |v1 - v2|^2.  `samples` is the scratch of
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


def _side_prefactors(state1, state2, consts) -> tuple:
    """The constant factors of the loss-side and gain-side weights of
    `_tuple_chunk`."""
    m1 = state1.rho * consts.maxwellian_mass
    pref = 2.0 * math.pi * consts.C0_kernel
    return m1 * m1 * pref, state2.rho * consts.maxwellian_mass * m1 * pref


def _tuple_chunk(state1, state2, consts, side, normals, rows, exponent=0):
    """(weight, v) of one chunk, v the (4, 3, c) rows of (v3, v4, v1, v2),
    written into the buffers of `rows` from the chunk's standard normals:
    (za, zb) as one (2, c, 3) array and unit omega (c, 3).  Side 0 forms the
    loss product (v1, v2 ground; open above threshold), side 1 the gain
    product (v3 excited, v4 ground; always open).  The weights are scaled by
    2^-exponent, which is exact.  Each step is the old (c, 3) expression on
    the rows."""
    zab, omega = normals
    c = len(omega)
    v = rows.v[:, :, :c]
    # the drawn pair (a, b) is (v1, v2) on side 0 and (v3, v4) on side 1;
    # the centre of mass plus and minus k omega gives the other two
    ab, centre, minus = (v[2:], v[0], v[1]) if side == 0 else (v[:2], v[2], v[3])
    a, b = ab
    k, weight, rel2 = rows.kw[:, :c]
    kw, scratch = rows.kw[:2, :c], rows.samples[:3, :c]
    prefactor = math.ldexp(_side_prefactors(state1, state2, consts)[side], -exponent)
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
        weight *= prefactor
        # below threshold the channel is closed
        closed = np.greater(rel2, 4.0 * eps0, out=rows.open[:c])
        np.logical_not(closed, out=closed)
        np.putmask(weight, closed, 0.0)
    else:
        kw += [[eps0], [4.0 * eps0]]
        np.sqrt(kw, out=kw)
        weight *= prefactor
    np.multiply(k, omega.T, out=scratch)
    np.subtract(centre, scratch, out=minus)
    centre += scratch
    return weight, v


def _balance_residual(state1, state2, consts, v):
    """(F1(v1) F1(v2) - F2(v3) F1(v4)) / (F1(v1) F1(v2)) of the (4, 3, c)
    rows `v` of (v3, v4, v1, v2), which it overwrites, as a (c,) view of v.

    F is the plain Maxwellian c0 rho T^(-3/2) exp(-|v - u|^2 / T) of a
    state, with c0 scaled by a power of two into [0.5, 1): c0 cancels from
    the residual and the scaling is exact, so every residual keeps its bits
    and no product of two F's underflows at a tiny c0.  The residual
    vanishes pointwise exactly when the densities sit in the Boltzmann ratio
    with a common velocity and temperature."""
    c0 = math.frexp(consts.c0)[0]
    states = (state2, state1, state1, state1)
    v -= np.array([s.u for s in states])[:, :, None]
    f = _squared_speeds(v)
    np.negative(f, out=f)
    f /= np.array([[s.T] for s in states])
    np.exp(f, out=f)
    f *= np.array([[c0 * s.rho * s.T**-1.5] for s in states])
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
    """Adds one chunk's row sums of w*D and (w*D)^2 and its sums of w and
    w*w to the problem's running totals `acc`, the weights w scaled by 2^-e
    for the problem's (state1, state2, change, n_cols, e)."""
    state1, state2, change, n_cols, exponent = problem
    weight, v = _tuple_chunk(state1, state2, consts, side, normals, rows, exponent)
    c = len(weight)
    # the D = 1 column: w and w*w are its w*D and (w*D)^2 bit for bit, and
    # a row sum is the same pairwise sum of the same contiguous values
    acc[2] += float(weight.sum())
    acc[3] += float(np.multiply(weight, weight, out=rows.kw[0, :c]).sum())
    samples = rows.samples[:n_cols, :c]
    change(v, samples)
    samples *= weight
    # a row sum reads that row alone, so a problem's estimates do not
    # depend on which other rows ride along
    acc[0] = acc[0] + samples.sum(axis=1)
    samples *= samples
    acc[1] = acc[1] + samples.sum(axis=1)


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
    one list of n_cols + 1 Estimates per problem (state1, state2, change,
    n_cols): first the test functions (0, 1), whose change D = 1 on every
    tuple, from the weight sums, then one per column of `change`.

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
    `_Rows` set (23 rows of _CHUNK floats with the omega buffer, 1.4 MiB): a
    chunk's tuples and test functions are written into those rows with
    `out=`, in the order of the (c, 3) expressions they replace, so every
    sum keeps its bits.  The drawn za/zb are read in place, as strided
    (3, c) views, and not copied into rows of their own.  The loss side
    runs on one worker thread and the gain side on the calling thread
    (`twothreads.on_two_threads`): the worker is always joined, and its
    exception re-raised here.  A default `verify` pass peaks at 15.1 MiB
    of traced memory.
    """
    # numpy.random is imported here, on the calling thread, before the worker
    # starts: a run that draws nothing never loads it
    from numpy.random import default_rng

    n = plan.n_samples
    # a problem's weights on both sides are scaled by 2^-e, e the binary
    # exponent of its larger side prefactor, and its estimates by 2^e: exact,
    # and no square of a weight or of a mean overflows at a large c0 or rho
    exponents = [math.frexp(max(_side_prefactors(s1, s2, consts)))[1] for s1, s2, _, _ in problems]
    scaled = [(*problem, e) for problem, e in zip(problems, exponents)]
    # per side and problem: [sum of w*D, sum of (w*D)^2, sum of w, sum of w*w];
    # weights are >= 0
    sums = [[[0.0, 0.0, 0.0, 0.0] for _ in problems] for _ in (0, 1)]

    def add_side(side):
        _add_side(sums[side], scaled, consts, plan, side, default_rng)

    on_two_threads(add_side, (1, 0))  # the gain side here, the loss side on the worker

    def side_estimate(total, total_sq, weight_sum, weight_sq):
        # the D = 1 column first
        total, total_sq = np.append(weight_sum, total), np.append(weight_sq, total_sq)
        mean = total / n
        se = np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)
        # rounding floor: the weak-form weights carry ~1e-16 relative noise,
        # so a per-sample-exact cancellation still reports a positive error
        return mean, np.maximum(se, 1e-16 * (weight_sum / n) / math.sqrt(n))

    out = []
    for loss, gain, e in zip(*sums, exponents):
        (loss_mean, loss_se), (gain_mean, gain_se) = side_estimate(*loss), side_estimate(*gain)
        se = np.sqrt(loss_se**2 + gain_se**2)
        out.append([Estimate(float(m), float(s)) for m, s in zip(np.ldexp(loss_mean - gain_mean, e), np.ldexp(se, e))])
    return out


def _moment_change(v, out, excited, ground=None):
    """Writes D = phi2(v3) + phi1(v4) - phi1(v1) - phi1(v2), in that order,
    into the four rows of `out`, for the moments phi = (v - u, |v - u|^2/2 +
    excitation) of each species.

    `v` holds the (4, 3, c) rows of (v3, v4, v1, v2) and is overwritten.
    `excited` and `ground` are (u, excitation) with u a 3-vector or None
    for no shift; `ground` None stands for all-zero ground-state test
    functions.  Each step runs over all four velocities at once, in the old
    per-column expression order, so D keeps its bits.
    """
    species = [excited] if ground is None else [excited, ground, ground, ground]
    v = v[: len(species)]
    if any(u is not None for u, _ in species):
        # a zero shift is exact: x - 0.0 == x for every float
        v -= np.array([np.zeros(3) if u is None else u for u, _ in species])[:, :, None]
    momentum, energy = out[:3], out[3]
    if ground is None:
        np.copyto(momentum, v[0])
    else:
        np.add(v[0], v[1], out=momentum)
        momentum -= v[2]
        momentum -= v[3]
    # |v - u|^2/2 + excitation per velocity
    sums = _squared_speeds(v)
    sums *= 0.5
    sums += np.array([e for _, e in species])[:, None]
    if ground is None:
        np.copyto(energy, sums[0])
    else:
        np.add(sums[0], sums[1], out=energy)
        energy -= sums[2]
        energy -= sums[3]


def _exchange_problem(state1, state2, consts):
    """The momentum and energy conservation columns and the energy-exchange
    column (see `verify_checks`)."""
    ground, excited = (None, 0.0), (None, consts.epsilon0)

    def change(v, out):
        _moment_change(v, out[:4], excited, ground)
        # |v3|^2/2 + eps0, which `_moment_change` leaves in v3's x row
        np.copyto(out[4], v[0, 0])

    return state1, state2, change, 5


def _kernel_problem(state, consts):
    """The LTE pair on `state`, projected on the excited-species moments."""
    q = math.exp(-2.0 * consts.epsilon0 / state.T)
    state2 = MaxwellianState(state.rho * q, state.u, state.T)
    return state, state2, lambda v, out: _moment_change(v, out, (state.u, 0.0)), 4


def exchange_reduced(state1: MaxwellianState, state2: MaxwellianState, consts: PhysConsts) -> tuple:
    """The (mass, energy) exchange rates of `verify_checks` from the
    calibrated reduced integrals (cross-module oracle).

    The calibrated integrals hold the kernel constant C0_kernel = 2; the
    rates, like the Monte Carlo weights, are linear in it, so they are
    scaled by C0_kernel / 2 (by exactly 1.0 at the default).  Raises
    SingularDenominator when a rate is not finite."""
    f = functionals(state1.T, state2.T, consts, mode="calibrated")
    eps0 = consts.epsilon0
    q = math.exp(-2.0 * eps0 / state1.T)
    loss, gain = state1.rho**2 * q, state1.rho * state2.rho
    mass = loss * f.P11 - gain * f.P21
    gain_energy = (f.A - eps0 * f.P11) - (state2.T - state1.T) * f.B_diff + eps0 * f.P21
    kernel = consts.C0_kernel / 2.0
    rates = mass * kernel, (loss * f.A - gain * gain_energy) * kernel
    if not all(map(math.isfinite, rates)):
        raise SingularDenominator(f"non-finite reduced exchange rates {rates} at T1 {state1.T}, T2 {state2.T}")
    return rates


def _weak_form_checks(generic_pair, lte_state, plan, consts):
    """The conservation, (mass, energy) exchange and kernel-of-L Estimates
    of `verify_checks`, three dicts by name, from one draw per side."""
    (mass, *moments, energy), kernel = _weak_form_moments(
        [_exchange_problem(*generic_pair, consts), _kernel_problem(lte_state, consts)], consts, plan
    )
    names = ["momentum_x", "momentum_y", "momentum_z", "energy"]
    return dict(zip(names, moments)), {"mass": mass, "energy": energy}, dict(zip(["number", *names], kernel))


def verify_checks(lte_pair, n_tuples, generic_pair, lte_state, plan, consts) -> tuple:
    """The checks of `radgas verify`: (balance, (conservation, exchange,
    kernel)), the last three dicts of name -> Estimate.

    `balance` is the largest detailed-balance residual of `lte_pair` over
    `n_tuples` sampled ground-state pairs (`_balance_sweep`, keyed by
    (plan.seed, 1)), or None when no pair is above threshold.

    The rest comes from one draw per side.  The conservation and exchange
    estimates are those of `generic_pair`.  Conservation: test functions
    (v, v) for momentum and (|v|^2/2, |v|^2/2 + eps0) for total energy.
    Both vanish per sampled tuple by the collision kinematics, so their
    estimates sit at the rounding floor unless the kinematics are broken
    (molecule number, test functions (1, 1), changes by ((1 + 1) - 1) - 1 =
    0.0 exactly, so it is not estimated).  The mass exchange is the
    excited-molecule production rate, test functions (0, 1), taken from the
    weight sums; its reduced closed form is rho1^2 q P(T1) - rho1 rho2
    P(T2, T1), q = e^(-2 eps0/T1).  The energy exchange is the excited
    molecules' energy gain, test functions (0, |v|^2/2 + eps0), with the
    reduced closed form rho1^2 q A(T1) - rho1 rho2 [(A - eps0 P11) - (T2 -
    T1) B_diff + eps0 P21] (`exchange_reduced`).  The kernel check projects
    K[F_eq] of the LTE pair on `lte_state` on the excited-species moments 1
    (from the weight sums), v - u and |v - u|^2/2; at LTE every projection
    is consistent with zero.

    Every problem keys its batches by (seed, side, batch), so the results
    equal those of each problem estimated alone, bit for bit.  One
    two-thread pass serves all: the calling thread runs the gain side while
    the worker runs the loss side.  The detailed-balance sweep runs after
    that pass, on the calling thread, once both sides' buffers are freed.
    """
    checks = _weak_form_checks(generic_pair, lte_state, plan, consts)
    return _balance_sweep(lte_pair, n_tuples, plan.seed, consts), checks


def entropy_identity_check(T_list, consts: PhysConsts) -> dict:
    """Complex-step check of T * lambda'(T) = 2 * e'(T) at each temperature.

    Each derivative is f'(T) = Im f(T + ih)/h (Squire and Trapp 1998): no
    difference of nearby values is taken, so it holds to rounding.  The step
    h = T * 2^-60 scales with T: its O((h/T)^2) error is far below rounding
    from T = 2^-962 (about 2.1e-290) up, where a fixed h = 1e-30 fails at
    both ends.  Below 2^-962, h is subnormal and loses bits (or is 0), so
    such a T raises ValueError, as does T <= 0.
    """
    rows = []
    for T in T_list:
        if not T >= 2.0**-962:
            raise ValueError(f"temperature {T!r} is below 2^-962, where the complex step T*2^-60 is subnormal")
        h = math.ldexp(T, -60)
        lam_p = float(entropy_lambda(complex(T, h), consts).imag) / h
        e_p = float(energy_density(complex(T, h), consts).imag) / h
        rel = abs(T * lam_p - 2.0 * e_p) / abs(2.0 * e_p)
        rows.append({"T": float(T), "T_lambda_prime": T * lam_p, "two_e_prime": 2 * e_p, "rel_error": rel})
    return {"rows": rows, "max_rel_error": max(r["rel_error"] for r in rows)}
