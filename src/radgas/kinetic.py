"""Lattice-rule verification of the kinetic-level identities.

The estimators integrate the symmetrized weak form of the nonelastic
collision operators over collision tuples.  The loss product is formed in
pre-collision coordinates (both molecules from the ground-state Maxwellian,
channel open only above threshold) and the gain product in post-collision
coordinates (excited x ground, always open); each tuple is completed
through the exact kinematics, so conservation of molecule number, momentum,
and total energy holds per tuple up to floating-point rounding.  A nonzero
residual therefore points at a kinematics or kernel bug, not at sampling
noise.

The tuples sit on a randomly shifted rank-1 lattice (Korobov 1959; Cranley
and Patterson 1976; Sloan and Joe, *Lattice Methods for Multiple
Integration*, 1994; L'Ecuyer and Lemieux 2000): LATTICE_POINTS points in 8
dimensions, mapped to the two molecules' standard normals by three
Box-Muller pairs and to a uniform scattering direction by (cos theta, phi),
with the Maxwellians as proposals (unit weights).  Each shifted copy gives
an unbiased estimate.  Each side takes R >= 16 shifts, shift r keyed by
(seed, side, r), so reports are reproducible bit for bit for a fixed plan
and every estimator sees the same points.  Loss shift r is paired with gain
shift r; the R differences are independent, so their mean and its standard
error carry R - 1 degrees of freedom, and every gate takes the Student-t
quantile for 15 of them (GATE_QUANTILE), at the 0.27% rate of 3 sigma.

One pass over the points per side serves several estimators at once
(`verify_checks`: conservation, mass and energy exchange, and the kernel of
L): each forms its collision tuples from its own Maxwellians, in row chunks
of the lattice, and feeds its whole vector of test functions, so memory
stays bounded by the chunk whatever the number of shifts.  Only test
functions whose change varies across tuples take a row: the one whose
change is 1 on every tuple (an excited molecule made) is estimated from the
weight sums, and molecule number, whose change is 0.0 exactly, is not
estimated.

The loss and gain sides share no running total, so they run at once: the
loss side on one worker thread, the gain side on the calling thread.  Each
side adds its shifts to totals of their own, so the estimates do not depend
on the threads' timing.  A chunk's points, tuples and test functions live
in contiguous coordinate rows and (k, c) test-function rows that each
thread allocates once; every tuple step writes them with `out=` in the order
of the (c, 3) expressions it replaced.

The detailed-balance sweep of `radgas verify` (`_balance_sweep`) runs after
both sides, on the loss side's shifted lattices: every open loss-side tuple
of `_tuple_chunk` gives F1(v1) F1(v2) - F2(v3) F1(v4), so the identity is
checked pointwise on the points the weak form integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

_CHUNK = 1 << 13
#: The weak-form pass integrates over a rank-1 Korobov lattice of
#: LATTICE_POINTS points in 8 dimensions, generating vector (1, a, ..., a^7)
#: mod LATTICE_POINTS with a = _KOROBOV_A, randomised by at least
#: _MIN_SHIFTS independent shifts per side.
LATTICE_POINTS = 8191
_KOROBOV_A = 7475
_MIN_SHIFTS = 16
#: The Student-t quantile for 15 degrees of freedom at two-sided 0.27%, the
#: rate of 3 sigma for a normal: an estimate from R >= 16 paired shifts has
#: R - 1 >= 15 degrees of freedom, so the gate is exact at R = 16 and
#: conservative above.
GATE_QUANTILE = 3.5863863970086136
#: A consistent-with-zero gate adds _FLOOR, which absorbs the rounding of a
#: per-tuple-exact cancellation.
_FLOOR = 1e-10


@dataclass(frozen=True)
class McPlan:
    """At least `n_samples` lattice points per side, as whole shifts of the
    lattice (`n_shifts`, at least 16), and the seed that keys the shifts;
    proposals are the species Maxwellians."""

    n_samples: int = _MIN_SHIFTS * LATTICE_POINTS
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 10**4:
            raise ValueError(f"n_samples must be >= 1e4, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def n_shifts(self) -> int:
        return max(_MIN_SHIFTS, -(-self.n_samples // LATTICE_POINTS))


@dataclass
class Estimate:
    """A mean over paired random shifts and its standard error."""

    value: float
    std_error: float

    def consistent_with(self, reference: float, floor: float = 0.0) -> bool:
        """|value - reference| within GATE_QUANTILE standard errors plus `floor`."""
        return abs(self.value - reference) <= GATE_QUANTILE * self.std_error + floor

    def consistent_with_zero(self) -> bool:
        return self.consistent_with(0.0, _FLOOR)


class _Rows:
    """One thread's reused (rows, _CHUNK) buffers, one row per coordinate or
    test function, so each step of a chunk is one numpy call over contiguous
    rows: two threads queue for the GIL between numpy calls, so the number
    of calls costs as much CPU as their length.

    `z` holds a lattice chunk's za, zb and unit omega, 9 coordinate rows
    (`_lattice_chunk`); `v` holds the chunk's (v3, v4, v1, v2), each as (3, c)
    coordinate rows; `kw` holds k, the weight and |v1 - v2|^2.  `samples` is
    the scratch of the point and tuple steps until it takes the test
    functions.
    """

    def __init__(self, n_cols):
        self.z = np.empty((9, _CHUNK))
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
    # a = u + sqrt(T / 2) za of the first drawn state, b the same from zb of
    # state1, and |a - b|^2
    first = state1 if side == 0 else state2
    np.multiply(zab.transpose(0, 2, 1), [[[math.sqrt(first.T / 2.0)]], [[math.sqrt(state1.T / 2.0)]]], out=ab)
    ab += np.stack([first.u, state1.u])[:, :, None]
    np.subtract(a, b, out=scratch)
    _squared_speeds(scratch, rel2)
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


@lru_cache(maxsize=1)
def _lattice_table():
    """The (8, LATTICE_POINTS) unshifted lattice: row j holds (k z_j mod n) / n
    for k = 0 .. n - 1, with n = LATTICE_POINTS and z_j = a^j mod n, the
    products taken in exact int64 arithmetic.  Built once and read-only: the
    weak-form pass and the detailed-balance sweep share it."""
    n = LATTICE_POINTS
    z = np.array([pow(_KOROBOV_A, j, n) for j in range(8)], dtype=np.int64)
    table = (z[:, None] * np.arange(n, dtype=np.int64) % n) / n
    table.flags.writeable = False
    return table


def _lattice_chunk(table, delta, rows):
    """The normals ((za, zb), omega) of one chunk of the lattice shifted by
    `delta`, in the (2, c, 3) and (c, 3) layout `_tuple_chunk` reads, as views
    of the 9 rows `rows.z`; `table` holds the chunk's (8, c) columns of
    `_lattice_table`.

    Coordinate j is u_j = frac(table_j + delta_j), in [0, 1).  Three
    Box-Muller pairs on (u0, u1), (u2, u3) and (u4, u5) give the six normals
    of za and zb, r cos(2 pi u_odd) and r sin(2 pi u_odd) with r = sqrt(-2
    log(1 - u_even)): 1 - u lies in (0, 1], so r is finite, and 0 at u = 0.
    The scattering direction has cos(theta) = 2 u6 - 1, sin(theta) = 2
    sqrt(u6 (1 - u6)) and phi = 2 pi u7, uniform on the sphere."""
    c = table.shape[1]
    z = rows.z[:, :c]
    u = z[:8]
    np.add(table, delta[:, None], out=u)
    # u - 1 where u >= 1, exact in [1, 2): subtracting the comparison's 0 or 1
    # gives the bits of a masked subtraction, which costs several times more
    np.subtract(u, u >= 1.0, out=u)
    # radii into rows 0, 2 and 4, angles into rows 1, 3 and 5, then the
    # normals r cos and r sin in their place
    radius, angle, cosine = u[0:6:2], u[1:6:2], rows.samples[:3, :c]
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    np.cos(angle, out=cosine)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cosine
    # the direction into rows 6 to 8
    u6, phi, cos_theta, sin_theta = z[6], z[7], z[8], rows.kw[0, :c]
    np.multiply(u6, 2.0, out=cos_theta)
    cos_theta -= 1.0
    np.subtract(1.0, u6, out=sin_theta)
    sin_theta *= u6
    np.sqrt(sin_theta, out=sin_theta)
    sin_theta *= 2.0
    phi *= 2.0 * math.pi
    np.cos(phi, out=u6)
    u6 *= sin_theta
    np.sin(phi, out=phi)
    phi *= sin_theta
    return z[:6].reshape(2, 3, c).transpose(0, 2, 1), z[6:].T


def _add_chunk(acc, problem, consts, side, normals, rows):
    """Adds one chunk's sum of w and its row sums of w*D to the totals `acc`
    of one shift, the weights w scaled by 2^-e for the problem's (state1,
    state2, change, n_cols, e)."""
    state1, state2, change, n_cols, exponent = problem
    weight, v = _tuple_chunk(state1, state2, consts, side, normals, rows, exponent)
    c = len(weight)
    # the D = 1 column: w is its w*D bit for bit, and a row sum is the same
    # pairwise sum of the same contiguous values
    acc[0] += float(weight.sum())
    samples = rows.samples[:n_cols, :c]
    change(v, samples)
    samples *= weight
    # a row sum reads that row alone, so a problem's estimates do not
    # depend on which other rows ride along
    acc[1] = acc[1] + samples.sum(axis=1)


def _shifted_chunks(plan, side, table, rows, default_rng):
    """Yields (shift, normals) for each chunk of each of `side`'s
    `plan.n_shifts` shifted lattices, shift by shift, the shift keyed by
    (seed, side, shift) in the generators `default_rng` makes; the normals
    are those of `_lattice_chunk`, in the rows of `rows`."""
    for shift in range(plan.n_shifts):
        delta = default_rng([plan.seed, side, shift]).random(8)
        for lo in range(0, LATTICE_POINTS, _CHUNK):
            yield shift, _lattice_chunk(table[:, lo : lo + _CHUNK], delta, rows)


def _add_side(side_sums, problems, consts, plan, side, table, default_rng):
    """Adds the points of each of `side`'s shifted lattices to that shift's
    totals of each problem (`_shifted_chunks`)."""
    rows = _Rows(max(problem[3] for problem in problems))
    for shift, normals in _shifted_chunks(plan, side, table, rows, default_rng):
        for acc, problem in zip(side_sums[shift], problems):
            _add_chunk(acc, problem, consts, side, normals, rows)


def _balance_sweep(lte_pair, plan, consts):
    """Largest |`_balance_residual`| of `lte_pair` over the open loss-side
    tuples of the weak-form pass's lattice points, or None when no tuple is
    above threshold (nothing was checked).

    The sweep walks the loss side's own shifts (`_shifted_chunks`, keyed by
    (seed, 0, r)), so it checks the tuples that the weak form integrates,
    and forms them by `_tuple_chunk` on side 0.  A tuple is open where its
    weight is > 0: the weights are scaled by 2^-e, e the binary exponent of
    the loss-side prefactor, so an open tuple's weight does not underflow.
    The residual is formed on every tuple of a chunk, in place, and its max
    taken over the open ones.
    """
    from numpy.random import default_rng

    s1, s2 = lte_pair
    exponent = math.frexp(_side_prefactors(s1, s2, consts)[0])[1]
    rows = _Rows(3)
    # a max is exact in any grouping
    chunk_max = []
    for _, normals in _shifted_chunks(plan, 0, _lattice_table(), rows, default_rng):
        weight, v = _tuple_chunk(s1, s2, consts, 0, normals, rows, exponent)
        is_open = weight > 0
        if is_open.any():
            chunk_max.append(np.max(np.abs(_balance_residual(s1, s2, consts, v)[is_open])))
    return float(np.max(chunk_max)) if chunk_max else None


def _paired_estimates(loss, gain, exponent) -> list:
    """One Estimate per row of the (k, R) per-shift sums `loss` and `gain`,
    paired by shift: d_r = (L_r - G_r) / n, the mean of d and its standard
    error sd(d) / sqrt(R), with R - 1 degrees of freedom, both scaled by
    2^exponent.  Row 0 holds the weight sums; each row is summed as one
    contiguous row, so a row's estimate does not depend on the others."""
    n_shifts, points = loss.shape[1], loss.shape[1] * LATTICE_POINTS
    d = (loss - gain) / LATTICE_POINTS
    mean = d.sum(axis=1) / n_shifts
    d -= mean[:, None]
    d *= d
    se = np.sqrt(d.sum(axis=1) / (n_shifts - 1) / n_shifts)
    # rounding floor: the weak-form weights carry ~1e-16 relative noise, so a
    # per-tuple-exact cancellation still reports a positive error
    mean_weight = (loss[0].sum() + gain[0].sum()) / points
    se = np.maximum(se, 1e-16 * mean_weight / math.sqrt(points))
    return [Estimate(float(m), float(s)) for m, s in zip(np.ldexp(mean, exponent), np.ldexp(se, exponent))]


def _weak_form_moments(problems, consts: PhysConsts, plan: McPlan) -> list:
    """Loss-side minus gain-side lattice estimates of <phi, K_non.el[F]>, one
    list of n_cols + 1 Estimates per problem (state1, state2, change,
    n_cols): first the test functions (0, 1), whose change D = 1 on every
    tuple, from the weight sums, then one per column of `change`.

    ``change(v, out)`` writes each tuple's change of the n_cols test
    functions, D = phi2(v3) + phi1(v4) - phi1(v1) - phi1(v2) with phi1
    (ground) and phi2 (excited), into the rows of the (n_cols, c) array
    `out`; `v` holds the (4, 3, c) coordinate rows of (v3, v4, v1, v2), which
    it may overwrite (`_moment_change`).

    Each side integrates over `plan.n_shifts` copies of the rank-1 lattice
    (`_lattice_table`), shift r moved by a uniform 8-vector keyed by (seed,
    side, r).  Each chunk of a shifted lattice is mapped to normals once
    (`_lattice_chunk`) and serves every problem: each forms the chunk's
    collision tuples from its own Maxwellians and adds its sums of w and of
    w*D to that shift's totals.  Shift r of the loss side is paired with
    shift r of the gain side (`_paired_estimates`); the shifts are
    independent, so the R differences are too, and each estimate has R - 1
    degrees of freedom.

    Each thread owns one `_Rows` set (29 rows of _CHUNK floats, 1.8 MiB): a
    chunk's points, tuples and test functions are written into those rows
    with `out=`, every tuple step in the order of the (c, 3) expressions it
    replaced.  The loss side runs on one worker thread and the gain side on
    the calling thread (`twothreads.on_two_threads`), each summing its
    shifts into totals of their own, so the estimates do not depend on the
    threads' timing: the worker is always joined, and its exception
    re-raised here.  A default `verify` pass peaks at 4.3 MiB of traced
    memory, the 0.5 MiB lattice table included.
    """
    # numpy.random is imported here, on the calling thread, before the worker
    # starts: a run that draws nothing never loads it
    from numpy.random import default_rng

    # a problem's weights on both sides are scaled by 2^-e, e the binary
    # exponent of its larger side prefactor, and its estimates by 2^e: exact,
    # and no square of a difference overflows at a large c0 or rho
    exponents = [math.frexp(max(_side_prefactors(s1, s2, consts)))[1] for s1, s2, _, _ in problems]
    scaled = [(*problem, e) for problem, e in zip(problems, exponents)]
    table = _lattice_table()
    # per side, shift and problem: [sum of w, row sums of w*D]; weights are >= 0
    sums = [[[[0.0, 0.0] for _ in problems] for _ in range(plan.n_shifts)] for _ in (0, 1)]

    def add_side(side):
        _add_side(sums[side], scaled, consts, plan, side, table, default_rng)

    on_two_threads(add_side, (1, 0))  # the gain side here, the loss side on the worker

    def per_shift(side, p):
        # (n_cols + 1, R): the weight sums, then one row per column
        return np.array([np.append(*shift[p]) for shift in sums[side]]).T.copy()

    return [_paired_estimates(per_shift(0, p), per_shift(1, p), e) for p, e in enumerate(exponents)]


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
    rates, like the lattice weights, are linear in it, so they are
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
    of `verify_checks`, three dicts by name, from one pass per side."""
    (mass, *moments, energy), kernel = _weak_form_moments(
        [_exchange_problem(*generic_pair, consts), _kernel_problem(lte_state, consts)], consts, plan
    )
    names = ["momentum_x", "momentum_y", "momentum_z", "energy"]
    return dict(zip(names, moments)), {"mass": mass, "energy": energy}, dict(zip(["number", *names], kernel))


def verify_checks(lte_pair, generic_pair, lte_state, plan, consts) -> tuple:
    """The checks of `radgas verify`: (balance, (conservation, exchange,
    kernel)), the last three dicts of name -> Estimate.

    `balance` is the largest detailed-balance residual of `lte_pair` over
    the open loss-side tuples of the plan's lattice shifts
    (`_balance_sweep`), or None when no tuple is above threshold.

    The rest comes from one lattice pass per side.  The conservation and
    exchange estimates are those of `generic_pair`.  Conservation: test
    functions (v, v) for momentum and (|v|^2/2, |v|^2/2 + eps0) for total
    energy.  Both vanish per tuple by the collision kinematics, so their
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

    Every problem keys its shifts by (seed, side, shift), so the results
    equal those of each problem estimated alone, bit for bit.  One
    two-thread pass serves all: the calling thread runs the gain side while
    the worker runs the loss side.  The detailed-balance sweep runs after
    that pass, on the calling thread, once both sides' buffers are freed.
    """
    checks = _weak_form_checks(generic_pair, lte_state, plan, consts)
    return _balance_sweep(lte_pair, plan, consts), checks


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
