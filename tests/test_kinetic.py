"""Kinetic-identity verification: detailed balance, weak-form conservation,
kernel of the linearized operator, and the entropy identity."""

import importlib
import inspect
import math
import pkgutil
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import radgas
import radgas.kinetic
from radgas import PhysConsts, MaxwellianState, energy_density, entropy_lambda
from radgas.cli import main
from radgas.kinetic import (
    _CHUNK,
    GATE_QUANTILE,
    LATTICE_POINTS,
    Estimate,
    McPlan,
    _Rows,
    _balance_sweep,
    _exchange_problem,
    _lattice_chunk,
    _lattice_table,
    _kernel_problem,
    _moment_change,
    _tuple_chunk,
    _weak_form_checks,
    verify_checks,
    _weak_form_moments,
    entropy_identity_check,
    exchange_reduced,
)
from oracles import (
    CollisionTuple,
    detailed_balance_residual,
    energy_residual,
    lattice_weak_form,
    loss_tuples,
    momentum_residual,
    w_minus,
    w_plus,
)

CONSTS = PhysConsts(epsilon0=1.0)
PLAN = McPlan(n_samples=200_000, seed=42)


def random_nonelastic_tuples(rng, n, u, T, consts):
    v1 = u + rng.normal(size=(n, 3)) * math.sqrt(T / 2)
    v2 = u + rng.normal(size=(n, 3)) * math.sqrt(T / 2)
    keep = np.sum((v1 - v2) ** 2, axis=1) > 4.0 * consts.epsilon0 + 1e-9
    v1, v2 = v1[keep], v2[keep]
    om = rng.normal(size=(len(v1), 3))
    om /= np.linalg.norm(om, axis=1, keepdims=True)
    return CollisionTuple.nonelastic(v1, v2, om, consts)


class TestDetailedBalance:
    def test_boltzmann_ratio_pair_cancels(self):
        rng = np.random.default_rng(3)
        T = 4.0
        u = np.array([0.3, 0.0, 0.0])
        tup = random_nonelastic_tuples(rng, 100_000, u, T, CONSTS)
        s1 = MaxwellianState(1.0, u, T)
        s2 = MaxwellianState(math.exp(-2.0 / T), u, T)
        res = detailed_balance_residual(s1, s2, tup, CONSTS)
        assert abs(np.max(np.abs(res))) < 1e-12

    def test_off_ratio_gives_minus_one(self):
        rng = np.random.default_rng(5)
        T = 4.0
        u = np.zeros(3)
        tup = random_nonelastic_tuples(rng, 1000, u, T, CONSTS)
        s1 = MaxwellianState(1.0, u, T)
        s2 = MaxwellianState(2.0 * math.exp(-2.0 / T), u, T)
        res = detailed_balance_residual(s1, s2, tup, CONSTS)
        np.testing.assert_allclose(res, -1.0, rtol=1e-10)

    def test_unequal_temperatures_break_balance(self):
        rng = np.random.default_rng(7)
        tup = random_nonelastic_tuples(rng, 1000, np.zeros(3), 4.0, CONSTS)
        s1 = MaxwellianState(1.0, np.zeros(3), 4.0)
        s2 = MaxwellianState(math.exp(-2.0 / 4.0), np.zeros(3), 6.0)
        res = np.asarray(detailed_balance_residual(s1, s2, tup, CONSTS))
        assert np.max(np.abs(res)) > 1e-3


def sweep_residuals(monkeypatch, pair, plan):
    """(residuals, max) of `_balance_sweep`: the residual of every tuple, in
    the order the sweep forms them, and the max it returns."""
    recorded = []
    residual = radgas.kinetic._balance_residual

    def recording(*args):
        out = residual(*args)
        recorded.append(out.copy())
        return out

    monkeypatch.setattr(radgas.kinetic, "_balance_residual", recording)
    largest = _balance_sweep(pair, plan, CONSTS)
    return np.concatenate(recorded) if recorded else np.empty(0), largest


def oracle_residuals(pair, plan):
    """(open, residuals): the oracle's open mask and residual of every
    loss-side tuple of the plan's shifts, keyed by (seed, 0, r), shift by
    shift."""
    shifts = [loss_tuples(*pair, CONSTS, plan.seed, r) for r in range(plan.n_shifts)]
    residuals = [np.asarray(detailed_balance_residual(*pair, tup, CONSTS)) for _, tup in shifts]
    return np.concatenate([is_open for is_open, _ in shifts]), np.concatenate(residuals)


def open_max(pair, plan):
    """The oracle's largest |residual| over the open tuples, and their count."""
    is_open, residuals = oracle_residuals(pair, plan)
    return float(np.max(np.abs(residuals[is_open]))), np.count_nonzero(is_open)


class TestDetailedBalanceCheck:
    U, T = np.array([0.3, 0.0, 0.0]), 5.0
    PAIR = (MaxwellianState(1.0, U, T), MaxwellianState(math.exp(-2.0 / T), U, T))

    def test_max_residual_of_the_seeded_tuples(self):
        # the loss side's own shifts, keyed by (seed, 0, r)
        plan = McPlan(seed=3)
        want, _ = open_max(self.PAIR, plan)
        assert _balance_sweep(self.PAIR, plan, CONSTS) == want
        assert want < 1e-12

    def test_no_tuple_above_threshold_gives_none(self):
        # at T 0.05 no lattice point reaches |v1 - v2|^2 > 4 eps0
        T = 0.05
        pair = (MaxwellianState(1.0, self.U, T), MaxwellianState(math.exp(-2.0 / T), self.U, T))
        assert not oracle_residuals(pair, McPlan(seed=1))[0].any()
        assert _balance_sweep(pair, McPlan(seed=1), CONSTS) is None

    @pytest.mark.parametrize("seed", [1, 5, 33])
    def test_chunked_max_equals_unchunked_formula(self, seed):
        # a pair off the Boltzmann ratio: O(1) residuals whose largest sits in
        # one of the 16 chunks, one per shift
        pair = (self.PAIR[0], MaxwellianState(self.PAIR[1].rho, self.U, 6.0))
        want, n_open = open_max(pair, McPlan(seed=seed))
        assert n_open > 10 * _CHUNK
        assert _balance_sweep(pair, McPlan(seed=seed), CONSTS) == want
        assert want > 1e-3

    # T 0.7: a chunk keeps few tuples; 150 001 samples: 19 shifts
    @pytest.mark.parametrize("T", [0.7, 5.0, 20.0])
    @pytest.mark.parametrize("n_samples", [10**4, 150_001])
    @pytest.mark.parametrize("T2_over_T", [1.0, 1.2], ids=["lte", "off"])
    def test_residuals_bit_identical_to_the_oracle(self, monkeypatch, T, n_samples, T2_over_T):
        # every residual of the (4, 3, c) row path, against the (m, 3) oracle:
        # at the Boltzmann ratio they are rounding noise, which any change of
        # expression order moves
        pair = (MaxwellianState(1.0, self.U, T), MaxwellianState(math.exp(-2.0 / T), self.U, T2_over_T * T))
        plan = McPlan(n_samples=n_samples, seed=7)
        got, largest = sweep_residuals(monkeypatch, pair, plan)
        is_open, want = oracle_residuals(pair, plan)
        assert is_open.any() and len(got) == len(want)
        assert got[is_open].tobytes() == want[is_open].tobytes()
        assert largest == open_max(pair, plan)[0]
        if T2_over_T == 1.0:
            assert largest < 1e-12


class TestConservation:
    def test_residuals_within_3_sigma_generic_pair(self):
        s1 = MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0)
        conservation, _, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        assert list(conservation) == ["momentum_x", "momentum_y", "momentum_z", "energy"]
        for est in conservation.values():
            assert est.consistent_with_zero()
            assert est.std_error > 0

    def test_seeded_determinism(self):
        s1 = MaxwellianState(1.0, np.zeros(3), 3.0)
        s2 = MaxwellianState(0.5, np.zeros(3), 3.0)
        r1, e1, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        r2, e2, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        assert r1["energy"].value == r2["energy"].value
        assert [r1[f"momentum_{ax}"].value for ax in "xyz"] == [r2[f"momentum_{ax}"].value for ax in "xyz"]
        assert [e.value for e in e1.values()] == [e.value for e in e2.values()]

    # the default verify pair, equal temperatures, and T2 above and below T1
    @pytest.mark.parametrize("T1, T2", [(4.0, 7.0), (5.0, 5.0), (10.0, 12.0), (2.0, 1.5)])
    def test_exchange_matches_reduced_formulas(self, T1, T2):
        s1 = MaxwellianState(1.3, np.zeros(3), T1)
        s2 = MaxwellianState(0.4, np.zeros(3), T2)
        _, exchange, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        for est, red in zip(exchange.values(), exchange_reduced(s1, s2, CONSTS)):
            assert abs(est.value - red) <= 3.0 * est.std_error

    def test_shared_pass_matches_separate_estimators(self):
        s1 = MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0)
        conservation, exchange, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        # the four conservation columns alone, and the mass-exchange estimate
        # of a problem with no column
        ground, excited = (None, 0.0), (None, CONSTS.epsilon0)
        ((_, *alone),) = _weak_form_moments(
            [(s1, s2, lambda v, out: _moment_change(v, out, excited, ground), 4)], CONSTS, PLAN
        )
        assert list(conservation.values()) == alone
        ((mass,),) = _weak_form_moments([(s1, s2, lambda v, out: None, 0)], CONSTS, PLAN)
        assert exchange["mass"] == mass

    def test_weight_sums_equal_a_column_of_ones(self):
        # test functions (0, 1): D = 1 for every tuple; the weight sums give
        # its estimate bit for bit, at a partial last batch and chunk too
        s1 = MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0)
        for plan in (PLAN, McPlan(n_samples=150_001, seed=3)):
            ((weights, ones),) = _weak_form_moments([(s1, s2, lambda v, out: out.fill(1.0), 1)], CONSTS, plan)
            assert (weights.value, weights.std_error) == (ones.value, ones.std_error)

    def test_u_shift_invariance_of_mass_exchange(self):
        s1 = MaxwellianState(1.3, (0.0, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.0, 0.0, 0.0), 7.0)
        U = np.array([0.7, -0.4, 1.1])
        s1b = MaxwellianState(1.3, U, 4.0)
        s2b = MaxwellianState(0.4, U, 7.0)
        a = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)[1]["mass"]
        b = _weak_form_checks((s1b, s2b), s1b, PLAN, CONSTS)[1]["mass"]
        # common random numbers: the shifted estimate matches almost exactly,
        # certainly within the 3-sigma criterion
        assert abs(a.value - b.value) <= 3.0 * math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 1e-9 * max(1.0, abs(a.value))


def change_of(cols1, cols2):
    """The per-tuple change D = phi2(v3) + phi1(v4) - phi1(v1) - phi1(v2) of
    test functions given one column at a time, on the (4, 3, c) rows of
    (v3, v4, v1, v2)."""

    def change(v, out):
        v3, v4, v1, v2 = v
        for row, c1, c2 in zip(out, cols1, cols2):
            row[...] = c2(v3)
            row += c1(v4)
            row -= c1(v1)
            row -= c1(v2)

    return change


class TestMomentChange:
    """`_moment_change` against the per-velocity test functions it replaced,
    (n, k) columns evaluated one velocity at a time."""

    @staticmethod
    def columns(v, u, excitation):
        dv = v if u is None else v - u
        energy = dv[:, 0] * dv[:, 0]
        energy += dv[:, 1] * dv[:, 1]
        energy += dv[:, 2] * dv[:, 2]
        energy *= 0.5
        energy += excitation
        return np.column_stack([dv, energy])

    @pytest.mark.parametrize(
        "excited, ground",
        [
            ((None, 1.0), (None, 0.0)),
            ((np.array([0.5, 0.0, -0.2]), 0.0), None),
            ((np.array([0.3, -1.1, 2.0]), 0.7), (np.array([-0.4, 0.2, 0.1]), 0.0)),
            ((None, 0.25), (np.array([1.0, 2.0, 3.0]), 1e-3)),
        ],
    )
    def test_bit_identical_to_per_velocity_columns(self, excited, ground):
        v = np.random.default_rng(4).normal(scale=2.0, size=(4, 3, 1000))
        want = self.columns(v[0].T, *excited)
        if ground is not None:
            for velocity, add in ((v[1], np.add), (v[2], np.subtract), (v[3], np.subtract)):
                add(want, self.columns(velocity.T, *ground), out=want)
        out = np.empty((want.shape[1], 1000))
        _moment_change(v.copy(), out, excited, ground)
        assert np.array_equal(out, want.T)


class TestVectorTestFunctions:
    def test_columns_match_one_column_calls(self):
        # non-conserved test functions, so no column cancels to rounding noise
        s1 = MaxwellianState(1.3, (0.2, -0.1, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.0, 0.3, 0.1), 7.0)
        # each column maps (3, c) velocity rows to c values
        cols1 = [lambda v: v[0] ** 2, lambda v: np.zeros(v.shape[1]), lambda v: v[2] ** 3]
        cols2 = [lambda v: np.ones(v.shape[1]), lambda v: np.sum(v * v, axis=0), lambda v: v[1]]
        problem = lambda c1, c2: (s1, s2, change_of(c1, c2), len(c1))  # noqa: E731
        ((_, *joint),) = _weak_form_moments([problem(cols1, cols2)], CONSTS, PLAN)
        assert len(joint) == 3
        for est, c1, c2 in zip(joint, cols1, cols2):
            ((_, one),) = _weak_form_moments([problem([c1], [c2])], CONSTS, PLAN)
            assert est.value == pytest.approx(one.value, rel=1e-12)
            assert est.std_error == pytest.approx(one.std_error, rel=1e-12)
            assert abs(one.value) > 3 * one.std_error


def squared_speed(v):
    """|v|^2 of the (n, 3) velocities `v`, summed as ((x^2 + y^2) + z^2)."""
    return (v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1]) + v[:, 2] * v[:, 2]


def conserved_columns(v, excitation=0.0, *extra):
    """Columns 1, v, |v|^2/2 + excitation and the `extra` constants, stacked."""
    cols = [np.ones(len(v)), v, squared_speed(v) * 0.5 + excitation]
    return np.column_stack(cols + [np.full(len(v), c) for c in extra])


class TestFusedPass:
    GENERIC = (
        MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0),
        MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0),
    )
    LTE = MaxwellianState(1.0, (0.5, 0.0, -0.2), 5.0)

    # 16 shifts, the default plan, and 25, the plan of n_samples = 200_000
    @pytest.mark.parametrize("n_samples", [16 * LATTICE_POINTS, 200_000])
    def test_matches_per_shift_oracle(self, n_samples):
        plan = McPlan(n_samples=n_samples, seed=42)
        conservation, exchange, kernel_of_L = _weak_form_checks(self.GENERIC, self.LTE, plan, CONSTS)
        eps0 = CONSTS.epsilon0
        zeros = lambda v: np.zeros(len(v))  # noqa: E731
        # test functions (0, 1), (v, v), (|v|^2/2, |v|^2/2 + eps0) and (0, |v|^2/2 + eps0)
        exchange_columns = lattice_weak_form(
            *self.GENERIC,
            CONSTS,
            42,
            plan.n_shifts,
            lambda v: np.column_stack([zeros(v), v, squared_speed(v) * 0.5 + 0.0, zeros(v)]),
            lambda v: np.column_stack([np.ones(len(v)), v, *[squared_speed(v) * 0.5 + eps0] * 2]),
        )
        q = math.exp(-2.0 * eps0 / self.LTE.T)
        lte2 = MaxwellianState(self.LTE.rho * q, self.LTE.u, self.LTE.T)
        kernel = lattice_weak_form(
            self.LTE,
            lte2,
            CONSTS,
            42,
            plan.n_shifts,
            lambda v: np.zeros((len(v), 5)),
            lambda v: conserved_columns(v - self.LTE.u),
        )
        got = [exchange["mass"], *conservation.values(), exchange["energy"], *kernel_of_L.values()]
        want = [*exchange_columns, *kernel]
        assert len(got) == len(want) == 11
        assert [(e.value, e.std_error) for e in got] == want
        assert all(abs(e.value) < 1e-12 and e.consistent_with_zero() for e in conservation.values())

    def test_equals_separate_estimator_calls(self):
        conservation, exchange, kernel = _weak_form_checks(self.GENERIC, self.LTE, PLAN, CONSTS)
        # each problem estimated alone, from its own draw
        (exchange_alone,) = _weak_form_moments([_exchange_problem(*self.GENERIC, CONSTS)], CONSTS, PLAN)
        (kernel_alone,) = _weak_form_moments([_kernel_problem(self.LTE, CONSTS)], CONSTS, PLAN)
        assert [exchange["mass"], *conservation.values(), exchange["energy"]] == exchange_alone
        assert list(kernel.values()) == kernel_alone

    @pytest.mark.parametrize("with_balance", [False, True], ids=["weak_form", "verify_checks"])
    def test_peak_memory_bounded(self, with_balance):
        # one chunk's rows per side (29 rows of 2^13 floats, 1.8 MiB each)
        # and the 0.5 MiB lattice table peak at 4.4 MiB traced at 123 shifts;
        # the detailed-balance sweep walks the same shifts once both sides'
        # rows are freed, in one set of rows of its own: a second live set of
        # rows per side or the shifts' points kept whole exceed the bound
        plan = McPlan(n_samples=10**6, seed=1)
        # the first import of numpy.random allocates about 0.7 MiB; it is
        # loaded here so the traced peak does not depend on the test order
        import numpy.random  # noqa: F401

        tracemalloc.start()
        try:
            if with_balance:
                verify_checks(TestDetailedBalanceCheck.PAIR, self.GENERIC, self.LTE, plan, CONSTS)
            else:
                _weak_form_checks(self.GENERIC, self.LTE, plan, CONSTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestChunkTuples:
    """`_tuple_chunk` against the closed forms: every open tuple of a chunk
    is a nonelastic collision, weighted by its side's rate factor."""

    GENERIC = TestFusedPass.GENERIC

    def chunk(self, side, consts):
        rng = np.random.default_rng([11, side])
        zab = rng.standard_normal((2, 2000, 3))
        omega = rng.standard_normal((2000, 3))
        omega /= np.linalg.norm(omega, axis=1, keepdims=True)
        weight, v = _tuple_chunk(*self.GENERIC, consts, side, (zab, omega), _Rows(1))
        v3, v4, v1, v2 = (np.ascontiguousarray(x.T) for x in v)
        return weight.copy(), CollisionTuple(v1, v2, v3, v4)

    @pytest.mark.parametrize("side", [0, 1])
    def test_open_tuples_conserve_momentum_and_energy(self, side):
        weight, tup = self.chunk(side, CONSTS)
        open_ = weight > 0
        # the loss side closes below threshold, the gain side never
        if side == 0:
            assert 0 < np.count_nonzero(~open_) < len(weight) // 2
        else:
            assert open_.all()
        scale = np.max(np.abs(tup.v1) + np.abs(tup.v2))
        assert np.max(np.abs(momentum_residual(tup)[open_])) < 1e-13 * scale
        assert np.max(np.abs(energy_residual(tup, CONSTS)[open_])) < 1e-13 * scale**2

    @pytest.mark.parametrize("side", [0, 1])
    def test_weight_is_the_rate_factor(self, side):
        # the weight is 4 pi m1 m w, with m the mass of the other drawn state
        consts = PhysConsts(epsilon0=0.7, C0_kernel=3.0)
        weight, tup = self.chunk(side, consts)
        s1, s2 = self.GENERIC
        m1 = s1.rho * consts.maxwellian_mass
        if side == 0:
            open_ = np.sum((tup.v1 - tup.v2) ** 2, axis=1) > 4.0 * consts.epsilon0
            want = np.zeros(len(weight))
            want[open_] = 4.0 * math.pi * m1 * m1 * w_minus(tup.v1[open_], tup.v2[open_], consts)
        else:
            want = 4.0 * math.pi * m1 * s2.rho * consts.maxwellian_mass * w_plus(tup.v3, tup.v4, consts)
        np.testing.assert_allclose(weight, want, rtol=1e-13, atol=0)


class TestVerifyChecks:
    GENERIC, LTE = TestFusedPass.GENERIC, TestFusedPass.LTE
    PAIR = TestDetailedBalanceCheck.PAIR

    # the least number of shifts, and one more
    @pytest.mark.parametrize("n_samples", [20_000, 2**17 + 1])
    def test_equals_separate_calls(self, n_samples):
        plan = McPlan(n_samples=n_samples, seed=5)
        got = verify_checks(self.PAIR, self.GENERIC, self.LTE, plan, CONSTS)
        want = (
            _balance_sweep(self.PAIR, plan, CONSTS),
            _weak_form_checks(self.GENERIC, self.LTE, plan, CONSTS),
        )
        assert got == want
        assert got[0] is not None


class TestLatticePoints:
    def test_gate_is_the_t_quantile(self):
        from scipy.stats import t

        assert GATE_QUANTILE == pytest.approx(t.ppf(1 - 0.00135, 15), rel=0, abs=1e-12)

    def test_zero_shift_origin_gives_finite_normals(self):
        # u = 0 at k = 0: 1 - u = 1, so the radii are 0 and the direction is
        # the south pole
        (za, zb), omega = _lattice_chunk(_lattice_table()[:, :_CHUNK], np.zeros(8), _Rows(1))
        assert np.isfinite(za).all() and np.isfinite(zb).all() and np.isfinite(omega).all()
        assert za[0].tolist() == zb[0].tolist() == [0.0, 0.0, 0.0]
        assert omega[0].tolist() == [0.0, 0.0, -1.0]

    def test_moments_pass_the_gate(self):
        # the means of |za|^2 and |zb|^2 (3 each), of omega (0) and of
        # omega_z^2 (1/3) on the 16 shifts of each of 20 seeds, each moment
        # one estimate over the 320 shifts
        table, rows = _lattice_table(), _Rows(1)
        means = []
        for seed in range(20):
            for shift in range(16):
                (za, zb), omega = _lattice_chunk(table, np.random.default_rng([seed, 0, shift]).random(8), rows)
                squares = [np.mean(za * za) * 3, np.mean(zb * zb) * 3]
                means.append([*squares, *np.mean(omega, axis=0), np.mean(omega[:, 2] ** 2)])
        for column, want in zip(np.array(means).T, [3.0, 3.0, 0.0, 0.0, 0.0, 1.0 / 3.0]):
            est = Estimate(float(np.mean(column)), float(np.std(column, ddof=1) / math.sqrt(len(column))))
            assert est.consistent_with(want)


class _RecordedThread(threading.Thread):
    started = []

    def start(self):
        type(self).started.append(self)
        super().start()


class TestWorkerThread:
    GENERIC, LTE = TestFusedPass.GENERIC, TestFusedPass.LTE
    QUICK = McPlan(n_samples=20_000, seed=3)

    @pytest.fixture
    def failing_side(self, monkeypatch):
        """Makes `_tuple_chunk` raise one MemoryError on the given side;
        returns that error and records every thread started."""
        monkeypatch.setattr(_RecordedThread, "started", [])
        monkeypatch.setattr(threading, "Thread", _RecordedThread)
        tuple_chunk = radgas.kinetic._tuple_chunk

        def arm(side):
            error = MemoryError(f"Unable to allocate on side {side}")

            def failing(state1, state2, consts, chunk_side, *rest):
                if chunk_side == side:
                    raise error
                return tuple_chunk(state1, state2, consts, chunk_side, *rest)

            monkeypatch.setattr(radgas.kinetic, "_tuple_chunk", failing)
            return error

        return arm

    @pytest.mark.parametrize("side", [0, 1], ids=["worker", "caller"])
    def test_failure_reaches_the_caller_and_the_worker_is_joined(self, failing_side, side):
        error = failing_side(side)
        before = threading.active_count()
        with pytest.raises(MemoryError) as exc:
            _weak_form_checks(self.GENERIC, self.LTE, self.QUICK, CONSTS)
        assert exc.value is error
        assert threading.active_count() == before
        (worker,) = _RecordedThread.started
        assert not worker.is_alive()

    @pytest.mark.parametrize("side", [0, 1], ids=["worker", "caller"])
    def test_verify_reports_one_out_of_memory_line(self, failing_side, side, tmp_path, capsys):
        failing_side(side)
        before = threading.active_count()
        argv = ["verify", "--n-samples", "20000", "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"solver error: out of memory: Unable to allocate on side {side}\n"
        assert threading.active_count() == before

    def test_one_worker_per_call(self, monkeypatch):
        monkeypatch.setattr(_RecordedThread, "started", [])
        monkeypatch.setattr(threading, "Thread", _RecordedThread)
        _weak_form_checks(self.GENERIC, self.LTE, self.QUICK, CONSTS)
        _weak_form_checks(self.GENERIC, self.LTE, self.QUICK, CONSTS)
        assert len(_RecordedThread.started) == 2
        assert not any(t.is_alive() for t in _RecordedThread.started)

    def test_worker_calls_no_public_function(self, tmp_path):
        # the benchmark's tracer wraps every public radgas function and keeps
        # one span stack, which a second thread in a public call would corrupt;
        # the whole verify pass runs, the detailed-balance sweep included
        main_thread, called = threading.main_thread(), set()

        def record(frame, event, arg):
            if event == "call" and threading.current_thread() is not main_thread:
                called.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

        argv = ["verify", "--n-samples", "20000", "--out", str(tmp_path / "run")]
        threading.setprofile(record)
        try:
            assert main(argv) == 0
        finally:
            threading.setprofile(None)
        modules = [radgas] + [
            importlib.import_module(f"radgas.{m.name}") for m in pkgutil.iter_modules(radgas.__path__)
        ]
        public = {name for mod in modules for name in getattr(mod, "__all__", ())}
        public |= {
            name
            for mod in modules
            for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and not name.startswith("_")
        }
        ours = {name for module, name in called if module and module.startswith("radgas")}
        assert "_tuple_chunk" in ours
        assert ours & public == set()


class TestKernelOfL:
    def test_lte_state_annihilated(self):
        _, _, kernel = _weak_form_checks(TestFusedPass.GENERIC, MaxwellianState(1.0, np.zeros(3), 5.0), PLAN, CONSTS)
        assert all(e.consistent_with_zero() for e in kernel.values())

    def test_boosted_lte_state_annihilated(self):
        boosted = MaxwellianState(1.0, (1.0, 0.0, 0.0), 5.0)
        _, _, kernel = _weak_form_checks(TestFusedPass.GENERIC, boosted, PLAN, CONSTS)
        assert all(e.consistent_with_zero() for e in kernel.values())

    def test_off_ratio_number_projection_large(self):
        s1 = MaxwellianState(1.0, np.zeros(3), 5.0)
        s2 = MaxwellianState(2.0 * math.exp(-2.0 / 5.0), np.zeros(3), 5.0)
        est = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)[1]["mass"]
        assert abs(est.value) / est.std_error > 5.0


class TestEntropyIdentity:
    def test_identity_at_spec_temperatures(self):
        rep = entropy_identity_check([0.5, 2.0, 10.0, 50.0], CONSTS)
        assert rep["max_rel_error"] < 1e-14

    @pytest.mark.parametrize("T", [2.0**-962, 1e-289, 1e-3, 0.05, 1000.0, 1e300, sys.float_info.max])
    def test_identity_to_rounding_at_extreme_temperatures(self, T):
        assert entropy_identity_check([T], CONSTS)["max_rel_error"] < 1e-14

    @pytest.mark.parametrize("T", [math.nextafter(2.0**-962, 0.0), 1e-305, 1e-307, 0.0, -1.0, math.nan])
    def test_subnormal_step_raises(self, T):
        with pytest.raises(ValueError, match="below 2\\^-962"):
            entropy_identity_check([1.0, T], CONSTS)

    def test_complex_step_agrees_with_central_differences(self):
        # the central differences the check used before, h = 1e-5*T
        for row in entropy_identity_check([0.5, 2.0, 10.0, 50.0], CONSTS)["rows"]:
            T, h = row["T"], 1e-5 * row["T"]
            lam_p = (entropy_lambda(T + h, CONSTS) - entropy_lambda(T - h, CONSTS)) / (2 * h)
            e_p = (energy_density(T + h, CONSTS) - energy_density(T - h, CONSTS)) / (2 * h)
            assert row["T_lambda_prime"] == pytest.approx(T * lam_p, rel=1e-9)
            assert row["two_e_prime"] == pytest.approx(2.0 * e_p, rel=1e-9)

    def test_energy_density_monotone_side_check(self):
        rows = entropy_identity_check([1.0, 5.0, 25.0], CONSTS)["rows"]
        assert all(r["two_e_prime"] > 0 for r in rows)
