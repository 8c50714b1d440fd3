"""Kinetic-identity verification: detailed balance, weak-form conservation,
kernel of the linearized operator, and the entropy identity."""

import importlib
import inspect
import math
import pkgutil
import threading
import tracemalloc

import numpy as np
import pytest

import radgas
import radgas.kinetic
from radgas import PhysConsts, MaxwellianState
from radgas.cli import main
from radgas.kinetic import (
    _BATCH,
    _CHUNK,
    McPlan,
    _Rows,
    _balance_sweep,
    _batch_normals,
    _exchange_problem,
    _exchange_result,
    _kernel_problem,
    _kernel_result,
    _moment_change,
    _tuple_chunk,
    _weak_form_checks,
    verify_checks,
    _weak_form_moments,
    entropy_identity_check,
    exchange_reduced,
)
from oracles import CollisionTuple, detailed_balance_residual, energy_residual, momentum_residual, w_minus, w_plus

CONSTS = PhysConsts(epsilon0=1.0)
PLAN = McPlan(n_samples=200_000, seed=42)


def _collision_batch(state1, state2, consts, side, rng, size):
    """(weight, v1, v2, v3, v4) of one batch, drawn as three (size, 3) normal
    blocks: side 0 draws the loss product (v1, v2 ground; open above
    threshold), side 1 the gain product (v3 excited, v4 ground)."""
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


def separate_pass_oracle(state1, state2, consts, plan, phi1, phi2):
    """One estimator's own loss and gain passes: whole batches, the weighted
    samples materialized and summed by column (the reference for the fused,
    chunked pass)."""
    n = plan.n_samples

    def accumulate(side):
        total = total_sq = weight_abs = 0.0
        for b, start in enumerate(range(0, n, _BATCH)):
            rng = np.random.default_rng([plan.seed, side, b])
            w, v1, v2, v3, v4 = _collision_batch(state1, state2, consts, side, rng, min(_BATCH, n - start))
            samples = w[:, None] * (phi1(v4) + phi2(v3) - phi1(v1) - phi1(v2))
            total = total + np.sum(samples, axis=0)
            total_sq = total_sq + np.sum(samples * samples, axis=0)
            weight_abs += float(np.sum(np.abs(w)))
        mean = total / n
        se = np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)
        return mean, np.maximum(se, 1e-16 * (weight_abs / n) / math.sqrt(n))

    (loss_mean, loss_se), (gain_mean, gain_se) = accumulate(0), accumulate(1)
    se = np.sqrt(loss_se**2 + gain_se**2)
    return [(float(m), float(e)) for m, e in zip(loss_mean - gain_mean, se)]


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


def sweep_residuals(monkeypatch, pair, n_tuples, seed):
    """(residuals, max) of `_balance_sweep`: the residual of every kept
    tuple, in the order the sweep forms them, and the max it returns."""
    recorded = []
    residual = radgas.kinetic._balance_residual

    def recording(*args):
        recorded.append(residual(*args).copy())
        return recorded[-1]

    monkeypatch.setattr(radgas.kinetic, "_balance_residual", recording)
    largest = _balance_sweep(pair, n_tuples, seed, CONSTS)
    return np.concatenate(recorded) if recorded else np.empty(0), largest


class TestDetailedBalanceCheck:
    U, T = np.array([0.3, 0.0, 0.0]), 5.0
    PAIR = (MaxwellianState(1.0, U, T), MaxwellianState(math.exp(-2.0 / T), U, T))

    def test_max_residual_of_the_seeded_tuples(self):
        # the tuples drawn from the (seed, 1) stream, as the check draws them
        tup = random_nonelastic_tuples(np.random.default_rng([3, 1]), 20_000, self.U, self.T, CONSTS)
        want = float(np.max(np.abs(detailed_balance_residual(*self.PAIR, tup, CONSTS))))
        assert _balance_sweep(self.PAIR, 20_000, 3, CONSTS) == want
        assert want < 1e-12

    def test_no_tuple_above_threshold_gives_none(self):
        # the single pair that seed 1 draws is below the threshold
        assert _balance_sweep(self.PAIR, 1, 1, CONSTS) is None

    @pytest.mark.parametrize("seed", [1, 5, 33])
    def test_chunked_max_equals_unchunked_formula(self, seed):
        # a pair off the Boltzmann ratio: O(1) residuals whose largest sits in
        # one of the 11 chunks of 2^13 kept tuples
        pair = (self.PAIR[0], MaxwellianState(self.PAIR[1].rho, self.U, 6.0))
        tup = random_nonelastic_tuples(np.random.default_rng([seed, 1]), 10**5, self.U, self.T, CONSTS)
        assert len(tup.v1) > 10 * _CHUNK
        want = float(np.max(np.abs(detailed_balance_residual(*pair, tup, CONSTS))))
        assert _balance_sweep(pair, 10**5, seed, CONSTS) == want
        assert want > 1e-3

    # T 0.7: a chunk keeps few pairs; n_tuples _CHUNK + 1: a one-pair chunk
    @pytest.mark.parametrize("T", [0.7, 5.0, 20.0])
    @pytest.mark.parametrize("n_tuples", [1, 20_000, _CHUNK + 1, 10**5])
    @pytest.mark.parametrize("T2_over_T", [1.0, 1.2], ids=["lte", "off"])
    def test_residuals_bit_identical_to_the_oracle(self, monkeypatch, T, n_tuples, T2_over_T):
        # every residual of the (4, 3, c) row path, against the (m, 3) oracle:
        # at the Boltzmann ratio they are rounding noise, which any change of
        # expression order moves
        pair = (MaxwellianState(1.0, self.U, T), MaxwellianState(math.exp(-2.0 / T), self.U, T2_over_T * T))
        got, largest = sweep_residuals(monkeypatch, pair, n_tuples, 7)
        tup = random_nonelastic_tuples(np.random.default_rng([7, 1]), n_tuples, self.U, T, CONSTS)
        want = np.asarray(detailed_balance_residual(*pair, tup, CONSTS))
        assert got.tobytes() == want.tobytes()
        assert largest == (float(np.max(np.abs(want))) if len(want) else None)
        if T2_over_T == 1.0 and len(want):
            assert largest < 1e-12


class TestConservation:
    def test_residuals_within_3_sigma_generic_pair(self):
        s1 = MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0)
        rep, _, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        assert rep.all_pass()
        for _, est in rep.rows():
            assert est.std_error > 0

    def test_seeded_determinism(self):
        s1 = MaxwellianState(1.0, np.zeros(3), 3.0)
        s2 = MaxwellianState(0.5, np.zeros(3), 3.0)
        r1, e1, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        r2, e2, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        assert r1.mass.value == r2.mass.value
        assert r1.energy.value == r2.energy.value
        assert [e.value for e in r1.momentum] == [e.value for e in r2.momentum]
        assert [e.value for e in e1] == [e.value for e in e2]

    # the default verify pair, equal temperatures, and T2 above and below T1
    @pytest.mark.parametrize("T1, T2", [(4.0, 7.0), (5.0, 5.0), (10.0, 12.0), (2.0, 1.5)])
    def test_exchange_matches_reduced_formulas(self, T1, T2):
        s1 = MaxwellianState(1.3, np.zeros(3), T1)
        s2 = MaxwellianState(0.4, np.zeros(3), T2)
        _, exchange, _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        for est, red in zip(exchange, exchange_reduced(s1, s2, CONSTS)):
            assert abs(est.value - red) <= 3.0 * est.std_error

    def test_shared_pass_matches_separate_estimators(self):
        s1 = MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0)
        rep, (est, _), _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        # the five conservation columns alone, and the mass-exchange column alone
        ground, excited = (None, 0.0, ()), (None, CONSTS.epsilon0, ())
        (alone,) = _weak_form_moments(
            [(s1, s2, lambda v, out: _moment_change(v, out, excited, ground), 5)], CONSTS, PLAN
        )
        assert [(e.value, e.std_error) for _, e in rep.rows()] == [
            (e.value, e.std_error) for e in alone
        ]
        # test functions (0, 1): D = 1 for every tuple
        ((one,),) = _weak_form_moments([(s1, s2, lambda v, out: out.fill(1.0), 1)], CONSTS, PLAN)
        assert est.value == pytest.approx(one.value, rel=1e-12)
        assert est.std_error == pytest.approx(one.std_error, rel=1e-12)

    def test_u_shift_invariance_of_mass_exchange(self):
        s1 = MaxwellianState(1.3, (0.0, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.0, 0.0, 0.0), 7.0)
        U = np.array([0.7, -0.4, 1.1])
        s1b = MaxwellianState(1.3, U, 4.0)
        s2b = MaxwellianState(0.4, U, 7.0)
        _, (a, _), _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        _, (b, _), _ = _weak_form_checks((s1b, s2b), s1b, PLAN, CONSTS)
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
    def columns(v, u, excitation, extra):
        dv = v if u is None else v - u
        energy = dv[:, 0] * dv[:, 0]
        energy += dv[:, 1] * dv[:, 1]
        energy += dv[:, 2] * dv[:, 2]
        energy *= 0.5
        energy += excitation
        return np.column_stack([np.ones(len(v)), dv, energy, *[np.full(len(v), x) for x in extra]])

    @pytest.mark.parametrize(
        "excited, ground",
        [
            ((None, 1.0, (1.0,)), (None, 0.0, (0.0,))),
            ((np.array([0.5, 0.0, -0.2]), 0.0, ()), None),
            ((np.array([0.3, -1.1, 2.0]), 0.7, (2.5, -1.0)), (np.array([-0.4, 0.2, 0.1]), 0.0, (0.5, 3.0))),
            ((None, 0.25, ()), (np.array([1.0, 2.0, 3.0]), 1e-3, ())),
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
        (joint,) = _weak_form_moments([problem(cols1, cols2)], CONSTS, PLAN)
        assert len(joint) == 3
        for est, c1, c2 in zip(joint, cols1, cols2):
            ((one,),) = _weak_form_moments([problem([c1], [c2])], CONSTS, PLAN)
            assert est.value == pytest.approx(one.value, rel=1e-12)
            assert est.std_error == pytest.approx(one.std_error, rel=1e-12)
            assert abs(one.value) > 3 * one.std_error


def conserved_columns(v, excitation=0.0, *extra):
    """Columns 1, v, |v|^2/2 + excitation and the `extra` constants, stacked."""
    cols = [np.ones(len(v)), v, 0.5 * np.sum(v * v, axis=1) + excitation]
    return np.column_stack(cols + [np.full(len(v), c) for c in extra])


class TestFusedPass:
    GENERIC = (
        MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0),
        MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0),
    )
    LTE = MaxwellianState(1.0, (0.5, 0.0, -0.2), 5.0)

    # 150_001 samples: a partial final batch that ends in a partial chunk
    @pytest.mark.parametrize("n_samples", [200_000, 150_001])
    def test_matches_separate_pass_oracle(self, n_samples):
        plan = McPlan(n_samples=n_samples, seed=42)
        rep, exchange, chk = _weak_form_checks(self.GENERIC, self.LTE, plan, CONSTS)
        eps0 = CONSTS.epsilon0
        *_, mass, energy = separate_pass_oracle(
            *self.GENERIC,
            CONSTS,
            plan,
            lambda v: np.column_stack([conserved_columns(v, 0.0, 0.0), np.zeros(len(v))]),
            lambda v: np.column_stack([conserved_columns(v, eps0, 1.0), 0.5 * np.sum(v * v, axis=1) + eps0]),
        )
        q = math.exp(-2.0 * eps0 / self.LTE.T)
        lte2 = MaxwellianState(self.LTE.rho * q, self.LTE.u, self.LTE.T)
        kernel = separate_pass_oracle(
            self.LTE,
            lte2,
            CONSTS,
            plan,
            lambda v: np.zeros((len(v), 5)),
            lambda v: conserved_columns(v - self.LTE.u),
        )
        for got, (value, std_error) in zip([*exchange, *chk["projections"].values()], [mass, energy, *kernel]):
            assert abs(got.value - value) <= 1e-9 * std_error
            assert got.std_error == pytest.approx(std_error, rel=1e-9, abs=0)
        assert all(abs(e.value) < 1e-12 for _, e in rep.rows())
        assert rep.all_pass()

    def test_equals_separate_estimator_calls(self):
        checks = _weak_form_checks(self.GENERIC, self.LTE, PLAN, CONSTS)
        # each problem estimated alone, from its own draw
        (exchange,) = _weak_form_moments([_exchange_problem(*self.GENERIC, CONSTS)], CONSTS, PLAN)
        (kernel,) = _weak_form_moments([_kernel_problem(self.LTE, CONSTS)], CONSTS, PLAN)
        assert checks == (*_exchange_result(exchange), _kernel_result(kernel))

    @pytest.mark.parametrize("with_balance", [False, True], ids=["weak_form", "verify_checks"])
    def test_peak_memory_bounded(self, with_balance):
        # one reused buffer of normals per side (2 x 2^17 x 3 floats, 6.0 MiB
        # each, 12.0 MiB together) plus one chunk's rows per side peaks at
        # 15.3 MiB traced, with or without the detailed-balance sweep of 10^5
        # tuples, which runs once both buffers are freed: a second live batch
        # or an unchunked pass exceeds the bound
        plan = McPlan(n_samples=10**6, seed=1)
        # the first import of numpy.random allocates about 0.7 MiB; it is
        # loaded here so the traced peak does not depend on the test order
        import numpy.random  # noqa: F401

        tracemalloc.start()
        try:
            if with_balance:
                verify_checks(TestDetailedBalanceCheck.PAIR, 10**5, self.GENERIC, self.LTE, plan, CONSTS)
            else:
                _weak_form_checks(self.GENERIC, self.LTE, plan, CONSTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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

    # fewer tuples than a batch of samples, and more
    @pytest.mark.parametrize("n_tuples", [20_000, _BATCH + 1])
    def test_equals_separate_calls(self, n_tuples):
        plan = McPlan(n_samples=20_000, seed=5)
        got = verify_checks(self.PAIR, n_tuples, self.GENERIC, self.LTE, plan, CONSTS)
        want = (
            _balance_sweep(self.PAIR, n_tuples, 5, CONSTS),
            _weak_form_checks(self.GENERIC, self.LTE, plan, CONSTS),
        )
        assert got == want
        assert got[0] is not None


class TestStreamedDraw:
    # a full batch, and the partial last batch of 10^6 samples: 82,496 rows,
    # ten full chunks and one of 576 rows
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("b, size", [(0, _BATCH), (7, 10**6 - 7 * _BATCH)])
    def test_equals_one_draw_of_the_batch(self, side, b, size):
        pair, omega = np.empty(6 * _BATCH), np.empty((_CHUNK, 3))
        chunks = [
            [zab[0].copy(), zab[1].copy(), om.copy()]
            for zab, om in _batch_normals(np.random.default_rng([7, side, b]), size, pair, omega)
        ]
        streamed = np.stack([np.concatenate(parts) for parts in zip(*chunks)])
        want = np.random.default_rng([7, side, b]).standard_normal((3, size, 3))
        assert np.array_equal(streamed, want)
        assert [len(chunk[2]) for chunk in chunks][-1] == (576 if b else _CHUNK)


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

            def failing(state1, state2, consts, chunk_side, normals, rows):
                if chunk_side == side:
                    raise error
                return tuple_chunk(state1, state2, consts, chunk_side, normals, rows)

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
        argv = ["verify", "--n-samples", "20000", "--n-tuples", "2000", "--out", str(tmp_path / "run")]
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

        argv = ["verify", "--n-samples", "20000", "--n-tuples", "2000", "--out", str(tmp_path / "run")]
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
        _, _, chk = _weak_form_checks(TestFusedPass.GENERIC, MaxwellianState(1.0, np.zeros(3), 5.0), PLAN, CONSTS)
        assert chk["all_within_3_sigma"]

    def test_boosted_lte_state_annihilated(self):
        _, _, chk = _weak_form_checks(TestFusedPass.GENERIC, MaxwellianState(1.0, (1.0, 0.0, 0.0), 5.0), PLAN, CONSTS)
        assert chk["all_within_3_sigma"]

    def test_off_ratio_number_projection_large(self):
        s1 = MaxwellianState(1.0, np.zeros(3), 5.0)
        s2 = MaxwellianState(2.0 * math.exp(-2.0 / 5.0), np.zeros(3), 5.0)
        _, (est, _), _ = _weak_form_checks((s1, s2), s1, PLAN, CONSTS)
        assert abs(est.value) / est.std_error > 5.0


class TestEntropyIdentity:
    def test_identity_at_spec_temperatures(self):
        rep = entropy_identity_check([0.5, 2.0, 10.0, 50.0], CONSTS)
        assert rep["max_rel_error"] < 1e-6

    def test_energy_density_monotone_side_check(self):
        rows = entropy_identity_check([1.0, 5.0, 25.0], CONSTS)["rows"]
        assert all(r["two_e_prime"] > 0 for r in rows)
