"""Kinetic-identity verification: detailed balance, weak-form conservation,
kernel of the linearized operator, and the entropy identity."""

import math

import numpy as np
import pytest

from radgas import PhysConsts, MaxwellianState, CollisionTuple
from radgas.kinetic import (
    McPlan,
    _conserved,
    _weak_form_moments,
    conservation_and_exchange,
    detailed_balance_residual,
    entropy_identity_check,
    kernel_of_L_check,
    mass_exchange_reduced,
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

    def test_rejects_elastic_tuples(self):
        t = CollisionTuple.elastic((1, 0, 0), (-1, 0, 0), (0, 1, 0))
        with pytest.raises(ValueError):
            detailed_balance_residual(
                MaxwellianState(1, np.zeros(3), 1), MaxwellianState(1, np.zeros(3), 1), t, CONSTS
            )


class TestConservation:
    def test_residuals_within_3_sigma_generic_pair(self):
        s1 = MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0)
        rep, _ = conservation_and_exchange(s1, s2, PLAN, CONSTS)
        assert rep.all_pass(n_sigma=3.0, floor=1e-10)
        for _, est in rep.rows():
            assert est.std_error > 0

    def test_seeded_determinism(self):
        s1 = MaxwellianState(1.0, np.zeros(3), 3.0)
        s2 = MaxwellianState(0.5, np.zeros(3), 3.0)
        r1, e1 = conservation_and_exchange(s1, s2, PLAN, CONSTS)
        r2, e2 = conservation_and_exchange(s1, s2, PLAN, CONSTS)
        assert r1.mass.value == r2.mass.value
        assert r1.energy.value == r2.energy.value
        assert [e.value for e in r1.momentum] == [e.value for e in r2.momentum]
        assert e1.value == e2.value

    def test_mass_exchange_matches_reduced_formula(self):
        s1 = MaxwellianState(1.3, np.zeros(3), 4.0)
        s2 = MaxwellianState(0.4, np.zeros(3), 7.0)
        _, est = conservation_and_exchange(s1, s2, PLAN, CONSTS)
        red = mass_exchange_reduced(s1, s2, CONSTS)
        assert abs(est.value - red) <= 3.0 * est.std_error

    def test_shared_pass_matches_separate_estimators(self):
        s1 = MaxwellianState(1.3, (0.2, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.2, 0.0, 0.0), 7.0)
        rep, est = conservation_and_exchange(s1, s2, PLAN, CONSTS)
        # the five conservation columns alone, and the mass-exchange column alone
        alone = _weak_form_moments(
            s1, s2, CONSTS, PLAN, _conserved, lambda v: _conserved(v, CONSTS.epsilon0)
        )
        assert [(e.value, e.std_error) for _, e in rep.rows()] == [
            (e.value, e.std_error) for e in alone
        ]
        (one,) = _weak_form_moments(
            s1, s2, CONSTS, PLAN, lambda v: np.zeros((len(v), 1)), lambda v: np.ones((len(v), 1))
        )
        assert est.value == pytest.approx(one.value, rel=1e-12)
        assert est.std_error == pytest.approx(one.std_error, rel=1e-12)

    def test_u_shift_invariance_of_mass_exchange(self):
        s1 = MaxwellianState(1.3, (0.0, 0.0, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.0, 0.0, 0.0), 7.0)
        U = np.array([0.7, -0.4, 1.1])
        s1b = MaxwellianState(1.3, U, 4.0)
        s2b = MaxwellianState(0.4, U, 7.0)
        _, a = conservation_and_exchange(s1, s2, PLAN, CONSTS)
        _, b = conservation_and_exchange(s1b, s2b, PLAN, CONSTS)
        # common random numbers: the shifted estimate matches almost exactly,
        # certainly within the 3-sigma criterion
        assert abs(a.value - b.value) <= 3.0 * math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) < 1e-9 * max(1.0, abs(a.value))


class TestVectorTestFunctions:
    def test_columns_match_one_column_calls(self):
        # non-conserved test functions, so no column cancels to rounding noise
        s1 = MaxwellianState(1.3, (0.2, -0.1, 0.0), 4.0)
        s2 = MaxwellianState(0.4, (0.0, 0.3, 0.1), 7.0)
        cols1 = [lambda v: v[:, 0] ** 2, lambda v: np.zeros(len(v)), lambda v: v[:, 2] ** 3]
        cols2 = [lambda v: np.ones(len(v)), lambda v: np.sum(v * v, axis=1), lambda v: v[:, 1]]
        stack = lambda cols: lambda v: np.column_stack([c(v) for c in cols])
        joint = _weak_form_moments(s1, s2, CONSTS, PLAN, stack(cols1), stack(cols2))
        assert len(joint) == 3
        for est, c1, c2 in zip(joint, cols1, cols2):
            (one,) = _weak_form_moments(s1, s2, CONSTS, PLAN, stack([c1]), stack([c2]))
            assert est.value == pytest.approx(one.value, rel=1e-12)
            assert est.std_error == pytest.approx(one.std_error, rel=1e-12)
            assert abs(one.value) > 3 * one.std_error


class TestKernelOfL:
    def test_lte_state_annihilated(self):
        chk = kernel_of_L_check(MaxwellianState(1.0, np.zeros(3), 5.0), CONSTS, PLAN)
        assert chk["all_within_3_sigma"]

    def test_boosted_lte_state_annihilated(self):
        chk = kernel_of_L_check(MaxwellianState(1.0, (1.0, 0.0, 0.0), 5.0), CONSTS, PLAN)
        assert chk["all_within_3_sigma"]

    def test_off_ratio_number_projection_large(self):
        s1 = MaxwellianState(1.0, np.zeros(3), 5.0)
        s2 = MaxwellianState(2.0 * math.exp(-2.0 / 5.0), np.zeros(3), 5.0)
        _, est = conservation_and_exchange(s1, s2, PLAN, CONSTS)
        assert est.sigmas > 5.0


class TestEntropyIdentity:
    def test_identity_at_spec_temperatures(self):
        rep = entropy_identity_check([0.5, 2.0, 10.0, 50.0], CONSTS)
        assert rep["max_rel_error"] < 1e-6

    def test_energy_density_monotone_side_check(self):
        rows = entropy_identity_check([1.0, 5.0, 25.0], CONSTS)["rows"]
        assert all(r["two_e_prime"] > 0 for r in rows)
