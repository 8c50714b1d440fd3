"""Closed-form physics: values, conservation laws, and thermodynamic identities."""

import math

import numpy as np
import pytest

from radgas import (
    PhysConsts,
    MaxwellianState,
    BelowThreshold,
    boltzmann_ratio,
    pseudo_planck,
    energy_density,
    entropy_lambda,
)
from oracles import (
    CollisionTuple,
    energy_residual,
    maxwellian,
    momentum_residual,
    nonelastic_post_velocities,
    w_minus,
    w_plus,
)

CONSTS = PhysConsts(epsilon0=1.0)


def gauss_hermite_3d(fn, n=48, half_width=9.0):
    """Independent oracle: tensorized Gauss-Legendre box integration in 3D."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = half_width * x
    w = half_width * w
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    V = np.stack([X, Y, Z], axis=-1)
    W = np.einsum("i,j,k->ijk", w, w, w)
    return float(np.sum(fn(V) * W))


class TestMaxwellian:
    def test_unit_state_at_origin(self):
        state = MaxwellianState(1.0, np.zeros(3), 1.0)
        assert maxwellian(state, False, CONSTS, np.zeros(3)) == pytest.approx(
            math.pi**-1.5, rel=1e-12
        )

    def test_excited_boltzmann_factor(self):
        state = MaxwellianState(1.0, np.zeros(3), 1.0)
        val = maxwellian(state, True, CONSTS, np.zeros(3))
        assert val == pytest.approx(math.pi**-1.5 * math.exp(-2.0), rel=1e-12)
        assert val == pytest.approx(0.0243049, abs=5e-7)

    @pytest.mark.parametrize("excited", [False, True])
    @pytest.mark.parametrize("rho,u,T", [(1.0, (0, 0, 0), 1.0), (2.5, (0.3, -0.1, 0.7), 4.0)])
    def test_mass_against_quadrature(self, rho, u, T, excited):
        # integral of the Maxwellian = rho * exp(-2*eps0/T) for the excited state
        state = MaxwellianState(rho, np.asarray(u, dtype=float), T)
        got = gauss_hermite_3d(lambda v: maxwellian(state, excited, CONSTS, v))
        want = rho * (math.exp(-2.0 * CONSTS.epsilon0 / T) if excited else 1.0)
        assert got == pytest.approx(want, abs=1e-8)

    def test_positive(self):
        state = MaxwellianState(1.0, np.zeros(3), 1.0)
        rng = np.random.default_rng(1)
        v = rng.normal(size=(100, 3)) * 3
        assert np.all(maxwellian(state, False, CONSTS, v) > 0)


class TestBoltzmannRatio:
    def test_closed_form_half(self):
        assert boltzmann_ratio(2.0 / math.log(2.0), CONSTS) == pytest.approx(0.5, rel=1e-14)

    def test_high_temperature_limit(self):
        assert abs(boltzmann_ratio(1e12, CONSTS) - 1.0) < 1e-11

    def test_t10(self):
        assert boltzmann_ratio(10.0, CONSTS) == pytest.approx(0.81873075, rel=1e-7)

    def test_strictly_increasing(self):
        T = np.linspace(0.05, 200.0, 4001)
        vals = boltzmann_ratio(T, CONSTS)
        assert np.all(np.diff(vals) > 0)


class TestPseudoPlanck:
    def test_unit_value(self):
        assert pseudo_planck(2.0 / math.log(2.0), CONSTS) == pytest.approx(1.0, rel=1e-13)

    def test_t10(self):
        assert pseudo_planck(10.0, CONSTS) == pytest.approx(4.5166556, rel=1e-7)

    def test_radiative_balance_identity(self):
        rng = np.random.default_rng(7)
        T = rng.uniform(0.1, 100.0, size=100)
        g0 = pseudo_planck(T, CONSTS)
        residual = boltzmann_ratio(T, CONSTS) * (1.0 + g0) - g0
        assert np.max(np.abs(residual)) < 1e-13 * np.max(g0)

    def test_strictly_increasing(self):
        T = np.linspace(0.05, 200.0, 4001)
        vals = pseudo_planck(T, CONSTS)
        assert np.all(np.diff(vals) > 0)


class TestEnergyDensity:
    def test_low_temperature(self):
        assert energy_density(1e-3, CONSTS) - 0.75e-3 < 1e-8

    def test_closed_form(self):
        T = 2.0 / math.log(2.0)
        # (3/4)*(2/ln 2) + 1/3; evaluates to 2.4973759 in double precision
        assert energy_density(T, CONSTS) == pytest.approx(0.75 * T + 1.0 / 3.0, rel=1e-13)
        assert energy_density(T, CONSTS) == pytest.approx(2.4973759, abs=1e-7)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(11)
        T = rng.uniform(1e-2, 100.0, size=1000)
        h = rng.uniform(1e-4, 10.0, size=1000)
        assert np.all(energy_density(T + h, CONSTS) > energy_density(T, CONSTS))


class TestEntropyLambda:
    @pytest.mark.parametrize("T", [0.5, 2.0, 10.0, 50.0])
    def test_identity_T_lambda_prime_eq_2_e_prime(self, T):
        # finite-difference oracle with h = 1e-5*T
        h = 1e-5 * T
        lam_p = (entropy_lambda(T + h, CONSTS) - entropy_lambda(T - h, CONSTS)) / (2 * h)
        e_p = (energy_density(T + h, CONSTS) - energy_density(T - h, CONSTS)) / (2 * h)
        assert T * lam_p == pytest.approx(2.0 * e_p, rel=1e-6)

    def test_finite_over_wide_range(self):
        T = np.geomspace(1e-3, 1e6, 200)
        vals = entropy_lambda(T, CONSTS)
        assert np.all(np.isfinite(vals))
        assert np.all(np.isreal(vals))


class TestNonelasticKinematics:
    def test_hand_checkable(self):
        v3, v4 = nonelastic_post_velocities((2, 0, 0), (-2, 0, 0), (1, 0, 0), CONSTS)
        np.testing.assert_allclose(v3, [math.sqrt(3), 0, 0], rtol=1e-14)
        np.testing.assert_allclose(v4, [-math.sqrt(3), 0, 0], rtol=1e-14)
        # energy bookkeeping: 2 + 2 = 1.5 + 1.5 + 1
        assert 0.5 * 3 + 0.5 * 3 + CONSTS.epsilon0 == pytest.approx(4.0)

    def test_below_threshold_raises(self):
        with pytest.raises(BelowThreshold):
            nonelastic_post_velocities((1, 0, 0), (0, 0, 0), (1, 0, 0), CONSTS)

    def test_conservation_random_sweep(self):
        rng = np.random.default_rng(9)
        n = 10**4
        # super-threshold: |v1-v2| >= 2*sqrt(eps0); widen the spread
        v1 = rng.normal(size=(n, 3)) * 4
        v2 = -v1 + rng.normal(size=(n, 3)) * 0.1
        om = rng.normal(size=(n, 3))
        om /= np.linalg.norm(om, axis=1, keepdims=True)
        rel2 = np.sum((v1 - v2) ** 2, axis=1)
        keep = rel2 > 4.0 * CONSTS.epsilon0 + 0.1
        v1, v2, om = v1[keep], v2[keep], om[keep]
        v3, v4 = nonelastic_post_velocities(v1, v2, om, CONSTS)
        scale = np.max(np.abs(v1) + np.abs(v2))
        assert np.max(np.abs(v1 + v2 - v3 - v4)) < 1e-12 * scale
        e_in = 0.5 * np.sum(v1**2 + v2**2, axis=1)
        e_out = 0.5 * np.sum(v3**2 + v4**2, axis=1) + CONSTS.epsilon0
        assert np.max(np.abs(e_in - e_out) / e_in) < 1e-12


class TestRateFactors:
    def test_w_plus_coincident(self):
        v = np.array([0.3, -1.0, 2.0])
        # |v3-v4| -> 0 limit: (C0/2)*sqrt(4*eps0) = 2 for C0 = 2, eps0 = 1
        got = w_plus(v + 1e-13, v, CONSTS)
        assert got == pytest.approx(2.0, rel=1e-6)

    def test_w_minus_threshold_zero(self):
        v1 = np.array([math.sqrt(CONSTS.epsilon0) * 2, 0, 0])
        assert w_minus(v1, np.zeros(3), CONSTS) == pytest.approx(0.0, abs=1e-12)

    def test_w_minus_below_threshold_raises(self):
        with pytest.raises(BelowThreshold):
            w_minus(np.array([1.0, 0, 0]), np.zeros(3), CONSTS)

    def test_hard_sphere_closed_forms(self):
        # B = C0 |v - v'| cancels the 1/(2|v - v'|): w = (C0/2) sqrt(|v - v'|^2 -+ 4 eps0)
        consts = PhysConsts(epsilon0=0.7, C0_kernel=3.0)
        rng = np.random.default_rng(11)
        v, w = rng.normal(size=(500, 3)) * 3, rng.normal(size=(500, 3)) * 3
        rel2 = np.sum((v - w) ** 2, axis=1)
        np.testing.assert_allclose(w_plus(v, w, consts), 1.5 * np.sqrt(rel2 + 2.8), rtol=1e-14)
        above = rel2 > 2.8
        np.testing.assert_allclose(
            w_minus(v[above], w[above], consts), 1.5 * np.sqrt(rel2[above] - 2.8), rtol=1e-13, atol=1e-15
        )

    def test_galilean_invariance(self):
        rng = np.random.default_rng(13)
        v3 = rng.normal(size=(1000, 3))
        v4 = rng.normal(size=(1000, 3))
        U = rng.normal(size=(1000, 3)) * 5
        np.testing.assert_allclose(
            w_plus(v3 + U, v4 + U, CONSTS), w_plus(v3, v4, CONSTS), rtol=1e-12
        )


class TestDetailedBalancePointwise:
    def test_lte_pair_cancels_on_random_tuples(self):
        rng = np.random.default_rng(17)
        T = 3.0
        u = np.array([0.3, 0.0, 0.0])
        state = MaxwellianState(1.7, u, T)
        n = 10**5
        v1 = rng.normal(size=(n, 3)) * 3 + u
        v2 = rng.normal(size=(n, 3)) * 3 + u
        keep = np.sum((v1 - v2) ** 2, axis=1) > 4.0 * CONSTS.epsilon0 + 1e-6
        v1, v2 = v1[keep], v2[keep]
        om = rng.normal(size=(len(v1), 3))
        om /= np.linalg.norm(om, axis=1, keepdims=True)
        v3, v4 = nonelastic_post_velocities(v1, v2, om, CONSTS)
        lhs = maxwellian(state, False, CONSTS, v1) * maxwellian(state, False, CONSTS, v2)
        rhs = maxwellian(state, True, CONSTS, v3) * maxwellian(state, False, CONSTS, v4)
        assert np.max(np.abs(lhs - rhs) / lhs) < 1e-12


class TestCollisionTuple:
    def test_constructors_and_residuals(self):
        t = CollisionTuple.nonelastic((2, 0, 0), (-2, 0, 0), (0, 0, 1), CONSTS)
        np.testing.assert_allclose(momentum_residual(t), 0.0, atol=1e-14)
        assert abs(energy_residual(t, CONSTS)) < 1e-14
