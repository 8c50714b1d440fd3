"""Slab transport, the E1 kernel, and the two stationary slab solvers."""

import math

import numpy as np
import pytest

from radgas import PhysConsts, DomainError, NonContraction, NonPositiveW, pseudo_planck
from radgas.slab import (
    AngleGrid,
    BoundaryProfile,
    RadiationField,
    SlabGrid,
    ExpLimitResult,
    FredholmResult,
    angular_mean,
    flux,
    fredholm_kernel_K,
    kernel_sup,
    ray_integrate,
    solve_exp_limit,
    solve_lte_fredholm,
    transport_solve,
)
from radgas.slab import (
    _check_contraction,
    _e2_product_flux,
    _linear_emission_integral,
    _m0,
    _m1,
    _nystrom_matrix,
    _p0,
    _p1,
    _toeplitz_weights,
)

CONSTS = PhysConsts(epsilon0=1.0)
GRID = SlabGrid(L=2.0, n_y=65)
ANGLES = AngleGrid(n_mu=32)


def constant_coefficient_oracle(y, mu_signed, rho, T, a_plus, a_minus, L, consts):
    """Closed-form slab solution for constant rho, T (derived ray integrals)."""
    q = math.exp(-2.0 * consts.epsilon0 / T)
    kappa = consts.epsilon0 * rho * (1.0 - q)
    g0 = q / (1.0 - q)
    if mu_signed > 0:
        att = math.exp(-kappa * y / mu_signed)
        return a_plus * att + g0 * (1.0 - att)
    att = math.exp(-kappa * (L - y) / (-mu_signed))
    return a_minus * att + g0 * (1.0 - att)


def dense_cell_weights(y, m0, m1):
    """The n^2 product-integration weights that the Toeplitz gather replaces.

    Every entry evaluates m0 and m1 at its own node differences y_i - y_j and
    divides by its own cell width.
    """
    delta = np.diff(y)
    X = y[:, None]
    b = X - y[None, :-1]
    a = X - y[None, 1:]
    i0 = m0(b) - m0(a)
    i1 = (X - y[None, :-1]) * i0 - (m1(b) - m1(a))
    return i0 - i1 / delta[None, :], i1 / delta[None, :]


def dense_nystrom_matrix(y):
    lo, hi = dense_cell_weights(y, _m0, _m1)
    A = np.zeros((len(y), len(y)))
    A[:, :-1] += lo
    A[:, 1:] += hi
    return A


def per_cell_sweep(sigma_nodes, j, a_plus, a_minus, grid, angles):
    """ray_integrate as one exp and one emission integral per cell and step."""
    mu = angles.mu
    y = grid.y
    sigma_c = 0.5 * (sigma_nodes[1:] + sigma_nodes[:-1])
    deltas = np.diff(y)
    g_plus = np.empty((grid.n_y, angles.n_mu))
    g_minus = np.empty_like(g_plus)
    g_plus[0] = a_plus(mu)
    for k in range(grid.n_y - 1):
        att = np.exp(-sigma_c[k] * deltas[k] / mu)
        g_plus[k + 1] = g_plus[k] * att + _linear_emission_integral(j[k], j[k + 1], sigma_c[k], deltas[k], mu)
    g_minus[-1] = a_minus(mu)
    for k in range(grid.n_y - 2, -1, -1):
        att = np.exp(-sigma_c[k] * deltas[k] / mu)
        g_minus[k] = g_minus[k + 1] * att + _linear_emission_integral(j[k + 1], j[k], sigma_c[k], deltas[k], mu)
    return g_plus, g_minus


class TestAngleGrid:
    def test_weights_reproduce_unit_integral(self):
        a = AngleGrid(n_mu=24)
        assert np.all(a.mu > 0)
        assert np.all(a.mu <= 1)
        assert np.all(a.weights > 0)
        assert np.sum(a.weights) == pytest.approx(1.0, abs=1e-10)


class TestBoundaryProfile:
    def test_negative_profiles_rejected(self):
        with pytest.raises(ValueError):
            BoundaryProfile.constant(-1.0)
        bad = BoundaryProfile.from_function(lambda mu: mu - 0.5, "bad")
        with pytest.raises(ValueError):
            bad(np.array([0.1, 0.9]))


class TestTransport:
    def test_planck_boundary_fixed_point(self):
        T0 = 10.0
        bc = (BoundaryProfile.planck(T0, CONSTS), BoundaryProfile.planck(T0, CONSTS))
        G = transport_solve(1.0, T0, bc, CONSTS, GRID, ANGLES)
        g0 = float(pseudo_planck(T0, CONSTS))
        assert np.max(np.abs(G.g_plus - g0)) < 1e-10
        assert np.max(np.abs(G.g_minus - g0)) < 1e-10
        assert np.max(np.abs(flux(G))) < 1e-10

    def test_zero_everything(self):
        bc = (BoundaryProfile.zero(), BoundaryProfile.zero())
        G = transport_solve(0.0, 1.0, bc, CONSTS, GRID, ANGLES)
        assert np.all(G.g_plus == 0)
        assert np.all(G.g_minus == 0)

    def test_one_sided_illumination_matches_closed_form(self):
        rho, T = 1.0, 10.0
        bc = (BoundaryProfile.constant(1.0), BoundaryProfile.zero())
        G = transport_solve(rho, T, bc, CONSTS, GRID, ANGLES)
        for iy in (0, 17, 40, 64):
            for im in (0, 11, 31):
                y, mu = GRID.y[iy], ANGLES.mu[im]
                want_p = constant_coefficient_oracle(y, mu, rho, T, 1.0, 0.0, GRID.L, CONSTS)
                want_m = constant_coefficient_oracle(y, -mu, rho, T, 1.0, 0.0, GRID.L, CONSTS)
                assert G.g_plus[iy, im] == pytest.approx(want_p, abs=1e-8)
                assert G.g_minus[iy, im] == pytest.approx(want_m, abs=1e-8)

    def test_random_constant_states_match_closed_form(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rho = rng.uniform(0.1, 3.0)
            T = rng.uniform(0.5, 30.0)
            ap, am = rng.uniform(0.0, 2.0, size=2)
            bc = (BoundaryProfile.constant(ap), BoundaryProfile.constant(am))
            G = transport_solve(rho, T, bc, CONSTS, GRID, ANGLES)
            iy, im = rng.integers(0, GRID.n_y), rng.integers(0, ANGLES.n_mu)
            y, mu = GRID.y[iy], ANGLES.mu[im]
            assert G.g_plus[iy, im] == pytest.approx(
                constant_coefficient_oracle(y, mu, rho, T, ap, am, GRID.L, CONSTS), rel=1e-10
            )
            assert G.g_minus[iy, im] == pytest.approx(
                constant_coefficient_oracle(y, -mu, rho, T, ap, am, GRID.L, CONSTS), rel=1e-10
            )


class TestHoistedSweep:
    """The sweep's per-cell coefficients, computed up front, against the per-cell loop."""

    @pytest.mark.parametrize("n_y", [65, 257])
    def test_bit_equal_to_per_cell_loop(self, n_y):
        rng = np.random.default_rng(n_y)
        grid = SlabGrid(L=1.0, n_y=n_y)
        sigma = rng.uniform(0.0, 3.0, size=n_y)
        sigma[5:8] = 0.0  # zero-absorption cells
        sigma[20:23] = 1e-9  # optically thin cells: the series branch
        emission = rng.normal(size=n_y)
        bc = (BoundaryProfile.constant(0.3), BoundaryProfile.from_function(lambda m: m, "cos"))
        field = ray_integrate(sigma, emission, *bc, grid, ANGLES)
        g_plus, g_minus = per_cell_sweep(sigma, emission, *bc, grid, ANGLES)
        np.testing.assert_array_equal(field.g_plus, g_plus)
        np.testing.assert_array_equal(field.g_minus, g_minus)


class TestFlux:
    def test_isotropic_field_has_zero_flux(self):
        vals = np.ones((GRID.n_y, ANGLES.n_mu)) * 3.7
        G = RadiationField(GRID, ANGLES, vals, vals.copy())
        assert np.max(np.abs(flux(G))) < 1e-14

    def test_free_streaming_flux_is_pi(self):
        bc = (BoundaryProfile.constant(1.0), BoundaryProfile.zero())
        G = transport_solve(0.0, 1.0, bc, CONSTS, GRID, ANGLES)
        # J = 2*pi*int_0^1 mu dmu = pi at every depth
        np.testing.assert_allclose(flux(G), math.pi, rtol=1e-12)

    def test_angular_mean_of_isotropic_field(self):
        vals = np.full((GRID.n_y, ANGLES.n_mu), 0.5)
        G = RadiationField(GRID, ANGLES, vals, vals.copy())
        np.testing.assert_allclose(angular_mean(G), 4 * math.pi * 0.5, rtol=1e-12)


class TestKernelK:
    def test_value_against_psi_quadrature(self):
        # independent oracle: K(x) = (1/2) int tan(psi) exp(-x/cos(psi)) dpsi
        x, w = np.polynomial.legendre.leggauss(4000)
        psi = 0.25 * math.pi * (x + 1.0)
        wpsi = 0.25 * math.pi * w
        for xv in (0.1, 0.5, 1.0, 3.0):
            direct = 0.5 * np.sum(np.tan(psi) * np.exp(-xv / np.cos(psi)) * wpsi)
            assert fredholm_kernel_K(xv) == pytest.approx(direct, rel=1e-7)
        assert fredholm_kernel_K(1.0) == pytest.approx(0.1096920, abs=1e-7)

    def test_integral_over_line_is_one(self):
        # graded composite Gauss-Legendre toward the log singularity at 0
        edges = np.concatenate([[0.0], np.geomspace(1e-12, 40.0, 200)])
        x, w = np.polynomial.legendre.leggauss(16)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            nodes = 0.5 * (hi - lo) * (x + 1.0) + lo
            total += 0.5 * (hi - lo) * np.sum(w * fredholm_kernel_K(nodes))
        assert 2.0 * total == pytest.approx(1.0, abs=1e-8)

    def test_even_and_decreasing(self):
        rng = np.random.default_rng(31)
        xs = rng.uniform(0.01, 10.0, size=50)
        np.testing.assert_allclose(fredholm_kernel_K(xs), fredholm_kernel_K(-xs), rtol=1e-14)
        xs = np.sort(xs)
        assert np.all(np.diff(fredholm_kernel_K(xs)) < 0)

    def test_domain_error_at_zero(self):
        with pytest.raises(DomainError):
            fredholm_kernel_K(0.0)

    @pytest.mark.parametrize("L", [0.5, 1.0, 5.0, 20.0])
    def test_kernel_sup_below_one(self, L):
        sup = kernel_sup(L)
        assert 0 < sup < 1
        # row sums of the Nystroem matrix agree with the closed form
        y = np.linspace(0.0, L, 301)
        rows = _nystrom_matrix(y).sum(axis=1)
        assert np.max(rows) == pytest.approx(sup, rel=1e-10)

    @pytest.mark.parametrize("n_y", [257, 1025])
    def test_toeplitz_assembly_equals_dense_on_dyadic_grid(self, n_y):
        y = SlabGrid(L=1.0, n_y=n_y).y
        np.testing.assert_array_equal(_nystrom_matrix(y), dense_nystrom_matrix(y))
        for m0, m1 in ((_m0, _m1), (_p0, _p1)):
            for got, want in zip(_toeplitz_weights(y, m0, m1), dense_cell_weights(y, m0, m1)):
                np.testing.assert_array_equal(got, want)
        u = np.cos(3.0 * y)
        want_lo, want_hi = dense_cell_weights(y, _p0, _p1)
        flux_j = _e2_product_flux(u, y, np.sin(y), 0.7)
        np.testing.assert_array_equal(flux_j, np.sin(y) + 0.7 * (want_lo @ u[:-1] + want_hi @ u[1:]))

    def test_toeplitz_assembly_near_dense_off_dyadic_grid(self):
        # h = 3.7 / 299 is not a power of two: the offsets (i - j) * h and the
        # node differences y_i - y_j differ in the last bits
        y = SlabGrid(L=3.7, n_y=300).y
        want = dense_nystrom_matrix(y)
        assert np.max(np.abs(_nystrom_matrix(y) - want)) <= 1e-10 * np.max(np.abs(want))
        for m0, m1 in ((_m0, _m1), (_p0, _p1)):
            for got, dense in zip(_toeplitz_weights(y, m0, m1), dense_cell_weights(y, m0, m1)):
                assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_noncontraction_raises(self):
        with pytest.raises(NonContraction):
            _check_contraction(np.array([[0.6, 0.5], [0.1, 0.2]]))


class TestFredholmSolver:
    def test_zero_forcing(self):
        res = solve_lte_fredholm(BoundaryProfile.zero(), SlabGrid(1.0, 65), ANGLES, CONSTS)
        assert np.max(np.abs(res.theta)) == 0.0
        assert res.C0 == 0.0
        np.testing.assert_array_equal(res.zeta, 0.0)

    def test_cross_method_and_flux(self):
        grid = SlabGrid(L=1.0, n_y=257)
        angles = AngleGrid(n_mu=48)
        j0 = BoundaryProfile.from_function(lambda m: m, "cos")
        res = solve_lte_fredholm(j0, grid, angles, CONSTS, T0=1.0)
        assert res.kernel_sup < 1
        assert res.converged
        assert res.picard_gap < 1e-8
        assert res.residual_max < 1e-12
        # flux constancy at this resolution; the acceptance suite runs the
        # tight 1e-6 variant on the fine grid
        assert np.ptp(res.flux_j) < 5e-5
        assert res.i0 == pytest.approx(0.1949813959999073, rel=1e-8)
        assert res.theta[128] == pytest.approx(0.14183958615355557, rel=1e-8)

    def test_mass_closure(self):
        grid = SlabGrid(L=1.0, n_y=129)
        res = solve_lte_fredholm(
            BoundaryProfile.constant(0.3), grid, ANGLES, CONSTS, zeta_mass=0.7
        )
        got = float(np.trapezoid(res.zeta, grid.y))
        assert got == pytest.approx(0.7, abs=1e-8)
        np.testing.assert_allclose(res.zeta, res.C0 - res.theta, rtol=0, atol=1e-15)

    def test_theta_scales_inversely_with_alpha0_but_flux_does_not(self):
        grid = SlabGrid(L=1.0, n_y=65)
        j0 = BoundaryProfile.constant(0.2)
        r1 = solve_lte_fredholm(j0, grid, ANGLES, CONSTS, T0=1.0)
        r2 = solve_lte_fredholm(j0, grid, ANGLES, CONSTS, T0=5.0)
        np.testing.assert_allclose(
            r1.theta * r1.alpha0, r2.theta * r2.alpha0, rtol=1e-12
        )
        assert r1.i0 == pytest.approx(r2.i0, rel=1e-12)


class TestExpLimitSolver:
    def test_zero_boundary_gives_zero_solution(self):
        res = solve_exp_limit(BoundaryProfile.zero(), SlabGrid(1.0, 65), ANGLES)
        assert np.max(np.abs(res.w)) == 0.0
        assert res.j0 == 0.0
        assert np.max(np.abs(res.H.g_plus)) == 0.0

    def test_uniform_boundary_golden_fixture(self):
        grid = SlabGrid(L=1.0, n_y=257)
        angles = AngleGrid(n_mu=48)
        res = solve_exp_limit(BoundaryProfile.constant(1.0), grid, angles)
        assert np.all(res.w > 0)
        assert res.picard_ratio <= res.kernel_sup + 1e-3
        assert res.kernel_sup == pytest.approx(0.673356137675447, rel=1e-12)
        assert res.j0 == pytest.approx(0.2767038858786644, rel=1e-8)
        assert res.w[0] == pytest.approx(0.12066313960004207, rel=1e-8)
        assert res.w[128] == pytest.approx(0.07957747516393238, rel=1e-8)
        assert res.w[256] == pytest.approx(0.038491817388312095, rel=1e-8)

    def test_flux_y_independent(self):
        grid = SlabGrid(L=1.0, n_y=513)
        res = solve_exp_limit(BoundaryProfile.constant(1.0), grid, AngleGrid(48))
        assert np.ptp(res.flux_j) < 1e-6

    def test_energy_balance_residual_interior(self):
        grid = SlabGrid(L=1.0, n_y=257)
        res = solve_exp_limit(BoundaryProfile.constant(1.0), grid, AngleGrid(48))
        assert np.max(np.abs(res.energy_residual[1:-1])) < 5e-5

    def test_normalization_applied(self):
        grid = SlabGrid(L=1.0, n_y=65)
        r1 = solve_exp_limit(BoundaryProfile.constant(1.0), grid, ANGLES)
        r2 = solve_exp_limit(BoundaryProfile.constant(7.0), grid, ANGLES)
        np.testing.assert_allclose(r1.w, r2.w, rtol=1e-12)

    def test_nonpositive_w_guard(self):
        from radgas.slab import _ensure_positive

        y = np.linspace(0.0, 1.0, 5)
        _ensure_positive(np.zeros(5), y)  # identically zero is admissible
        _ensure_positive(np.full(5, 0.3), y)
        with pytest.raises(NonPositiveW):
            _ensure_positive(np.array([0.1, 0.2, -1e-9, 0.2, 0.1]), y)
        with pytest.raises(NonPositiveW):
            _ensure_positive(np.array([0.1, 0.0, 0.1, 0.2, 0.1]), y)
