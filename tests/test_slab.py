"""Slab transport, the E1 kernel, and the two stationary slab solvers."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import radgas.slab
from radgas import PhysConsts, NonContraction, NonPositiveW, pseudo_planck
from radgas.slab import (
    AngleGrid,
    BoundaryProfile,
    RadiationField,
    SlabGrid,
    angular_mean,
    angular_response,
    flux,
    kernel_sup,
    ray_integrate,
    solve_exp_limit,
    solve_lte_fredholm,
    transport_solve,
)
from radgas.slab import (
    _CellToeplitz,
    _check_contraction,
    _e2_product_flux,
    _expn,
    _FLUX_PARITY,
    _KERNEL_PARITY,
    _flux_moments,
    _kernel_moments,
    _leggauss,
    _linear_emission_integral,
    _nystrom_operator,
    _slab_fredholm,
    _slab_operators,
    _toeplitz_weights,
    _ToeplitzInverse,
)
from radgas.cli import main as cli_main
from radgas.picard import fixed_point
import oracles
from oracles import DomainError, fredholm_kernel_K
from radgas.three_level import ThreeLevelParams

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


#: (moments at |t|, their parities) of the Nystroem kernel K and of the E2 flux kernel
KERNEL = (_kernel_moments, _KERNEL_PARITY)
FLUX = (_flux_moments, _FLUX_PARITY)


def signed_moments(t, moments, parity):
    """The two antiderivatives at signed offsets t, from their values at |t|."""
    return [v * (np.sign(t) if p < 0 else 1.0) for p, v in zip(parity, moments(np.abs(t)))]


def dense_cell_weights(y, moments, parity):
    """The n^2 product-integration weights that the Toeplitz gather replaces.

    Every entry evaluates the moments at its own node differences y_i - y_j
    and divides by its own cell width.
    """
    delta = np.diff(y)
    X = y[:, None]
    b = X - y[None, :-1]
    a = X - y[None, 1:]
    (m0b, m1b), (m0a, m1a) = signed_moments(b, moments, parity), signed_moments(a, moments, parity)
    i0 = m0b - m0a
    i1 = b * i0 - (m1b - m1a)
    return i0 - i1 / delta[None, :], i1 / delta[None, :]


def dense_nystrom_matrix(y, kernel=KERNEL):
    lo, hi = dense_cell_weights(y, *kernel)
    A = np.zeros((len(y), len(y)))
    A[:, :-1] += lo
    A[:, 1:] += hi
    return A


def three_level_operator(grid):
    """alpha * M_src, the operator solve_three_level solves with, at its test
    parameters; alpha = kappa/(4 pi) to rounding."""
    kappa = ThreeLevelParams(0.7, 0.3, eps=1.0, T0=2.0, rho0=1.0, P12=1.0, P23=1.0).kappa
    M_src = angular_response(kappa, grid, AngleGrid(n_mu=32))
    alpha = kappa / (4.0 * math.pi)
    return _CellToeplitz(alpha * M_src.lo, alpha * M_src.hi)


def by_offset(cells):
    """The (n, n - 1) matrix of cell values held by offset: entry (i, j) is cells[i - j + n - 2]."""
    n = len(cells) // 2 + 1
    return cells[np.subtract.outer(np.arange(n), np.arange(n - 1)) + (n - 2)]


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


def two_loop_sweep(sigma_nodes, j, a_plus, a_minus, grid, angles):
    """ray_integrate as it was before the one-loop sweep: every cell's
    coefficients up front, then one loop per direction."""
    mu = angles.mu
    j = np.asarray(j, dtype=float)[:, None]
    sigma_c = (0.5 * (sigma_nodes[1:] + sigma_nodes[:-1]))[:, None]
    deltas = np.diff(grid.y)[:, None]
    att = np.exp(-sigma_c * deltas / mu)
    i0, i1 = radgas.slab._emission_moments(sigma_c, deltas, mu)
    s = (j[1:] - j[:-1]) / deltas
    e_plus = j[1:] * i0 - s * i1
    e_minus = j[:-1] * i0 + s * i1
    g_plus = np.empty((grid.n_y, angles.n_mu))
    g_plus[0] = a_plus(mu)
    for k in range(grid.n_y - 1):
        g_plus[k + 1] = g_plus[k] * att[k] + e_plus[k]
    g_minus = np.empty_like(g_plus)
    g_minus[-1] = a_minus(mu)
    for k in range(grid.n_y - 2, -1, -1):
        g_minus[k] = g_minus[k + 1] * att[k] + e_minus[k]
    return g_plus, g_minus


class TestAngleGrid:
    def test_weights_reproduce_unit_integral(self):
        a = AngleGrid(n_mu=24)
        assert np.all(a.mu > 0)
        assert np.all(a.mu <= 1)
        assert np.all(a.weights > 0)
        assert np.sum(a.weights) == pytest.approx(1.0, abs=1e-10)

    def test_rule_is_cached_and_bit_identical(self):
        a = AngleGrid(n_mu=40)
        x, w = np.polynomial.legendre.leggauss(40)
        np.testing.assert_array_equal(a.mu, 0.5 * (x + 1.0))
        np.testing.assert_array_equal(a.weights, 0.5 * w)
        misses = _leggauss.cache_info().misses
        mu = AngleGrid(n_mu=40).mu
        assert _leggauss.cache_info().misses == misses
        mu[0] = -1.0  # each access returns a fresh array
        assert a.mu[0] == 0.5 * (x[0] + 1.0)


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


class TestOneLoopSweep:
    """The sweep over distinct cells, both directions in one loop, against the two-loop sweep."""

    BC = (BoundaryProfile.from_function(lambda m: 1.0 + 0.5 * m, "linear"), BoundaryProfile.constant(0.2))

    def assert_matches_two_loops(self, sigma, emission, grid):
        field = ray_integrate(sigma, emission, *self.BC, grid, ANGLES)
        g_plus, g_minus = two_loop_sweep(sigma, emission, *self.BC, grid, ANGLES)
        assert field.g_plus.tobytes() == g_plus.tobytes()
        assert field.g_minus.tobytes() == g_minus.tobytes()
        assert field.g_plus.flags.c_contiguous and field.g_minus.flags.c_contiguous

    def test_transport_solve_with_varying_rho_and_t(self):
        grid = SlabGrid(L=2.0, n_y=129)
        y = grid.y
        rho, T = 1.0 + 0.3 * np.sin(3.0 * y), 0.8 + 0.5 * y
        field = transport_solve(rho, T, self.BC, CONSTS, grid, ANGLES)
        q = np.exp(-2.0 * CONSTS.epsilon0 / T)
        sigma, emission = CONSTS.epsilon0 * rho * (1.0 - q), CONSTS.epsilon0 * rho * q
        assert len(np.unique(0.5 * (sigma[1:] + sigma[:-1]))) == grid.n_y - 1
        g_plus, g_minus = two_loop_sweep(sigma, emission, *self.BC, grid, ANGLES)
        assert field.g_plus.tobytes() == g_plus.tobytes()
        assert field.g_minus.tobytes() == g_minus.tobytes()

    @pytest.mark.parametrize("sigma0", [1.0, 0.37])
    def test_spacings_that_differ_in_the_last_bit(self, sigma0):
        grid = SlabGrid(L=0.3, n_y=100)
        assert len(np.unique(np.diff(grid.y))) > 1
        self.assert_matches_two_loops(np.full(grid.n_y, sigma0), 0.3 + np.cos(3.0 * grid.y), grid)

    @pytest.mark.parametrize("n_y", [16, 65, 257])
    def test_uniform_and_nonuniform_sigma(self, n_y):
        grid = SlabGrid(L=1.0, n_y=n_y)
        rng = np.random.default_rng(n_y)
        sigma = rng.uniform(0.0, 3.0, size=n_y)
        sigma[:3] = 0.0  # a zero-absorption cell
        self.assert_matches_two_loops(sigma, rng.normal(size=n_y), grid)
        self.assert_matches_two_loops(np.ones(n_y), rng.normal(size=n_y), grid)


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
        rows, _ = _nystrom_operator(y).row_sums()
        assert np.max(rows) == pytest.approx(sup, rel=1e-10)

    @pytest.mark.parametrize("n_y", [257, 1025])
    def test_toeplitz_assembly_equals_dense_on_dyadic_grid(self, n_y):
        y = SlabGrid(L=1.0, n_y=n_y).y
        np.testing.assert_array_equal(oracles.dense(_nystrom_operator(y)), dense_nystrom_matrix(y))
        for kernel in (KERNEL, FLUX):
            for got, want in zip(_toeplitz_weights(y, *kernel), dense_cell_weights(y, *kernel)):
                np.testing.assert_array_equal(by_offset(got), want)

    def test_toeplitz_assembly_near_dense_off_dyadic_grid(self):
        # h = 3.7 / 299 is not a power of two: the offsets (i - j) * h and the
        # node differences y_i - y_j differ in the last bits
        y = SlabGrid(L=3.7, n_y=300).y
        want = dense_nystrom_matrix(y)
        assert np.max(np.abs(oracles.dense(_nystrom_operator(y)) - want)) <= 1e-10 * np.max(np.abs(want))
        for kernel in (KERNEL, FLUX):
            for got, dense in zip(_toeplitz_weights(y, *kernel), dense_cell_weights(y, *kernel)):
                assert np.max(np.abs(by_offset(got) - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_noncontraction_raises(self):
        # the two-node matrix [[0.6, 0.5], [0.1, 0.2]], row sums 1.1 and 0.3
        A = _CellToeplitz(np.array([0.6, 0.1]), np.array([0.5, 0.2]))
        np.testing.assert_array_equal(oracles.dense(A), [[0.6, 0.5], [0.1, 0.2]])
        with pytest.raises(NonContraction, match="of A"):
            _check_contraction(A)

    def test_noncontraction_when_only_toeplitz_rows_reach_one(self):
        # at slab_l 1, n_y 257 the row sums are 0.67336 (A) and 0.67445 (T);
        # scaled by 1/0.674 the rows of A stay below 1 and those of T do not
        A = _nystrom_operator(SlabGrid(L=1.0, n_y=257).y)
        a_rows, t_rows = A.row_sums()
        assert np.max(a_rows) == pytest.approx(0.67336, abs=1e-5)
        assert np.max(t_rows) == pytest.approx(0.67445, abs=1e-5)
        scaled = _CellToeplitz(A.lo / 0.674, A.hi / 0.674)
        assert np.max(scaled.row_sums()[0]) < 1.0
        with pytest.raises(NonContraction, match="of T"):
            _check_contraction(scaled)
        assert _check_contraction(_CellToeplitz(A.lo / 0.6746, A.hi / 0.6746)) < 1.0


class TestCellToeplitz:
    """FFT products and the Levinson solve against the dense matrices they replace."""

    @pytest.mark.parametrize("L, n_y", [(1.0, 257), (2.0, 513), (1.0, 1025)])
    def test_apply_and_e2_flux_match_dense_on_dyadic_grid(self, L, n_y):
        y = SlabGrid(L=L, n_y=n_y).y
        u = np.cos(3.0 * y) + np.random.default_rng(n_y).normal(size=n_y)
        want = dense_nystrom_matrix(y) @ u
        got = _nystrom_operator(y).apply(u)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        inner = dense_nystrom_matrix(y, FLUX) @ u
        flux_j = _e2_product_flux(u, SlabGrid(L=L, n_y=n_y), np.sin(y), 0.7)
        assert np.max(np.abs(flux_j - (np.sin(y) + 0.7 * inner))) <= 1e-13 * np.max(np.abs(inner))

    def test_apply_matches_own_dense_off_dyadic_grid(self):
        # off a dyadic h the dense oracle differs from the offset weights by
        # 1e-14 per entry, so the products are checked against dense() here
        y = SlabGrid(L=3.7, n_y=300).y
        u = np.random.default_rng(300).normal(size=300)
        for A in (_nystrom_operator(y), _CellToeplitz(*_toeplitz_weights(y, *FLUX))):
            want = oracles.dense(A) @ u
            assert np.max(np.abs(A.apply(u) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_y", [257, 2049])
    def test_solve_shifted_matches_dense_solve(self, n_y):
        y = SlabGrid(L=1.0, n_y=n_y).y
        g = np.exp(-y) + np.random.default_rng(n_y).uniform(size=n_y)
        want = np.linalg.solve(np.eye(n_y) - dense_nystrom_matrix(y), g)
        got = _nystrom_operator(y).solve_shifted(g)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "operator, L, n_y",
        [("K", 1.0, 257), ("K", 1.0, 1025), ("K", 3.7, 300), ("three-level", 1.0, 65), ("three-level", 1.0, 1025)],
        ids=["K-257", "K-1025", "K-off-dyadic-300", "three-level-65", "three-level-1025"],
    )
    def test_solve_shifted_matches_own_dense_solve(self, operator, L, n_y):
        grid = SlabGrid(L=L, n_y=n_y)
        A = _nystrom_operator(grid.y) if operator == "K" else three_level_operator(grid)
        g = np.cos(2.0 * grid.y) + np.random.default_rng(n_y).uniform(size=n_y)
        want = np.linalg.solve(np.eye(n_y) - oracles.dense(A), g)
        assert np.max(np.abs(A.solve_shifted(g) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_refine_reports_the_direct_residual_and_nears_the_dense_solve(self):
        # kappa 50, n_y 2049: I - A is nearly singular and the Levinson source
        # is 4.8e-13 from a dense LU, against 1.4e-13 after one step
        p = ThreeLevelParams(1.0, 0.0, eps=5.0, T0=2.0, rho0=10.0, P12=10.0, P23=1.0)
        grid = SlabGrid(L=1.0, n_y=2049)
        M_src = angular_response(p.kappa, grid, AngleGrid(n_mu=48))
        alpha = p.kappa / (4.0 * math.pi)
        A = _CellToeplitz(alpha * M_src.lo, alpha * M_src.hi)
        g = np.cos(2.0 * grid.y) + np.random.default_rng(2049).uniform(size=grid.n_y)
        want = np.linalg.solve(np.eye(grid.n_y) - oracles.dense(A), g)
        s = A.solve_shifted(g)
        u, residual = A.refine(g, s)
        assert residual == np.max(np.abs(g - (s - A.apply(s))))
        err = lambda x: np.max(np.abs(x - want)) / np.max(np.abs(want))  # noqa: E731
        assert err(u) < 0.5 * err(s) and err(u) < 3e-13

    @pytest.mark.parametrize("n_y", [65, 257, 1025, 4097])
    def test_nystrom_toeplitz_is_bit_symmetric_on_dyadic_grids(self, n_y):
        # solve_shifted solves with the first column of I - T alone
        t = _nystrom_operator(SlabGrid(L=1.0, n_y=n_y).y).t
        np.testing.assert_array_equal(t, t[::-1])

    @pytest.mark.parametrize("L, n_y", [(3.7, 300), (0.3, 1000), (2.3, 200)])
    def test_nystrom_toeplitz_is_symmetric_to_rounding_off_dyadic_grids(self, L, n_y):
        t = _nystrom_operator(SlabGrid(L=L, n_y=n_y).y).t
        assert np.max(np.abs(t - t[::-1])) <= 1e-15

    @pytest.mark.parametrize("L, n_y", [(1.0, 65), (3.7, 300), (2.3, 200), (1.0, 1025)])
    def test_angular_response_toeplitz_is_bit_symmetric(self, L, n_y):
        t = three_level_operator(SlabGrid(L=L, n_y=n_y)).t
        np.testing.assert_array_equal(t, t[::-1])

    def test_slab_solve_memory_is_linear_in_n(self):
        # the dense matrix, its gathers and its LU would take over 400 MB here
        grid, angles = SlabGrid(L=1.0, n_y=4097), AngleGrid(n_mu=48)
        # a small solve first, so that lazy imports are not counted
        _slab_fredholm(BoundaryProfile.constant(1.0), 1.0, SlabGrid(L=1.0, n_y=33), angles)
        tracemalloc.start()
        try:
            _slab_fredholm(BoundaryProfile.constant(1.0), 1.0, grid, angles)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def batched_solve_shifted(A, g):
    """solve_shifted as it was before the factor was cached: one Levinson
    recursion per call and g solved in one batch with the boundary columns."""
    n = A.n
    shifted = -A.t[n - 1:]
    shifted[0] += 1.0
    z = _ToeplitzInverse(shifted)(np.column_stack([g, A.c0, A.c1]))
    zg, zu = z[:, 0], z[:, 1:]
    ends = [0, n - 1]
    return zg - zu @ np.linalg.solve(np.eye(2) + zu[ends], zg[ends])


#: The two slab models on one grid, with a second incoming profile for each.
SLAB_SOLVES = {
    "lte": lambda grid, c: solve_lte_fredholm(
        BoundaryProfile.from_function(lambda m: c + m, "affine"), grid, AngleGrid(n_mu=48), CONSTS, T0=1.3, zeta_mass=0.2
    ),
    "exp": lambda grid, c: solve_exp_limit(BoundaryProfile.from_function(lambda m: c + m * m, "quadratic"), grid, AngleGrid(n_mu=48)),
}


def result_bytes(res) -> dict:
    """Every field of a slab result as bytes; a radiation field by its two arrays."""
    out = {}
    for name, value in vars(res).items():
        if isinstance(value, RadiationField):
            out[name] = value.g_plus.tobytes() + value.g_minus.tobytes()
        elif name != "grid":
            out[name] = np.asarray(value).tobytes()
    return out


class TestGridCache:
    """The operators and the factor built once per grid, against solves that build their own."""

    @pytest.mark.parametrize("L, n_y", [(1.0, 257), (1.0, 1025), (0.3, 100)], ids=["257", "1025", "l0.3-100"])
    @pytest.mark.parametrize("model", list(SLAB_SOLVES))
    def test_warm_solve_equals_cold_solve_bit_for_bit(self, model, L, n_y):
        grid, solve = SlabGrid(L=L, n_y=n_y), SLAB_SOLVES[model]
        _slab_operators.cache_clear()
        solve(grid, 0.7)  # builds the grid's operators and A's factor
        hits = _slab_operators.cache_info().hits
        warm = solve(grid, 0.2)
        assert _slab_operators.cache_info().hits > hits
        _slab_operators.cache_clear()
        cold = solve(grid, 0.2)
        assert result_bytes(warm) == result_bytes(cold)

    @pytest.mark.parametrize("operator, L, n_y", [("K", 1.0, 65), ("K", 1.0, 4097), ("K", 0.3, 100), ("three-level", 1.0, 1025)])
    def test_solve_shifted_equals_the_batched_solve_bit_for_bit(self, operator, L, n_y):
        grid = SlabGrid(L=L, n_y=n_y)
        A = _nystrom_operator(grid.y) if operator == "K" else three_level_operator(grid)
        rng = np.random.default_rng(n_y)
        for g in (np.exp(-grid.y), rng.normal(size=n_y)):
            assert A.solve_shifted(g).tobytes() == batched_solve_shifted(A, g).tobytes()

    def test_cached_arrays_are_read_only(self):
        grid = SlabGrid(L=1.0, n_y=65)
        A, _, flux_operator = _slab_operators(grid)
        A.solve_shifted(np.ones(65))
        flux_operator.apply(np.ones(65))
        inverse, zu, woodbury = A._factor
        arrays = [inverse.f, inverse.spectra, zu, woodbury]
        for op in (A, flux_operator):
            arrays += [op.lo, op.hi, op.t, op.c0, op.c1, op._spectrum[1]]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0
        assert _slab_operators(grid)[0] is A

    @pytest.mark.parametrize("model", list(SLAB_SOLVES))
    def test_thick_slab_raises_on_every_solve(self, model):
        # slab_l 60: the escape falls below the rounding of the FFT row sums
        grid = SlabGrid(L=60.0, n_y=257)
        _slab_operators.cache_clear()
        for _ in range(2):
            with pytest.raises(NonContraction, match="kernel row sum"):
                SLAB_SOLVES[model](grid, 0.5)
        assert _slab_operators.cache_info().currsize == 0

    def test_cache_stays_at_its_bound(self):
        _slab_operators.cache_clear()
        for k in range(radgas.slab._GRID_CACHE_SIZE + 2):
            SLAB_SOLVES["exp"](SlabGrid(L=1.0, n_y=33 + k), 0.5)
        assert _slab_operators.cache_info().currsize == radgas.slab._GRID_CACHE_SIZE

    def test_one_levinson_recursion_per_grid_over_mixed_jobs(self, tmp_path, monkeypatch):
        calls = []
        levinson = radgas.slab._levinson
        monkeypatch.setattr(radgas.slab, "_levinson", lambda c: calls.append(len(c)) or levinson(c))
        _slab_operators.cache_clear()
        jobs = [
            ["slab-lte", "--n-y", "257", "--j0-profile", "cos"],
            ["slab-exp", "--n-y", "257"],
            ["slab-lte", "--n-y", "129", "--t0", "0.7", "--zeta-mass", "0.3"],
            ["slab-lte", "--n-y", "257", "--j0-profile", "uniform"],
            ["slab-exp", "--n-y", "129", "--a-plus-profile", "0.4"],
            ["slab-lte", "--slab-l", "0.3", "--n-y", "100"],
            ["slab-exp", "--slab-l", "0.3", "--n-y", "100"],
        ]
        for k, argv in enumerate(jobs):
            assert cli_main([*argv, "--out", str(tmp_path / str(k))]) == 0
        assert sorted(calls) == [100, 129, 257]


class TestScipyOracles:
    """The numpy routines of the slab solve against the scipy routines they replace."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_expn_matches_scipy(self, n):
        x = np.concatenate([[0.0], np.logspace(-12, 2.85, 4001)])
        want = scipy.special.exp1(x) if n == 1 else scipy.special.expn(n, x)
        got = _expn(n, x)
        assert got[0] == want[0]  # inf for n = 1, else 1/(n - 1)
        assert np.max(np.abs(got[1:] - want[1:]) / want[1:]) <= 5e-14

    def test_expn_keeps_the_shape(self):
        assert _expn(1, 0.5).shape == ()
        x = np.array([[0.0, 0.5], [1.0, 3.0]])
        np.testing.assert_array_equal(_expn(4, x), [[_expn(4, v) for v in row] for row in x])

    @staticmethod
    def toeplitz_case(n):
        """(c, b): a diagonally dominant symmetric Toeplitz matrix, so positive
        definite, by its first column, and three right-hand sides."""
        rng = np.random.default_rng([n, 1])
        c = 0.6 ** np.arange(n) * rng.uniform(-1.0, 1.0, n)
        c[0] = 3.0
        return c, rng.normal(size=(n, 3))

    @pytest.mark.parametrize("n", [1, 2, 257, 1025])
    def test_toeplitz_solve_matches_scipy_and_dense(self, n):
        c, b = self.toeplitz_case(n)
        got = _ToeplitzInverse(c)(b)
        for want in (scipy.linalg.solve_toeplitz(c, b), np.linalg.solve(scipy.linalg.toeplitz(c), b)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        one = _ToeplitzInverse(c)(b[:, 1])
        assert one.shape == (n,)
        assert np.max(np.abs(one - got[:, 1])) <= 1e-14 * np.max(np.abs(got[:, 1]))


@pytest.mark.parametrize("n_y", [257, 1025])
@pytest.mark.parametrize(
    "solve",
    [
        lambda grid, angles: solve_lte_fredholm(BoundaryProfile.from_function(lambda m: m, "cos"), grid, angles, CONSTS),
        lambda grid, angles: solve_exp_limit(BoundaryProfile.constant(1.0 / (2.0 * math.pi)), grid, angles),
    ],
    ids=["lte", "exp"],
)
def test_picard_cross_check_in_few_sweeps(monkeypatch, solve, n_y):
    runs = []

    def recorded(*args, **kwargs):
        runs.append(fixed_point(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(radgas.slab, "fixed_point", recorded)
    res = solve(SlabGrid(L=1.0, n_y=n_y), AngleGrid(n_mu=48))
    assert res.converged and res.picard_gap < 1e-8
    assert len(runs) == 1 and len(runs[0].diffs) <= 20


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
        assert res.picard_ratio < 1
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
        assert res.picard_ratio == pytest.approx(0.673356137675447, rel=1e-12)
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
