"""Three-level linearized stationary solver: background, radiation, coupling."""

import math
import tracemalloc

import numpy as np
import pytest

import radgas.slab
import radgas.three_level
from radgas import SingularDenominator, SingularSystem
from radgas.picard import fixed_point
from radgas.slab import AngleGrid, BoundaryProfile, SlabGrid, angular_mean, angular_response, ray_integrate
from radgas.three_level import (
    ThreeLevelParams,
    constant_state,
    lte_deviation,
    non_lte_curvature,
    radiation_solve_3p,
    solve_three_level,
)
from oracles import dense

PARAMS = ThreeLevelParams(gamma1=0.7, gamma2=0.3, eps=1.0, T0=2.0, rho0=1.0, P12=1.0, P23=1.0)
GRID = SlabGrid(L=1.0, n_y=65)
ANGLES = AngleGrid(n_mu=32)
ZERO_BC = (BoundaryProfile.zero(), BoundaryProfile.zero())
DRIVE_BC = (BoundaryProfile.constant(0.1), BoundaryProfile.zero())


class TestParams:
    def test_gamma_sum_enforced(self):
        with pytest.raises(ValueError):
            ThreeLevelParams(0.6, 0.3, 1.0, 2.0, 1.0, 1.0, 1.0)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            ThreeLevelParams(0.7, 0.3, -1.0, 2.0, 1.0, 1.0, 1.0)


class TestConstantState:
    def test_boltzmann_suppression(self):
        p = ThreeLevelParams(0.7, 0.3, eps=50.0, T0=1.0, rho0=1.0, P12=1.0, P23=1.0)
        bg = constant_state(p)
        assert bg["rho2"] < 1e-40
        assert bg["rho3"] < 1e-80

    def test_half_quarter_ratios(self):
        T0 = 2.0 / math.log(2.0)
        p = ThreeLevelParams(0.5, 0.5, eps=1.0, T0=T0, rho0=1.0, P12=1.0, P23=1.0)
        bg = constant_state(p)
        assert bg["rho2"] == pytest.approx(0.5, rel=1e-13)
        assert bg["rho3"] == pytest.approx(0.25, rel=1e-13)

    def test_background_radiative_balance(self):
        bg = constant_state(PARAMS)
        gp = bg["G_p"]
        bal = PARAMS.gamma1 * (bg["rho2"] * (1 + gp) - bg["rho1"] * gp) + PARAMS.gamma2 * (
            bg["rho3"] * (1 + gp) - bg["rho2"] * gp
        )
        assert abs(bal) < 1e-14


class TestRadiationSolve:
    def test_zero_sources_zero_boundary(self):
        h = radiation_solve_3p(0.0, 0.0, 0.0, PARAMS, ZERO_BC, GRID, ANGLES)
        assert np.max(np.abs(h.g_plus)) == 0.0
        assert np.max(np.abs(h.g_minus)) == 0.0

    def test_thick_slab_constant_limit(self):
        # sigma2-sigma1 = sigma3-sigma2 = c: deep inside h -> c/(1-q)
        c = 0.05
        p = ThreeLevelParams(0.7, 0.3, eps=1.0, T0=2.0, rho0=40.0, P12=1.0, P23=1.0)
        q = p.q
        kappa = p.eps * p.rho0 * (p.gamma1 + p.gamma2 * q) * (1.0 - q)
        grid = SlabGrid(L=1.0, n_y=257)
        assert kappa * grid.L > 20  # optically thick slab
        h = radiation_solve_3p(0.0, c, 2 * c, p, ZERO_BC, grid, ANGLES)
        mid = grid.n_y // 2
        expect = c / (1.0 - q)
        assert h.g_plus[mid, 0] == pytest.approx(expect, rel=0.01)
        assert h.g_minus[mid, -1] == pytest.approx(expect, rel=0.01)

    def test_linearity_in_sources(self):
        rng = np.random.default_rng(5)
        s = rng.normal(size=(3, GRID.n_y))
        t = rng.normal(size=(3, GRID.n_y))
        a, b = 1.7, -0.6
        ha = radiation_solve_3p(*s, PARAMS, ZERO_BC, GRID, ANGLES)
        hb = radiation_solve_3p(*t, PARAMS, ZERO_BC, GRID, ANGLES)
        hc = radiation_solve_3p(*(a * s + b * t), PARAMS, ZERO_BC, GRID, ANGLES)
        np.testing.assert_allclose(
            hc.g_plus, a * ha.g_plus + b * hb.g_plus, rtol=0, atol=1e-12
        )


def per_column_response(params, grid, angles):
    """M_src column by column: the angular mean of one unit-source sweep each."""
    kappa = np.full(grid.n_y, params.kappa)
    zero = BoundaryProfile.zero()
    columns = [ray_integrate(kappa, e, zero, zero, grid, angles) for e in np.eye(grid.n_y)]
    return np.column_stack([angular_mean(field) for field in columns])


def kron_assembly(xi, boundary, params, grid, angles, C0):
    """The 3n x 3n system on (sigma1, sigma2, sigma3) that the n x n source
    solve replaces: eq1, eq2, eq3 at each node, coupled through M_src."""
    q, g1, g2, n = params.q, params.gamma1, params.gamma2, grid.n_y
    local = radgas.three_level._node_matrix(params, constant_state(params)["G_p"])
    kappa = np.full(n, params.kappa)
    b_I = angular_mean(ray_integrate(kappa, np.zeros(n), *boundary, grid, angles))
    c_src = params.eps * params.rho0 * np.array([-g1, g1 - g2 * q, g2 * q])
    rad = q * (g1 + g2 * q)
    A = np.kron(local, np.eye(n))
    A[:n] -= np.kron(rad * c_src, per_column_response(params, grid, angles))
    rhs = np.concatenate([
        rad * b_I,
        C0 - (1.0 + q + q**2) * xi,
        (2.0 * params.eps / params.T0) * (params.P12 + params.P23 * q**2) * xi,
    ])
    return np.linalg.solve(A, rhs).reshape(3, n)


def dense_source_solve(xi, boundary, params, grid, angles, C0):
    """The former direct path, kept as the oracle: M_src gathered by `dense()`,
    one dense LU of I - alpha*M_src and dense products; (src, sigma)."""
    q, g1, g2, n = params.q, params.gamma1, params.gamma2, grid.n_y
    local = radgas.three_level._node_matrix(params, constant_state(params)["G_p"])
    M_src = dense(angular_response(params.kappa, grid, angles))
    b_I = angular_mean(ray_integrate(np.full(n, params.kappa), np.zeros(n), *boundary, grid, angles))
    c_src = params.eps * params.rho0 * np.array([-g1, g1 - g2 * q, g2 * q])
    rad = q * (g1 + g2 * q)
    eq23 = np.vstack([
        C0 - (1.0 + q + q**2) * xi,
        (2.0 * params.eps / params.T0) * (params.P12 + params.P23 * q**2) * xi,
    ])
    alpha = rad * (c_src @ np.linalg.solve(local, [1.0, 0.0, 0.0]))
    rhs = alpha * b_I + c_src @ np.linalg.solve(local, np.vstack([np.zeros(n), eq23]))
    shifted = -alpha * M_src  # I - alpha*M_src, built in place to hold two n x n arrays, not four
    shifted[np.diag_indices(n)] += 1.0
    src = np.linalg.solve(shifted, rhs)
    del shifted
    sigma = np.linalg.solve(local, np.vstack([rad * (M_src @ src + b_I), eq23]))
    return src, sigma


def density_loop(xi, boundary, params, grid, angles, C0, tol=1e-12, max_iter=2000):
    """The former Picard check, kept as the oracle: sigma -> h -> sigma on the
    three density fields, mixed as one flat 3n vector.  Returns the loop's
    FixedPoint and the map from a source s to the (3, n) densities."""
    q, g1, g2, n = params.q, params.gamma1, params.gamma2, grid.n_y
    local = radgas.three_level._node_matrix(params, constant_state(params)["G_p"])
    M_src = angular_response(params.kappa, grid, angles)
    b_I = angular_mean(ray_integrate(np.full(n, params.kappa), np.zeros(n), *boundary, grid, angles))
    c_src = params.eps * params.rho0 * np.array([-g1, g1 - g2 * q, g2 * q])
    rad = q * (g1 + g2 * q)
    eq23 = np.vstack([
        C0 - (1.0 + q + q**2) * xi,
        (2.0 * params.eps / params.T0) * (params.P12 + params.P23 * q**2) * xi,
    ])

    def sigma_of(src):
        return np.linalg.solve(local, np.vstack([rad * (M_src.apply(src) + b_I), eq23]))

    step = lambda flat: sigma_of(c_src @ flat.reshape(3, n)).ravel()
    b = step(np.zeros(3 * n))
    return fixed_point(lambda flat: step(flat) - b, b, tol, max_iter), sigma_of


#: (params, relative tolerance on src and sigma): the defaults (kappa 0.51) and
#: two optically thick corners, kappa 50 and 256, where I - alpha*M_src is
#: nearly singular and the two solves round differently
CORNERS = {
    "default": (PARAMS, 1e-13),
    "kappa50": (ThreeLevelParams(1.0, 0.0, eps=5.0, T0=2.0, rho0=10.0, P12=10.0, P23=1.0), 1e-11),
    "kappa256": (ThreeLevelParams(0.7, 0.3, eps=5.0, T0=10.0, rho0=100.0, P12=1.0, P23=1.0), 1e-10),
}


class TestStructuredSolve:
    """The Levinson source solve and FFT products against the dense LU they replace."""

    @pytest.mark.parametrize("corner", list(CORNERS))
    @pytest.mark.parametrize("n_y", [65, 1025, 4097])
    def test_matches_dense_lu(self, monkeypatch, corner, n_y):
        params, rtol = CORNERS[corner]
        grid = SlabGrid(L=1.0, n_y=n_y)
        xi = 0.03 * np.sin(np.pi * grid.y)

        # max_iter=1: sigma comes from the direct solve alone, the Picard check is not needed here
        def capped(apply, b, tol, max_iter):
            return fixed_point(apply, b, tol, max_iter=1)

        monkeypatch.setattr(radgas.slab, "fixed_point", capped)
        sol = solve_three_level(xi, DRIVE_BC, params, grid, ANGLES, mass_C0=0.0)
        src, sigma = dense_source_solve(xi, DRIVE_BC, params, grid, ANGLES, sol.C0)
        got = np.vstack([sol.sigma1, sol.sigma2, sol.sigma3])
        q, g1, g2 = params.q, params.gamma1, params.gamma2
        c_src = params.eps * params.rho0 * np.array([-g1, g1 - g2 * q, g2 * q])
        assert np.max(np.abs(c_src @ got - src)) <= rtol * np.max(np.abs(src))
        assert np.max(np.abs(got - sigma)) <= rtol * np.max(np.abs(sigma))

    def test_memory_is_linear_in_n(self):
        # M_src gathered dense and the LU of I - alpha*M_src would take over 400 MB here
        grid = SlabGrid(L=1.0, n_y=4097)
        # a small solve first, so that lazy imports are not counted
        solve_three_level(0.0, DRIVE_BC, PARAMS, GRID, ANGLES)
        tracemalloc.start()
        try:
            sol = solve_three_level(0.0, DRIVE_BC, PARAMS, grid, ANGLES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak < 16 * 2**20

    def test_thick_corner_memory_bounded(self):
        # kappa 256 takes about 270 GMRES products, so the basis is most of the peak
        grid = SlabGrid(L=1.0, n_y=4097)
        params, _ = CORNERS["kappa256"]
        solve_three_level(0.0, DRIVE_BC, params, GRID, ANGLES)
        tracemalloc.start()
        try:
            sol = solve_three_level(0.0, DRIVE_BC, params, grid, ANGLES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert sol.picard_iterations > 100
        assert peak <= 16 * 2**20


class TestSourceLoop:
    """The Picard check on the source s against the density loop it replaces."""

    @pytest.mark.parametrize(("corner", "n_y"), [("default", 65), ("default", 1025), ("kappa50", 65)])
    def test_matches_density_loop(self, monkeypatch, corner, n_y):
        params, _ = CORNERS[corner]
        grid = SlabGrid(L=1.0, n_y=n_y)
        xi = 0.03 * np.sin(np.pi * grid.y)
        loops = []

        def recorded(*args, **kwargs):
            loops.append(fixed_point(*args, **kwargs))
            return loops[-1]

        monkeypatch.setattr(radgas.slab, "fixed_point", recorded)
        sol = solve_three_level(xi, DRIVE_BC, params, grid, ANGLES, mass_C0=0.0)
        old, sigma_of = density_loop(xi, DRIVE_BC, params, grid, ANGLES, sol.C0)
        assert sol.converged == old.converged
        if corner == "default":
            want = old.x.reshape(3, n_y)
            assert np.max(np.abs(sigma_of(loops[0].x) - want)) <= 1e-10 * np.max(np.abs(want))
            assert sol.picard_iterations <= len(old.diffs)


class TestDirectPath:
    @pytest.mark.parametrize("rho0", [1e-4, 1.0, 40.0])  # optically thin, unit, thick
    @pytest.mark.parametrize("n_y", [33, 129])
    def test_response_matches_per_column_sweeps(self, rho0, n_y):
        p = ThreeLevelParams(0.7, 0.3, eps=1.0, T0=2.0, rho0=rho0, P12=1.0, P23=1.0)
        grid = SlabGrid(L=1.0, n_y=n_y)
        M_src = angular_response(p.kappa, grid, ANGLES)
        want = per_column_response(p, grid, ANGLES)
        np.testing.assert_allclose(dense(M_src), want, rtol=0, atol=1e-14)
        e = np.random.default_rng(n_y).normal(size=n_y)
        np.testing.assert_allclose(M_src.apply(e), want @ e, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mass_C0", [0.0, "from-mass"])
    def test_matches_kron_assembly(self, mass_C0):
        xi = 0.03 * np.sin(np.pi * GRID.y) if mass_C0 == "from-mass" else np.zeros(GRID.n_y)
        sol = solve_three_level(xi, DRIVE_BC, PARAMS, GRID, ANGLES, mass_C0=mass_C0, m0=1.9)
        want = kron_assembly(xi, DRIVE_BC, PARAMS, GRID, ANGLES, sol.C0)
        got = np.vstack([sol.sigma1, sol.sigma2, sol.sigma3])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSolveThreeLevel:
    def test_zero_inputs_give_background(self):
        sol = solve_three_level(0.0, ZERO_BC, PARAMS, GRID, ANGLES, mass_C0=0.0)
        assert np.max(np.abs(sol.sigma1)) == 0.0
        assert np.max(np.abs(sol.sigma2)) == 0.0
        assert np.max(np.abs(sol.sigma3)) == 0.0
        assert np.max(np.abs(sol.h.g_plus)) == 0.0

    @pytest.mark.parametrize("n_y", [65, 129, 1025])
    def test_picard_cross_check_in_few_sweeps(self, n_y):
        sol = solve_three_level(0.0, DRIVE_BC, PARAMS, SlabGrid(L=1.0, n_y=n_y), ANGLES, mass_C0=0.0)
        assert sol.converged
        assert sol.path_gap < 1e-8
        assert sol.picard_iterations <= 16

    def test_generic_golden_run(self):
        sol = solve_three_level(0.0, DRIVE_BC, PARAMS, GRID, ANGLES, mass_C0=0.0)
        assert sol.converged
        assert sol.path_gap < 1e-8
        assert sol.eq1_residual < 1e-10
        assert sol.eq2_residual < 1e-10
        assert sol.eq3_residual < 1e-10
        # pinned on first run (L = 1, n_y = 65, n_mu = 32)
        assert sol.sigma1[32] == pytest.approx(-0.0732949043494596, rel=1e-9)
        assert sol.sigma2[32] == pytest.approx(-0.2950767985710728, rel=1e-9)
        assert sol.sigma3[32] == pytest.approx(1.3436820595595302, rel=1e-9)
        dev, where = lte_deviation(sol)
        assert dev == pytest.approx(2.2603879091357846, rel=1e-9)
        assert dev > 10 * 1e-8  # genuinely non-LTE

    def test_joint_linearity_in_boundary_and_xi(self):
        xi = 0.03 * np.sin(np.pi * GRID.y)
        sol1 = solve_three_level(xi, DRIVE_BC, PARAMS, GRID, ANGLES, mass_C0=0.0)
        bc2 = (BoundaryProfile.constant(0.2), BoundaryProfile.zero())
        sol2 = solve_three_level(2 * xi, bc2, PARAMS, GRID, ANGLES, mass_C0=0.0)
        np.testing.assert_allclose(sol2.sigma1, 2 * sol1.sigma1, rtol=0, atol=1e-10)
        np.testing.assert_allclose(sol2.sigma3, 2 * sol1.sigma3, rtol=0, atol=1e-10)

    def test_from_mass_constant(self):
        xi = np.full(GRID.n_y, 0.2)
        sol = solve_three_level(xi, ZERO_BC, PARAMS, GRID, ANGLES, mass_C0="from-mass")
        q = PARAMS.q
        assert sol.C0 == pytest.approx((1 + q + q**2) * 0.2, rel=1e-12)

    def test_singular_node_matrix_detected(self):
        p = ThreeLevelParams(0.5, 0.5, eps=1.0, T0=2.0, rho0=1.0, P12=PARAMS.q, P23=1.0)
        with pytest.raises(SingularSystem):
            solve_three_level(0.0, DRIVE_BC, p, GRID, ANGLES)

    @pytest.mark.parametrize(
        "params, error, message",
        [
            (dict(T0=1e300), SingularDenominator, "coupling G_p = inf"),
            (dict(eps=1e-300), SingularDenominator, "coupling G_p = inf"),
            # a kappa whose square overflows is refused when the parameters are built
            (dict(eps=1e300, rho0=1e300), ValueError, "kappa must have a finite square, got inf"),
            (dict(rho0=1e300), ValueError, "kappa must have a finite square, got 5.1"),
        ],
        ids=["t0-huge", "eps-tiny", "kappa-overflows", "kappa-square-overflows"],
    )
    def test_non_finite_coupling_is_a_singular_denominator(self, recwarn, params, error, message):
        with pytest.raises(error, match=message):
            p = ThreeLevelParams(**{**vars(PARAMS), **params})
            solve_three_level(0.0, DRIVE_BC, p, GRID, ANGLES)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_gamma2_zero_recovers_lte_ratio(self):
        # with the second line off, the radiative subsystem fixes D = s2 - s1
        # independently of xi; the LTE-consistent temperature field is then
        # xi* = (T0/2eps) * D, and re-solving with it puts every level in the
        # linearized Boltzmann ratio
        p = ThreeLevelParams(1.0, 0.0, eps=1.0, T0=2.0, rho0=1.0, P12=1.0, P23=1.0)
        first = solve_three_level(0.0, DRIVE_BC, p, GRID, ANGLES)
        xi_star = p.T0 / (2 * p.eps) * (first.sigma2 - first.sigma1)
        sol = solve_three_level(xi_star, DRIVE_BC, p, GRID, ANGLES)
        beta = 2 * p.eps / p.T0 * xi_star
        assert np.max(np.abs(sol.sigma2 - sol.sigma1 - beta)) < 1e-6
        assert np.max(np.abs(sol.sigma3 - sol.sigma2 - beta)) < 1e-6


class TestLteDeviation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sigma_is_nan(self, recwarn, bad):
        sol = solve_three_level(0.0, DRIVE_BC, PARAMS, GRID, ANGLES)
        sol.sigma2 = sol.sigma2.copy()
        sol.sigma2[7] = bad
        dev, where = lte_deviation(sol)
        assert math.isnan(dev)
        assert where == {"pair": None, "node": None, "y": None}
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_zero_solution(self):
        sol = solve_three_level(0.0, ZERO_BC, PARAMS, GRID, ANGLES)
        dev, _ = lte_deviation(sol)
        assert dev == 0.0

    def test_lte_at_xi_reports_zero(self):
        # the gamma2 = 0 state re-solved at its LTE-consistent xi*: the levels
        # sit in the Boltzmann ratio at xi*, though sigma2 - sigma1 = beta is not 0
        p = ThreeLevelParams(1.0, 0.0, eps=1.0, T0=2.0, rho0=1.0, P12=1.0, P23=1.0)
        first = solve_three_level(0.0, DRIVE_BC, p, GRID, ANGLES)
        sol = solve_three_level(p.T0 / (2 * p.eps) * (first.sigma2 - first.sigma1), DRIVE_BC, p, GRID, ANGLES)
        assert np.max(np.abs(sol.beta)) > 0.04
        assert lte_deviation(sol)[0] <= 1e-12
        assert non_lte_curvature(sol) <= 1e-12

    def test_curvature_stays_in_the_thick_limit(self):
        # kappa L from 0.51 to 33: the second difference of the levels grows
        # from 2.57 to 3.66 and does not vanish
        grid = SlabGrid(L=1.0, n_y=257)
        curvature = []
        for rho0 in (1.0, 64.0):
            p = ThreeLevelParams(0.7, 0.3, eps=1.0, T0=2.0, rho0=rho0, P12=1.0, P23=1.0)
            curvature.append(non_lte_curvature(solve_three_level(0.0, DRIVE_BC, p, grid, ANGLES, mass_C0=0.0)))
        assert curvature == pytest.approx([2.5662685695876464, 3.6585743966133055], rel=1e-9)

    def test_mirror_invariance(self):
        sol_fwd = solve_three_level(0.0, DRIVE_BC, PARAMS, GRID, ANGLES)
        bc_rev = (BoundaryProfile.zero(), BoundaryProfile.constant(0.1))
        sol_rev = solve_three_level(0.0, bc_rev, PARAMS, GRID, ANGLES)
        dev_f, _ = lte_deviation(sol_fwd)
        dev_r, _ = lte_deviation(sol_rev)
        assert dev_f == pytest.approx(dev_r, rel=1e-10)
        np.testing.assert_allclose(sol_rev.sigma2, sol_fwd.sigma2[::-1], rtol=0, atol=1e-10)
