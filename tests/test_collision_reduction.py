"""Reduced collision integrals: printed kernels, quadrature, oracle agreement."""

import functools
import math

import numpy as np
import pytest

from radgas import (
    PhysConsts,
    TripleQuadSpec,
    ReducedKernelParams,
    DomainError,
    eval_reduced_kernel,
    triple_integral,
    functionals,
    H_func,
    S_func,
    L_func,
    mc_oracle,
    fit_calibration,
)
from radgas.collision_reduction import structural_value

FIG1 = PhysConsts(epsilon0=1.0, sigma=1.0, c0=1.0)
PHYS = PhysConsts(epsilon0=1.0, sigma=1.0)
SPEC = TripleQuadSpec()
FAST = TripleQuadSpec(n_r=48, n_rho=48)


@functools.lru_cache(maxsize=1)
def _oracle_grid(n_r=96, n_rho=96, n_theta=48, r_max=12.0):
    """(a, b, c) nodes and weights of the 3-fold Gauss sum over (r, rho, theta)."""
    nodes = []
    for n, hi in ((n_r, r_max), (n_rho, r_max), (n_theta, math.pi)):
        x, w = np.polynomial.legendre.leggauss(n)
        nodes.append((0.5 * hi * (x + 1.0), 0.5 * hi * w))
    (r, wr), (rho, wq), (theta, wt) = nodes
    R, RHO, TH = np.meshgrid(r, rho, theta, indexing="ij")
    weight = (
        math.pi**2 * R**2 * RHO**2 * np.sin(TH) * np.exp(-0.5 * (R**2 + RHO**2))
        * np.einsum("i,j,k->ijk", wr, wq, wt)
    )
    return (RHO**2).ravel(), (RHO * R * np.cos(TH)).ravel(), (R**2).ravel(), weight.ravel()


def triple_oracle(kind, params):
    """The 3-fold Gauss sum of a printed kernel, evaluated pointwise."""
    a, b, c, w = _oracle_grid()
    return float(np.sum(eval_reduced_kernel(kind, a, b, c, params) * w))


class TestReducedKernels:
    def test_g_delta_closed_form_at_origin(self):
        p = ReducedKernelParams(10.0, 10.0, 1.0)  # delta = 0
        got = eval_reduced_kernel("G_delta", 0.0, 0.0, 0.0, p)
        assert got == pytest.approx(4 * math.pi * math.sqrt(0.4), rel=1e-12)
        assert got == pytest.approx(7.9477, rel=1e-4)

    def test_b1_vanishes_on_diagonal_ray(self):
        # rho = r, theta = 0 means a = c = b: the |w4|^2 weight is zero
        p = ReducedKernelParams(10.0, 11.0, 1.0)
        assert eval_reduced_kernel("B1", 2.0, 2.0, 2.0, p) == pytest.approx(0.0, abs=1e-14)

    def test_f_delta_matches_divided_difference_of_g(self):
        # independent oracle: (G at T2 = T1+dT minus G at T1) / dT, carrying the
        # sqrt(T1) structure that relates G-kernel values to P values
        T1, dT = 10.0, 1e-4
        a, b, c = 3.0, 1.2, 2.0
        p0 = ReducedKernelParams(T1, T1, 1.0)
        p1 = ReducedKernelParams(T1, T1 + dT, 1.0)
        g0 = eval_reduced_kernel("G_delta", a, b, c, p0)
        g1 = eval_reduced_kernel("G_delta", a, b, c, p1)
        dd = math.sqrt(T1) * (g1 - g0) / dT
        f0 = eval_reduced_kernel("F_delta", a, b, c, p0)
        assert f0 == pytest.approx(dd, rel=1e-4)
        # and the printed delta = 0 closed form
        closed = 4 * math.pi * (a - b) / (2 * math.sqrt(T1) * math.sqrt(a + 0.4) * 2)
        assert f0 == pytest.approx(closed, rel=1e-12)

    def test_cone_validation(self):
        p = ReducedKernelParams(10.0, 11.0, 1.0)
        with pytest.raises(DomainError):
            eval_reduced_kernel("G_delta", -1.0, 0.0, 1.0, p)
        with pytest.raises(DomainError):
            eval_reduced_kernel("G_delta", 1.0, 0.0, -1.0, p)
        with pytest.raises(DomainError):
            eval_reduced_kernel("G_delta", 1.0, 2.0, 1.0, p)


class TestTripleIntegral:
    def test_unit_kernel_gives_pi_cubed(self):
        p = ReducedKernelParams(10.0, 11.0, 1.0)
        assert triple_integral("one", p, SPEC) == pytest.approx(math.pi**3, rel=1e-12)

    @pytest.mark.parametrize("kind", ["F_delta", "G_delta", "A_kern", "B1", "B2delta"])
    @pytest.mark.parametrize(
        "T1, T2",
        [
            (10.0, 10.0),  # delta = 0
            (10.0, 10.0 * (1 + 1e-8) ** 2),  # delta = 1e-8
            (10.0, 10.0 * (1 - 1e-8) ** 2),  # delta = -1e-8
            (10.0, 10.0 + 1e-7),
            (10.0, 12.0),
            (12.0, 10.0),
            (12.0, 12.0),
            (0.3, 9.0),
            (5.0, 1.0),
        ],
    )
    def test_closed_theta_matches_triple_gauss_oracle(self, kind, T1, T2):
        p = ReducedKernelParams(T1, T2, 1.0)
        assert triple_integral(kind, p, SPEC) == pytest.approx(triple_oracle(kind, p), rel=1e-13)

    def test_spec_has_no_theta_nodes(self):
        with pytest.raises(TypeError):
            TripleQuadSpec(n_theta=48)
        assert SPEC.n_theta == 1  # node counters read n_r * n_rho * n_theta

    def test_quadrature_convergence_on_doubling(self):
        p = ReducedKernelParams(10.0, 11.5, 1.0)
        dense = TripleQuadSpec(n_r=192, n_rho=192)
        for kind in ("F_delta", "G_delta", "A_kern", "B1", "B2delta"):
            coarse = triple_integral(kind, p, SPEC)
            fine = triple_integral(kind, p, dense)
            assert abs(fine - coarse) <= 1e-12 * max(abs(fine), 1e-30)

    def test_mc_oracle_agreement_g_delta(self):
        # P(T1) with T1 = T2 = 10 against the 6-fold MC integral
        consts = PHYS
        mc, se = mc_oracle("P", 10.0, 10.0, consts, n_samples=10**6, seed=5)
        struct = structural_value("P", 10.0, 10.0, consts, SPEC)
        assert abs(consts.c0**2 * struct - mc) <= 3.0 * se


class TestFunctionals:
    def test_b_diff_continuity_against_direct_divided_difference(self):
        # direct B(T1, T2)/dT at dT = 1e-4 via the reconstructed B
        T1, dT = 10.0, 1e-4
        f_close = functionals(T1, T1 + dT, FIG1, SPEC)
        b_direct = f_close.B_diff  # already the divided difference at T2 = T1+dT
        f_diag = functionals(T1, T1, FIG1, SPEC)
        assert f_diag.B_diff == pytest.approx(b_direct, rel=1e-3)

    def test_p_symmetry(self):
        fa = functionals(10.0, 12.0, FIG1, SPEC)
        fb = functionals(12.0, 10.0, FIG1, SPEC)
        # P(T2,T1) = P(T1,T2) only holds with the sqrt(T1) structure restored
        ca = functionals(10.0, 12.0, FIG1, SPEC, mode="calibrated")
        cb = functionals(12.0, 10.0, FIG1, SPEC, mode="calibrated")
        assert ca.P21 == pytest.approx(cb.P21, rel=1e-10)
        # printed values differ exactly by sqrt(T1'/T1)
        assert fa.P21 * math.sqrt(10.0) == pytest.approx(fb.P21 * math.sqrt(12.0), rel=1e-10)

    def test_b_vanishes_at_equal_temperatures(self):
        f = functionals(10.0, 10.0, FIG1, SPEC)
        assert f.B_diff * (10.0 - 10.0) == 0.0
        # and the reconstruction at nearby temperatures tends to zero linearly
        f2 = functionals(10.0, 10.0 + 1e-6, FIG1, SPEC)
        assert abs(f2.B_diff * 1e-6) < 1e-2


class TestAuxiliaryFunctions:
    def test_h_collapses_on_diagonal(self):
        assert H_func(10.0, 10.0, FIG1, SPEC) == pytest.approx(math.exp(-0.2), rel=1e-12)
        assert H_func(10.0, 10.0, FIG1, SPEC) == pytest.approx(0.81873, rel=1e-5)

    def test_l_golden_value(self):
        # pinned from the first run at default quadrature spec (Figure-1 constants)
        L = L_func(10.0, 10.0, FIG1, SPEC)
        assert L > 0
        assert L == pytest.approx(0.34273386177703064, rel=1e-9)

    def test_h_positive_s_finite_on_window(self):
        for T1 in (10.0, 11.0, 12.0):
            for T2 in (10.0, 11.0, 12.0):
                f = functionals(T1, T2, FIG1, FAST)
                H = H_func(T1, T2, FIG1, FAST, funcs=f)
                S = S_func(T1, T2, FIG1, FAST, funcs=f)
                assert H > 0
                assert np.isfinite(S)


class TestSingularGuard:
    def test_denominator_guard_raises(self):
        from radgas.collision_reduction import _check_denominator
        from radgas import SingularDenominator

        _check_denominator("x", 1.0, 1.0, 10.0, 11.0)  # fine
        with pytest.raises(SingularDenominator):
            _check_denominator("x", 1e-14, 1.0, 10.0, 11.0)
        with pytest.raises(SingularDenominator):
            _check_denominator("x", 0.0, 5.0, 10.0, 11.0)


class TestMcOracle:
    def test_seed_determinism(self):
        a = mc_oracle("P", 10.0, 11.0, PHYS, n_samples=10**4, seed=77)
        b = mc_oracle("P", 10.0, 11.0, PHYS, n_samples=10**4, seed=77)
        assert a == b

    def test_std_error_scales_like_sqrt_n(self):
        _, se1 = mc_oracle("A", 10.0, 11.0, PHYS, n_samples=5 * 10**4, seed=3)
        _, se4 = mc_oracle("A", 10.0, 11.0, PHYS, n_samples=2 * 10**5, seed=3)
        assert 0.45 <= se4 / se1 <= 0.55

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            mc_oracle("P", 10.0, 11.0, PHYS, n_samples=10**3, seed=1)


class TestCalibration:
    def test_fitted_constants_close_to_c0_squared(self):
        pairs = [(10.0, 10.0), (10.0, 12.0), (12.0, 10.0), (11.0, 11.5), (10.5, 11.0)]
        fit = fit_calibration(pairs, PHYS, FAST, n_samples=2 * 10**5, seed=11)
        for q, k in fit["constants"].items():
            assert k == pytest.approx(PHYS.c0**2, rel=5e-3), q

    def test_oracle_vs_calibrated_on_pairs(self):
        pairs = [(10.0, 10.0), (10.0, 12.0), (12.0, 10.0)]
        fit = fit_calibration(pairs, PHYS, FAST, n_samples=2 * 10**5, seed=21)
        for row in fit["detail"]:
            pred = fit["constants"][row["quantity"]] * row["structural"]
            tol = max(0.01 * abs(row["mc"]), 3.0 * row["se"])
            assert abs(pred - row["mc"]) <= tol + 1e-12


class TestSmoothness:
    def test_functionals_smooth_on_window_second_differences(self):
        # coarse probe of the full window: second divided differences stay
        # bounded and do not oscillate in sign along grid lines
        T = np.arange(10.0, 12.01, 0.25)
        grid = np.empty((len(T), len(T), 5))
        for i, t1 in enumerate(T):
            for j, t2 in enumerate(T):
                f = functionals(t1, t2, FIG1, FAST)
                grid[i, j] = (f.P11, f.P21, f.P_diff, f.A, f.B_diff)
        for comp in range(5):
            g = grid[:, :, comp]
            for rows in (g, g.T):
                d2 = np.diff(rows, n=2, axis=1)
                scale = np.max(np.abs(np.diff(rows, axis=1))) + 1e-30
                # no alternating-sign oscillation above noise level
                sig = np.abs(d2) > 1e-8 * np.max(np.abs(rows))
                flips = (d2[:, 1:] * d2[:, :-1] < 0) & sig[:, 1:] & sig[:, :-1]
                assert not np.any(flips[:, 1:] & flips[:, :-1])
                assert np.max(np.abs(d2)) < 10.0 * scale
