"""Reduced collision integrals: printed kernels, quadrature, functionals.

The calibrated functionals are held to their defining 6-fold integrals by
the Monte Carlo of `radgas verify` (tests/test_acceptance.py, criterion 2)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radgas import (
    PhysConsts,
    TripleQuadSpec,
    ReducedKernelParams,
    triple_integral,
    functionals,
    H_func,
    S_func,
    L_func,
)
from radgas.collision_reduction import _pair_integrals, _quad_grid, _t1_integrals
from oracles import DomainError, eval_reduced_kernel, plane_integrals, plane_quad_grid

FIG1 = PhysConsts(epsilon0=1.0, sigma=1.0, c0=1.0)
SPEC = TripleQuadSpec()
FAST = TripleQuadSpec(n_r=48)
PAIR_KINDS = ("G_delta", "F_delta", "B2delta")  # the order _pair_integrals returns


def integral(kind, params, spec):
    """The quadrature of one printed kernel: the fused pass for the pair kernels."""
    if kind in PAIR_KINDS:
        return _pair_integrals(params, spec)[PAIR_KINDS.index(kind)]
    return triple_integral(kind, params, spec)


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
        # the theta integral of a unit kernel is 2, so the axis' weights sum to pi^3 / 2
        _, w = _quad_grid(SPEC)
        assert float(np.add.reduce(2.0 * w)) == pytest.approx(math.pi**3, rel=1e-12)

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
        assert integral(kind, p, SPEC) == pytest.approx(triple_oracle(kind, p), rel=1e-13)

    @pytest.mark.parametrize("n_r", [96, 16, 24])
    def test_grid_is_the_gauss_legendre_rule_bit_for_bit(self, n_r):
        spec = TripleQuadSpec(n_r=n_r)
        x, w = np.polynomial.legendre.leggauss(n_r)
        x = 0.5 * spec.r_max * (x + 1.0)
        g = x**2 * np.exp(-0.5 * x**2) * (0.5 * spec.r_max * w)
        want = [x**2, math.pi**2 * float(np.add.reduce(g)) * g]
        assert [a.tobytes() for a in _quad_grid(spec)] == [a.tobytes() for a in want]

    def test_spec_has_one_radial_axis(self):
        for key in ("n_theta", "n_rho"):
            with pytest.raises(TypeError):
                TripleQuadSpec(**{key: 48})
        assert SPEC.n_rho == SPEC.n_theta == 1  # node counters read n_r * n_rho * n_theta

    def test_quadrature_convergence_on_doubling(self):
        p = ReducedKernelParams(10.0, 11.5, 1.0)
        dense = TripleQuadSpec(n_r=192)
        for kind in ("F_delta", "G_delta", "A_kern", "B1", "B2delta"):
            coarse = integral(kind, p, SPEC)
            fine = integral(kind, p, dense)
            assert abs(fine - coarse) <= 1e-12 * max(abs(fine), 1e-30)

    @staticmethod
    def _assert_axis_matches_plane(T1, T2, eps0, n_plane=96):
        # the rotated one-axis sums against the closed-theta (r, rho) plane
        # pass they replaced, each divided by its rule's value for a unit
        # kernel (pi^3), which differs between node counts in the 14th digit
        p = ReducedKernelParams(T1, T2, eps0)
        got = np.array([*_pair_integrals(p, SPEC), *_t1_integrals.__wrapped__(T1, eps0, SPEC)])
        got /= float(np.add.reduce(2.0 * _quad_grid(SPEC)[1]))
        want = np.array(plane_integrals(p, n_r=n_plane, n_rho=n_plane))
        want /= float(np.add.reduce(2.0 * plane_quad_grid(12.0, n_plane, n_plane)[3]))
        for kind, g, w in zip(PAIR_KINDS + ("G0", "A_kern", "B1"), got, want):
            assert g == pytest.approx(w, rel=1e-14), kind

    @pytest.mark.parametrize("T1", [0.3, 1.0, 10.0, 10.7, 12.0, 50.0])
    @pytest.mark.parametrize(
        "T2",
        [
            lambda t: t,
            lambda t: t * (1 + 1e-8) ** 2,  # delta = 1e-8
            lambda t: t * (1 - 1e-8) ** 2,  # delta = -1e-8
            lambda t: t * (1 + 1e-7),
            0.5, 10.0, 11.3, 12.0, 40.0,
        ],
        ids=["T1", "d+1e-8", "d-1e-8", "T1+1e-7rel", "0.5", "10", "11.3", "12", "40"],
    )
    def test_one_axis_matches_the_plane_pass(self, T1, T2):
        self._assert_axis_matches_plane(T1, T2(T1) if callable(T2) else T2, 1.0)

    # Where T2/T1 or T1/T2 is large and eps0/T1 small, the plane pass's
    # radicand has a near-kink inside the plane and 96 nodes per axis miss
    # by up to 5e-10 (T1 = 60, T2 = 0.2, eps0 = 0.1); 192 per axis converge.
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        T1=st.floats(0.2, 60.0),
        T2=st.floats(0.2, 60.0),
        eps0=st.floats(0.1, 5.0),
    )
    def test_one_axis_matches_the_plane_pass_on_random_draws(self, T1, T2, eps0):
        self._assert_axis_matches_plane(T1, T2, eps0, n_plane=192)

    @pytest.mark.parametrize("spec", [SPEC, FAST], ids=["n96", "n48"])
    @pytest.mark.parametrize("T1", [0.3, 1.0, 10.0, 12.0])
    def test_diagonal_g_is_the_pair_pass_at_delta_zero(self, T1, spec):
        # _t1_integrals takes G_delta at T2 = T1 from the delta = 0 identity in
        # place of a full pair pass; the shortcut must keep every bit
        pair = _pair_integrals(ReducedKernelParams(T1, T1, 1.0), spec)
        assert _t1_integrals.__wrapped__(T1, 1.0, spec)[0] == pair[0]


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

    @pytest.mark.parametrize(
        "values",
        [(1.0, 1.0, 0.5, math.inf, -1.0), (1.0, math.nan, 0.5, 1.0, -1.0), (0.0, 1.0, 0.5, 1.0, -1.0)],
        ids=["A-infinite", "P21-nan", "P11-zero"],
    )
    def test_unusable_functionals_are_singular(self, values):
        from radgas import SingularDenominator
        from radgas.collision_reduction import CollisionFunctionals

        with pytest.raises(SingularDenominator):
            CollisionFunctionals(*values)

    @pytest.mark.parametrize(
        "spec, consts",
        [
            (TripleQuadSpec(r_max=1e-300, n_r=16), FIG1),  # every weight underflows to 0
            (TripleQuadSpec(r_max=1e300, n_r=16), FIG1),  # NaN sums
            (TripleQuadSpec(n_r=16), PhysConsts(epsilon0=1e300, c0=1.0)),  # A overflows
        ],
        ids=["r-max-tiny", "r-max-huge", "epsilon0-huge"],
    )
    def test_l_at_extreme_inputs_is_singular(self, spec, consts):
        from radgas import SingularDenominator

        with np.errstate(all="ignore"), pytest.raises(SingularDenominator):
            L_func(10.0, 11.0, consts, spec)


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
