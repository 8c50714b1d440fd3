"""Reduced collision integrals: printed kernels, quadrature, functionals.

The calibrated functionals are held to their defining 6-fold integrals by
the Monte Carlo of `radgas verify` (tests/test_acceptance.py, criterion 2)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from radgas import (
    PhysConsts,
    SingularDenominator,
    TripleQuadSpec,
    ReducedKernelParams,
    triple_integral,
    functionals,
    H_func,
    S_func,
    L_func,
)
from radgas.collision_reduction import _pair_integrals, _quad_grid, _rows, _vanishes
from oracles import DomainError, eval_reduced_kernel, plane_integrals, plane_quad_grid

FIG1 = PhysConsts(epsilon0=1.0, sigma=1.0, c0=1.0)
SPEC = TripleQuadSpec()
FAST = TripleQuadSpec(n_r=48)
PAIR_KINDS = ("G_delta", "F_delta", "B2delta")  # the order _pair_integrals returns, after G0


def all_integrals(T1, T2, eps0, spec) -> tuple:
    """G_delta, F_delta, B2delta, G0, A_kern and B1 at one (T1, T2): the order
    of `plane_integrals`."""
    g0, *pair = _pair_integrals(np.array([T1]), np.array([T2]), eps0, spec)
    p = ReducedKernelParams(T1, T1, eps0)
    return (*(v.item() for v in pair), g0.item(), triple_integral("A_kern", p, spec), triple_integral("B1", p, spec))


def values(f) -> tuple:
    return (f.P11, f.P21, f.P_diff, f.A, f.B_diff)


def integral(kind, params, spec):
    """The quadrature of one printed kernel: the fused pass for the pair kernels."""
    if kind in PAIR_KINDS:
        return all_integrals(params.T1, params.T2, params.epsilon0, spec)[PAIR_KINDS.index(kind)]
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
        got = np.array(all_integrals(T1, T2, eps0, SPEC))
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
        # _pair_integrals takes G_delta at T2 = T1 from the delta = 0 identity
        # in place of a pair pass at T2 = T1; the shortcut must keep every bit
        g0, g, _, _ = _pair_integrals(np.array([T1]), np.array([T1, 2.0 * T1]), 1.0, spec)
        assert g0[0, 0] == g[0, 0]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 96, 300])
    def test_a_block_sums_each_pair_as_a_point(self, n, k):
        # np.add.reduce along each row of the (k, n, n_r) kernels sums in the
        # order of the one-dimensional sum, so no entry depends on its block
        T1 = np.array([10.7, 0.4, 33.0])[:k]
        T2 = np.linspace(0.3, 40.0, k * n).reshape(k, n)
        whole = _pair_integrals(T1, T2, 1.3, FAST)
        for i in range(k):
            assert whole[0][i, 0] == _pair_integrals(T1[i : i + 1], T2[i, :1], 1.3, FAST)[0].item()
            for j in range(0, n, max(1, n // 9)):
                one = _pair_integrals(T1[i : i + 1], T2[i, j : j + 1], 1.3, FAST)
                assert [v[i, j] for v in whole[1:]] == [v.item() for v in one[1:]]


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
                assert H_func(T1, T2, FIG1, FAST) > 0
                assert np.isfinite(S_func(T1, T2, FIG1, FAST))


class TestSingularGuard:
    # |value| <= 1e-10 * max(|x|, |y|, 1e-300), with value = x + y as in the
    # gap T2 - T1*H and the bracket term_a + term_b: a NaN x or y makes value
    # NaN, which never vanishes, so the NaN order of max() cannot matter
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        x=st.floats(allow_nan=True, allow_infinity=True),
        y=st.floats(allow_nan=True, allow_infinity=True) | st.just(None),
        rel=st.sampled_from([0.0, 1e-16, 1e-11, 1e-10, 1.1e-10, 1e-9]),
    )
    def test_vanishes_is_the_scalar_check(self, x, y, rel):
        if y is None:  # cancels to a relative rel
            y = -x * (1.0 + rel)
        value = x + y
        try:
            oracles._check_denominator("x", value, max(abs(x), abs(y)), 10.0, 11.0)
            want = False
        except SingularDenominator:
            want = True
        with np.errstate(all="ignore"):
            got = _vanishes(np.array([value]), np.array([x]), y)
        assert got.tolist() == [want]

    def test_vanishes_at_the_floor(self):
        value, scale = np.array([1e-14, 1e-9, 0.0, 1e-311, 1e-309]), np.array([1.0, 1.0, 5.0, 0.0, 0.0])
        assert _vanishes(value, scale, 0.0).tolist() == [True, False, True, True, False]

    @pytest.mark.parametrize(
        "T1, T2, spec, consts, mode, message",
        [
            (10.0, 11.0, TripleQuadSpec(r_max=1e150, n_r=16), FIG1, "printed", "non-finite functional: "),
            (10.0, 11.0, TripleQuadSpec(n_r=16), PhysConsts(epsilon0=1e300, c0=1.0), "printed", "non-finite"),
            (10.0, 11.0, TripleQuadSpec(r_max=1e-300, n_r=16), FIG1, "printed", "P11, P21, A must be positive"),
            (10.0, 11.0, TripleQuadSpec(n_r=16), PhysConsts(c0=1e-300), "calibrated", "P11, P21, A must be"),
        ],
        ids=["r-max-huge", "epsilon0-huge", "r-max-tiny", "c0-tiny"],
    )
    def test_unusable_functionals_are_singular(self, T1, T2, spec, consts, mode, message):
        # the checks of the per-node functionals, with their messages
        with np.errstate(all="ignore"):
            with pytest.raises(SingularDenominator, match=f"^{message}") as got:
                functionals(T1, T2, consts, spec, mode)
            with pytest.raises(SingularDenominator) as want:
                oracles.functionals_per_node(T1, T2, consts, spec, mode)
            assert str(got.value) == str(want.value)
            for fn in (H_func, S_func, L_func):
                if mode == "printed":
                    with pytest.raises(SingularDenominator, match=f"^{message}"):
                        fn(T1, T2, consts, spec)

    @pytest.mark.parametrize(
        "T1, T2, consts, message",
        [
            # eps0 = 1e-300: exp(-2*eps0/T) is 1 and P11 = P21 on the diagonal, so the gap is 0
            (10.0, 10.0, PhysConsts(epsilon0=1e-300, c0=1.0), "T2 - T1*H = 0.000e+00 vanishes within tolerance"),
            # exp(-2*eps0/T1) underflows, so both terms of the bracket are 0
            (10.0, 11.0, PhysConsts(epsilon0=1e12, c0=1.0), "S bracket = 0.000e+00 vanishes within tolerance"),
        ],
        ids=["gap", "bracket"],
    )
    def test_vanishing_denominator_raises_from_s_and_l_only(self, T1, T2, consts, message):
        f = oracles.functionals_per_node(T1, T2, consts, FAST)
        for fn, oracle in ((S_func, oracles.S_per_node), (L_func, oracles.L_per_node)):
            with pytest.raises(SingularDenominator) as got:
                fn(T1, T2, consts, FAST)
            with pytest.raises(SingularDenominator) as want:
                oracle(T1, T2, consts, f)
            assert str(got.value) == str(want.value)
            assert str(got.value) == f"{message} at (T1, T2) = ({T1}, {T2})"
        assert H_func(T1, T2, consts, FAST) == oracles.H_per_node(T1, T2, consts, f)
        assert values(functionals(T1, T2, consts, FAST)) == values(f)

    @pytest.mark.parametrize(
        "spec, consts",
        [
            (TripleQuadSpec(r_max=1e-300, n_r=16), FIG1),  # every weight underflows to 0
            (TripleQuadSpec(r_max=1e150, n_r=16), FIG1),  # NaN sums
            (TripleQuadSpec(n_r=16), PhysConsts(epsilon0=1e300, c0=1.0)),  # A overflows
        ],
        ids=["r-max-tiny", "r-max-huge", "epsilon0-huge"],
    )
    def test_l_at_extreme_inputs_is_singular(self, spec, consts):
        from radgas import SingularDenominator

        with np.errstate(all="ignore"), pytest.raises(SingularDenominator):
            L_func(10.0, 11.0, consts, spec)


class TestRowOfOne:
    """`functionals`, `H_func`, `S_func` and `L_func` against the per-node
    path they replaced, bit for bit, errors and messages included."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        T1=st.floats(0.2, 60.0),
        T2=st.floats(0.2, 60.0) | st.sampled_from([10.0, 12.0, 14.9]),
        eps0=st.sampled_from([1.0, 0.1, 3.7, 1e-300, 1e12]),
        sigma=st.sampled_from([1.0, 0.01, 50.0]),
        c0=st.sampled_from([1.0, math.pi**-1.5, 1e150, 1e-300]),
        n_r=st.sampled_from([16, 33]),
    )
    def test_random_nodes(self, T1, T2, eps0, sigma, c0, n_r):
        consts, spec = PhysConsts(epsilon0=eps0, sigma=sigma, c0=c0), TripleQuadSpec(n_r=n_r)

        def outcome(fn, *args):
            try:
                value = fn(*args)
            except SingularDenominator as exc:
                return str(exc)
            return values(value) if hasattr(value, "P11") else value

        with np.errstate(all="ignore"):
            for mode in ("calibrated", "printed"):
                want = outcome(oracles.functionals_per_node, T1, T2, consts, spec, mode)
                assert outcome(functionals, T1, T2, consts, spec, mode) == want
            # H, S and L take the printed functionals and raise where those are unusable
            f = None if isinstance(want, str) else oracles.functionals_per_node(T1, T2, consts, spec)
            for fn, oracle in ((H_func, oracles.H_per_node), (S_func, oracles.S_per_node), (L_func, oracles.L_per_node)):
                assert outcome(fn, T1, T2, consts, spec) == (want if f is None else outcome(oracle, T1, T2, consts, f))

    def test_non_positive_temperature_rejected(self):
        for T1, T2 in ((0.0, 10.0), (10.0, -1.0)):
            with pytest.raises(ValueError, match="temperatures must be > 0"):
                L_func(T1, T2, FIG1, FAST)


def per_node(T1, T2, consts, spec, mode):
    """The per-node path at one point: its functionals (None where they
    raise), its L (NaN where a check raises) and the check that raises."""
    try:
        f = oracles.functionals_per_node(T1, T2, consts, spec, mode)
    except SingularDenominator as exc:
        return None, math.nan, 1 if str(exc).startswith("non-finite") else 2
    try:
        return values(f), oracles.L_per_node(T1, T2, consts, f), 0
    except SingularDenominator as exc:
        return values(f), math.nan, 3 if str(exc).startswith("T2 - T1*H") else 4


class TestRowsAtPoints:
    """`_rows` at K arbitrary values of T1, each with its own T2 values,
    against the per-node path bit for bit: functionals, L and the check
    that fails.  m = 1 gives K arbitrary points."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        T1=st.lists(st.floats(0.2, 60.0), min_size=1, max_size=8),
        T2=st.lists(st.floats(0.2, 60.0) | st.sampled_from([10.0, 12.0]), min_size=1, max_size=24),
        m=st.sampled_from([1, 3]),
        diagonal=st.booleans(),
        eps0=st.sampled_from([1.0, 0.1, 3.7, 1e-300, 1e12]),
        sigma=st.sampled_from([1.0, 0.01]),
        c0=st.sampled_from([1.0, 1e150, 1e-300]),
        n_r=st.sampled_from([16, 33]),
        mode=st.sampled_from(["printed", "calibrated"]),
    )
    def test_random_points(self, T1, T2, m, diagonal, eps0, sigma, c0, n_r, mode):
        consts, spec = PhysConsts(epsilon0=eps0, sigma=sigma, c0=c0), TripleQuadSpec(n_r=n_r)
        T1 = np.array(T1)
        T2 = np.resize(np.array(T2), (len(T1), m))
        if diagonal:  # eps0 = 1e-300 makes the gap vanish there
            T2[:, 0] = T1
        with np.errstate(all="ignore"):
            got = _rows(T1, T2, consts, spec, mode)
            for k, j in np.ndindex(T2.shape):
                funcs, L, fail = per_node(float(T1[k]), float(T2[k, j]), consts, spec, mode)
                assert got.fail[k, j] == fail
                assert got.L[k, j].tobytes() == np.float64(L).tobytes()
                if funcs is not None:
                    assert (got.P11[k, 0], got.P21[k, j], got.P_diff[k, j], got.A[k, 0], got.B_diff[k, j]) == funcs


class TestScalingLaw:
    """Scaling (T1, T2, eps0) by lambda multiplies each calibrated functional
    by lambda^degree, and the calibrated L by lambda^(-1/2); the printed L
    follows no such law."""

    DEGREES = (0.5, 0.5, -0.5, 1.5, 0.5)  # P11, P21, P_diff, A, B_diff

    @staticmethod
    def calibrated(T1, T2, eps0):
        row = _rows(np.array([T1]), np.array([T2]), PhysConsts(epsilon0=eps0, c0=1.0), SPEC, "calibrated")
        return [v.item() for v in values(row)], row.L.item()

    @pytest.mark.parametrize("lam", [2.0, 4.0])
    @pytest.mark.parametrize("T1, T2", [(10.0, 11.0), (3.0, 30.0)])
    def test_calibrated_degrees(self, T1, T2, lam):
        base, L = self.calibrated(T1, T2, 1.0)
        scaled, L_scaled = self.calibrated(lam * T1, lam * T2, lam)
        for name, a, b, degree in zip(("P11", "P21", "P_diff", "A", "B_diff"), base, scaled, self.DEGREES):
            assert abs(math.log(b / a) / math.log(lam) - degree) <= 1e-14, name
        assert abs(math.log(L_scaled / L) / math.log(lam) + 0.5) <= 1e-14

    def test_calibrated_l_scales_as_one_over_c0_squared(self):
        # c0 = 2 scales every functional by exactly 4, so L by exactly 1/4
        T1, T2 = np.array([10.0]), np.array([11.0])
        L = [_rows(T1, T2, PhysConsts(c0=c0), SPEC, "calibrated").L.item() for c0 in (1.0, 2.0)]
        assert L[1] == L[0] / 4.0

    @pytest.mark.parametrize("mode", ["printed", "calibrated"])
    def test_l_scales_as_one_over_sigma(self, mode):
        # sigma enters L only through 4*sigma/3, so sigma = 2 halves L exactly
        T2 = np.array([3.0, 11.0, 30.0])
        rows = [_rows(np.array([10.0]), T2, PhysConsts(sigma=sigma, c0=1.0), SPEC, mode).L for sigma in (1.0, 2.0)]
        assert rows[1].tobytes() == (rows[0] / 2.0).tobytes()

    def test_printed_l_fails_the_law(self):
        # lambda = 2 at (10, 11): the law would give 0.395/sqrt(2) = 0.279
        L = L_func(10.0, 11.0, PhysConsts(epsilon0=1.0, c0=1.0), SPEC)
        L_scaled = L_func(20.0, 22.0, PhysConsts(epsilon0=2.0, c0=1.0), SPEC)
        assert (round(L, 3), round(L_scaled, 3)) == (0.395, 0.064)
        assert abs(L_scaled - L / math.sqrt(2.0)) > 0.2


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
