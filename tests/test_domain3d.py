"""Convex-domain geometry, the boundary field R, and the 3D contraction solver."""

import math

import numpy as np
import pytest
from scipy.special import expn

from radgas import NotInterior
from radgas.domain3d import (
    ConvexDomain,
    LatticeSpec,
    SphereGrid,
    div_R,
    exit_distance,
    kernel_mass_at,
    nonexistence_check,
    solve_w,
    vector_R,
)

SPHERE = SphereGrid(16, 32)
BALL = ConvexDomain.ball((0.0, 0.0, 0.0), 1.0)
# slab-like box: thin in z, wide in x, y (aspect ratio 20)
SLAB = ConvexDomain.box((-10.0, -10.0, 0.0), (10.0, 10.0, 1.0))


def f_up(nodes):
    return (nodes[:, 2] > 0).astype(float)


def f_iso(nodes):
    return np.ones(len(nodes))


def slab_R3_oracle(z, a2, n=400):
    x, w = np.polynomial.legendre.leggauss(n)
    mu = 0.5 * (x + 1.0)
    wm = 0.5 * w
    return 2.0 * math.pi * float(np.sum(wm * mu * np.exp(-a2 * z / mu)))


def fd_div_R_oracle(domain, f, a2, y, h):
    """Richardson-extrapolated central difference of the public vector_R.

    Returns (divergence, error_bar), the error bar being |D(h) - D(h/2)| / 3.
    """
    y = np.asarray(y, dtype=float)

    def central(step):
        return sum(
            (
                vector_R(domain, f, a2, y + step * e, SPHERE)[k]
                - vector_R(domain, f, a2, y - step * e, SPHERE)[k]
            )
            / (2.0 * step)
            for k, e in enumerate(np.eye(3))
        )

    d_h, d_h2 = central(h), central(0.5 * h)
    return (4.0 * d_h2 - d_h) / 3.0, abs(d_h - d_h2) / 3.0


def _ball_points(rng, count):
    p = rng.normal(size=(count, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True) * rng.uniform(0.0, 0.8, size=(count, 1))


def _slab_points(rng, count):
    return np.column_stack(
        [rng.uniform(-2, 2, count), rng.uniform(-2, 2, count), rng.uniform(0.15, 0.85, count)]
    )


class TestExitDistance:
    def test_ball_center_all_directions(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert exit_distance(BALL, (0, 0, 0), n) == pytest.approx(1.0, rel=1e-14)

    def test_ball_offset(self):
        assert exit_distance(BALL, (0.5, 0, 0), (1, 0, 0)) == pytest.approx(1.5, rel=1e-14)

    def test_unit_box(self):
        box = ConvexDomain.box((0, 0, 0), (1, 1, 1))
        assert exit_distance(box, (0.5, 0.5, 0.5), (1, 0, 0)) == pytest.approx(0.5, rel=1e-14)

    def test_implicit_matches_ball(self):
        sdf = lambda p: np.sqrt(np.sum(np.asarray(p, dtype=float) ** 2, axis=-1)) - 1.0
        imp = ConvexDomain.implicit(sdf, (-1, -1, -1), (1, 1, 1))
        rng = np.random.default_rng(4)
        for _ in range(5):
            y = rng.normal(size=3) * 0.3
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert exit_distance(imp, y, n) == pytest.approx(
                exit_distance(BALL, y, n), abs=1e-10
            )

    def test_not_interior_raises(self):
        with pytest.raises(NotInterior):
            exit_distance(BALL, (1.0, 0, 0), (1, 0, 0))
        with pytest.raises(NotInterior):
            exit_distance(BALL, (2.0, 0, 0), (1, 0, 0))


class TestSphereGrid:
    def test_weights_sum_to_sphere_area(self):
        nodes, weights = SPHERE.nodes_weights()
        assert np.sum(weights) == pytest.approx(4 * math.pi, abs=1e-10)
        np.testing.assert_allclose(np.linalg.norm(nodes, axis=1), 1.0, rtol=1e-13)

    def test_minimum_node_count_enforced(self):
        with pytest.raises(ValueError):
            SphereGrid(2, 4)


class TestVectorR:
    def test_zero_profile(self):
        R = vector_R(BALL, lambda n: np.zeros(len(n)), 1.0, (0.1, 0.2, 0.0), SPHERE)
        np.testing.assert_array_equal(R, 0.0)

    def test_isotropic_at_center_vanishes(self):
        R = vector_R(BALL, f_iso, 2.0, (0, 0, 0), SPHERE)
        assert np.linalg.norm(R) < 1e-14

    def test_slab_component_matches_1d_oracle(self):
        a2 = 2.0
        y = (0.0, 0.0, 0.3)
        R = vector_R(SLAB, f_up, a2, y, SPHERE)
        want = slab_R3_oracle(0.3, a2)
        assert R[2] == pytest.approx(want, rel=0.01)

    def test_translation_equivariance(self):
        shift = np.array([3.0, -2.0, 5.0])
        ball2 = ConvexDomain.ball(shift, 1.0)
        y = np.array([0.2, 0.1, -0.3])
        r1 = vector_R(BALL, f_up, 1.5, y, SPHERE)
        r2 = vector_R(ball2, f_up, 1.5, y + shift, SPHERE)
        np.testing.assert_allclose(r1, r2, rtol=0, atol=1e-14)

    def test_phi_rotation_equivariance_on_ball(self):
        # rotations by the phi grid spacing map the sphere rule to itself
        k = 4
        ang = 2 * math.pi * k / SPHERE.n_phi
        c, s = math.cos(ang), math.sin(ang)
        Q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        f = lambda n: n[:, 0] ** 2 + 0.3 * np.abs(n[:, 2])
        fQ = lambda n: f(n @ Q)  # f composed with the inverse rotation
        y = np.array([0.3, 0.1, 0.2])
        r1 = vector_R(BALL, f, 1.0, y, SPHERE)
        r2 = vector_R(BALL, fQ, 1.0, Q @ y, SPHERE)
        np.testing.assert_allclose(Q @ r1, r2, rtol=0, atol=1e-12)


class TestDivR:
    def test_zero_profile(self):
        assert div_R(BALL, lambda n: np.zeros(len(n)), 1.0, (0, 0, 0), SPHERE) == 0.0

    def test_slab_matches_1d_oracle(self):
        a2 = 2.0
        z = 0.3
        got = div_R(SLAB, f_up, a2, (0, 0, z), SPHERE)
        want = -2.0 * math.pi * a2 * float(expn(2, a2 * z))
        assert got == pytest.approx(want, rel=1e-3)
        assert got < 0

    @pytest.mark.parametrize(
        "domain, f, a2, points",
        [
            (BALL, lambda n: 1.0 + 0.5 * n[:, 0] + n[:, 2] ** 2, 1.5, _ball_points),
            (BALL, f_up, 1.0, _ball_points),
            (SLAB, f_up, 2.0, _slab_points),
        ],
        ids=["ball-smooth", "ball-up", "slab-box"],
    )
    def test_identity_matches_fd_oracle(self, domain, f, a2, points):
        rng = np.random.default_rng(11)
        for y in points(rng, 12):
            fd, err = fd_div_R_oracle(domain, f, a2, y, h=0.01)
            assert 0.0 < err < 1e-3 * abs(fd)
            assert abs(div_R(domain, f, a2, y, SPHERE) - fd) <= err

    def test_boundary_skin_finite_negative(self):
        val = div_R(BALL, f_iso, 1.0, (0.995, 0, 0), SPHERE)
        assert math.isfinite(val)
        assert val < 0


class TestKernelMass:
    def test_unit_ball_center_closed_form(self):
        got = kernel_mass_at(BALL, [[0.0, 0.0, 0.0]], SPHERE)[0]
        assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    def test_ball_mass_below_one(self, radius):
        dom = ConvexDomain.ball((0, 0, 0), radius)
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(50, 3))
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * rng.uniform(
            0, 0.95 * radius, size=(50, 1)
        )
        mass = kernel_mass_at(dom, pts, SPHERE)
        assert np.all(mass < 1.0)
        assert np.all(mass > 0.0)

    def test_box_mass_below_one(self):
        dom = ConvexDomain.box((-2, -1, -3), (1, 2, 0.5))
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.4, 0.4, size=(50, 3))
        assert np.all(kernel_mass_at(dom, pts, SPHERE) < 1.0)


class TestSolveW:
    def test_zero_profile_gives_zero(self):
        field = solve_w(BALL, lambda n: np.zeros(len(n)), LatticeSpec(12), SPHERE)
        np.testing.assert_array_equal(field.values, 0.0)

    def test_isotropic_ball_constant_solution(self):
        # exact solution for isotropic f = c is w = c everywhere; the forcing
        # and the kernel-mass rows share one sphere rule, so w = 1 is a
        # fixed point of the discrete map up to round-off
        field = solve_w(BALL, f_iso, LatticeSpec(16), SPHERE)
        assert field.converged
        assert np.max(np.abs(field.values - 1.0)) < 1e-8
        rr = np.linalg.norm(field.points, axis=1)
        shell = (rr > 0.4) & (rr < 0.6)
        spread = field.values[shell].max() - field.values[shell].min()
        assert spread < 0.01 * field.values.mean()

    def test_picard_ratio_below_kernel_mass(self):
        field = solve_w(BALL, f_iso, LatticeSpec(16), SPHERE)
        assert field.picard_ratio <= field.kernel_mass.max() + 1e-3

    def test_lattice_points_strictly_interior(self):
        field = solve_w(BALL, f_iso, LatticeSpec(12), SPHERE)
        assert np.all(BALL.contains(field.points))

    def test_max_iter_reported_as_not_converged(self):
        field = solve_w(BALL, f_iso, LatticeSpec(12), SPHERE, max_iter=2)
        assert field.iterations == 2
        assert not field.converged

    def test_deterministic(self):
        f1 = solve_w(BALL, f_iso, LatticeSpec(12), SPHERE)
        f2 = solve_w(BALL, f_iso, LatticeSpec(12), SPHERE)
        np.testing.assert_array_equal(f1.values, f2.values)


class TestNonexistenceCheck:
    def test_zero_profile_exists_possible(self):
        rep = nonexistence_check(
            BALL, lambda n: np.zeros(len(n)), 1.0, [[0, 0, 0]], tol=1e-6, sphere=SPHERE
        )
        assert rep["verdict"] == "EXISTS_POSSIBLE"
        assert rep["witness_div_R"] == 0.0

    def test_one_sided_slab_nonexistent(self):
        samples = [[0, 0, 0.3], [0, 0, 0.5], [1.0, -2.0, 0.7]]
        rep = nonexistence_check(SLAB, f_up, 2.0, samples, tol=1e-3, sphere=SPHERE)
        assert rep["verdict"] == "NONEXISTENT"
        for row, (_, _, z) in zip(rep["samples"], samples):
            want = -2.0 * math.pi * 2.0 * float(expn(2, 2.0 * z))
            assert row["div_R"] == pytest.approx(want, rel=1e-3)

    def test_per_sample_rows_for_mixed_profiles(self):
        # antipodally symmetric profile: per-point rows carry the verdict data
        f_even = lambda n: np.abs(n[:, 2])
        samples = [[0, 0, 0], [0.4, 0, 0], [0, 0.4, 0.2]]
        rep = nonexistence_check(BALL, f_even, 1.0, samples, tol=1e-3, sphere=SPHERE)
        assert len(rep["samples"]) == 3
        for row in rep["samples"]:
            assert set(row) == {"point", "div_R", "exceeds_tol"}
        assert rep["witness_point"] in [r["point"] for r in rep["samples"]]

    def test_accepts_samples_in_the_boundary_skin(self):
        rep = nonexistence_check(BALL, f_iso, 1.0, [[0.999, 0, 0]], tol=1e-3, sphere=SPHERE)
        assert rep["verdict"] == "NONEXISTENT"
        assert rep["witness_div_R"] < 0

    def test_rejects_exterior_samples(self):
        with pytest.raises(NotInterior):
            nonexistence_check(BALL, f_iso, 1.0, [[2, 0, 0]], tol=1e-3, sphere=SPHERE)
