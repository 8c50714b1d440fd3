"""Convex-domain geometry, the boundary field R, and the 3D contraction solver."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.fft import next_fast_len, rfftn
from scipy.special import expn

import radgas.domain3d
import radgas.picard
from radgas import NotInterior
from radgas.picard import FixedPoint
from radgas.domain3d import (
    ConvexDomain,
    LatticeSpec,
    SphereGrid,
    _attenuation_pass,
    _build_lattice,
    _kernel_table,
    _nearest_interior,
    _next_fast_len,
    fftconvolve,
    kernel_mass_at,
    nonexistence_check,
    solve_w,
)
from oracles import ImplicitDomain, div_R, exit_distance, vector_R
from test_picard import _plain_loop

SPHERE = SphereGrid(16, 32)
BALL = ConvexDomain.ball((0.0, 0.0, 0.0), 1.0)
# slab-like box: thin in z, wide in x, y (aspect ratio 20)
SLAB = ConvexDomain.box((-10.0, -10.0, 0.0), (10.0, 10.0, 1.0))
BOX = ConvexDomain.box((-2, -1, -3), (1, 2, 0.5))
IMPLICIT_BALL = ImplicitDomain(
    lambda p: np.sqrt(np.sum(np.asarray(p, dtype=float) ** 2, axis=-1)) - 1.0,
    (-1, -1, -1),
    (1, 1, 1),
)


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


def full_pass_oracle(domain, points, a2=1.0, f=f_up):
    """e @ (w * f) and (1 - e) @ w from one unblocked (P, S) array e = e^(-a2 s)."""
    nodes, weights = SPHERE.nodes_weights()
    e = np.exp(-a2 * domain.exit_distances(points, nodes))
    return e @ (weights * f(nodes)), (1.0 - e) @ weights


def box_exit_oracle(mins, maxs, p, n):
    """Box exit distances from both (P, S, 3) face quotients and a nested where."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_pos = (p[:, None, :] - mins) / n[None, :, :]
        t_neg = (p[:, None, :] - maxs) / n[None, :, :]
        t = np.where(n[None, :, :] > 0, t_pos, np.where(n[None, :, :] < 0, t_neg, np.inf))
    return np.min(t, axis=-1)


def _ball_points(rng, count):
    p = rng.normal(size=(count, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True) * rng.uniform(0.0, 0.8, size=(count, 1))


def _slab_points(rng, count):
    return np.column_stack(
        [rng.uniform(-2, 2, count), rng.uniform(-2, 2, count), rng.uniform(0.15, 0.85, count)]
    )


def _box_points(rng, count):
    return rng.uniform((-1.8, -0.8, -2.8), (0.8, 1.8, 0.3), size=(count, 3))


PASS_DOMAINS = pytest.mark.parametrize(
    "domain, points",
    [(BALL, _ball_points), (BOX, _box_points), (IMPLICIT_BALL, _ball_points)],
    ids=["ball", "box", "implicit"],
)


class TestContains:
    """Ball and box work per coordinate column; the np.sum / np.all forms
    they replace give the same booleans on every point."""

    @pytest.mark.parametrize("shape", [(3,), (200, 3), (6, 7, 8, 3)], ids=["point", "rows", "lattice"])
    def test_ball_matches_the_sum_form(self, shape):
        c, r = np.array([0.3, -0.2, 0.1]), 0.7
        p = np.random.default_rng(len(shape)).uniform(-0.5, 0.9, size=shape)
        # points on the sphere itself, where the last bit decides
        edge = c + r * np.eye(4, 3, -1)
        p.reshape(-1, 3)[: len(edge)] = edge[: p.size // 3]
        got = ConvexDomain.ball(c, r).contains(p)
        want = np.sum((p - c) ** 2, axis=-1) < r**2
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert np.array_equal(radgas.domain3d._squared_distance(p, c), np.sum((p - c) ** 2, axis=-1))

    @pytest.mark.parametrize("shape", [(3,), (200, 3), (6, 7, 8, 3)], ids=["point", "rows", "lattice"])
    def test_box_matches_the_all_form(self, shape):
        mins, maxs = np.array([-2.0, -1.0, -3.0]), np.array([1.0, 2.0, 0.5])
        p = np.random.default_rng(len(shape)).uniform(-3.5, 2.5, size=shape)
        edge = np.array([mins, maxs])  # on the faces
        p.reshape(-1, 3)[: len(edge)] = edge[: p.size // 3]
        got = BOX.contains(p)
        want = np.all(p > mins, axis=-1) & np.all(p < maxs, axis=-1)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


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

    @pytest.mark.parametrize("bounds", [(0, 0, 0, 1, 1, 1), (-10, -10, 0, 10, 10, 1), (0, 0, 0, 1, 2, 0.5)])
    def test_box_matches_three_component_oracle(self, bounds):
        box = ConvexDomain.box(bounds[:3], bounds[3:])
        lo, hi = np.array(bounds[:3], dtype=float), np.array(bounds[3:], dtype=float)
        points = lo + (hi - lo) * np.random.default_rng(5).uniform(0.01, 0.99, size=(64, 3))
        # sphere nodes, the six axis directions and directions with one or two
        # exact zero components (one of them -0.0)
        dirs = np.vstack([
            SPHERE.nodes_weights()[0],
            np.eye(3),
            -np.eye(3),
            [[0.6, -0.8, 0.0], [0.0, -0.6, 0.8], [-0.0, 0.0, 1.0]],
        ])
        s = box.exit_distances(points, dirs)
        np.testing.assert_array_equal(s, box_exit_oracle(lo, hi, points, dirs))
        assert np.all(np.isfinite(s)) and np.all(s > 0)

    def test_implicit_matches_ball(self):
        sdf = lambda p: np.sqrt(np.sum(np.asarray(p, dtype=float) ** 2, axis=-1)) - 1.0
        imp = ImplicitDomain(sdf, (-1, -1, -1), (1, 1, 1))
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

    @pytest.mark.parametrize("n_theta, n_phi", [(16, 32), (6, 8), (24, 12)])
    def test_rule_is_cached_read_only_and_bit_identical(self, n_theta, n_phi):
        # the rule as it was built on every call before it was cached
        x, w = np.polynomial.legendre.leggauss(n_theta // 2)
        ct = np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)])
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        st = np.sqrt(1.0 - ct**2)
        want_nodes = np.stack(
            [np.outer(st, np.cos(phi)).ravel(), np.outer(st, np.sin(phi)).ravel(), np.outer(ct, np.ones_like(phi)).ravel()],
            axis=-1,
        )
        want_weights = np.outer(np.concatenate([0.5 * w, 0.5 * w]), np.full(n_phi, 2.0 * math.pi / n_phi)).ravel()
        nodes, weights = SphereGrid(n_theta, n_phi).nodes_weights()
        assert nodes.tobytes() == want_nodes.tobytes() and nodes.shape == want_nodes.shape
        assert weights.tobytes() == want_weights.tobytes()
        again = SphereGrid(n_theta, n_phi).nodes_weights()
        assert again[0] is nodes and again[1] is weights
        for a in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0


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
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.4, 0.4, size=(50, 3))
        assert np.all(kernel_mass_at(BOX, pts, SPHERE) < 1.0)

    @pytest.mark.parametrize(
        "domain, point",
        [(BALL, (2.0, 0, 0)), (BALL, (0, 0, 5.0)), (BALL, (1.0, 0, 0)), (BOX, (3.0, 0, 0))],
    )
    def test_exterior_point_raises(self, domain, point):
        with pytest.raises(NotInterior):
            kernel_mass_at(domain, [(0.0, 0.5, 0.0), point], SPHERE)


class TestAttenuationPass:
    """The blocked pass against one unblocked (P, S) evaluation, bit for bit.

    Point counts are multiples of 8: BLAS reduces the rows of a matrix-vector
    product in groups of rows and splits the rows across threads, and a group
    boundary that moves changes a row's summation order in the last bit.
    With blocks and counts that keep the groups aligned, every row must come
    out with the same bits.
    """

    BLOCK = 16  # points per block, small so that the implicit domain's bisection stays cheap
    COUNTS = pytest.mark.parametrize("count", [8, 16, 40], ids=["below", "equal", "not-multiple"])

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        rays = self.BLOCK * SPHERE.n_theta * SPHERE.n_phi
        monkeypatch.setattr(radgas.domain3d, "_RAY_BLOCK", rays)

    @PASS_DOMAINS
    @COUNTS
    @pytest.mark.usefixtures("small_blocks")
    def test_forcing_and_kernel_mass(self, domain, points, count):
        pts = points(np.random.default_rng(count), count)
        nodes, weights = SPHERE.nodes_weights()
        flux, mass = _attenuation_pass(domain, pts, nodes, weights, f_up(nodes))
        want_flux, want_mass = full_pass_oracle(domain, pts)
        assert np.array_equal(flux, want_flux)
        assert np.array_equal(mass, want_mass)

    @PASS_DOMAINS
    @COUNTS
    @pytest.mark.usefixtures("small_blocks")
    def test_kernel_mass_at(self, domain, points, count):
        pts = points(np.random.default_rng(count), count)
        _, want_mass = full_pass_oracle(domain, pts)
        assert np.array_equal(kernel_mass_at(domain, pts, SPHERE), want_mass / (4.0 * math.pi))

    @PASS_DOMAINS
    @COUNTS
    @pytest.mark.usefixtures("small_blocks")
    def test_div_R_of_nonexistence_check(self, domain, points, count):
        pts = points(np.random.default_rng(count), count)
        rep = nonexistence_check(domain, f_up, 1.5, pts, tol=1e-3, sphere=SPHERE)
        want_flux, _ = full_pass_oracle(domain, pts, 1.5)
        assert np.array_equal([row["div_R"] for row in rep["samples"]], -1.5 * want_flux)

    @pytest.mark.parametrize("count", [32, 128, 200], ids=["below", "equal", "not-multiple"])
    def test_default_block(self, count):
        assert radgas.domain3d._RAY_BLOCK // (SPHERE.n_theta * SPHERE.n_phi) == 128
        pts = _ball_points(np.random.default_rng(count), count)
        nodes, weights = SPHERE.nodes_weights()
        flux, mass = _attenuation_pass(BALL, pts, nodes, weights, f_up(nodes))
        want_flux, want_mass = full_pass_oracle(BALL, pts)
        assert np.array_equal(flux, want_flux)
        assert np.array_equal(mass, want_mass)

    def test_div_R_at_one_point(self):
        y = np.array([0.2, -0.1, 0.3])
        want_flux, _ = full_pass_oracle(BALL, y[None, :], 0.7)
        assert div_R(BALL, f_up, 0.7, y, SPHERE) == -0.7 * want_flux[0]


def block_loop_oracle(domain, points, step, a2=1.0, f=f_up):
    """The attenuation pass as one loop over blocks of `step` points on one thread."""
    nodes, weights = SPHERE.nodes_weights()
    flux, mass = np.empty(len(points)), np.empty(len(points))
    for lo in range(0, len(points), step):
        e = np.exp(-a2 * domain.exit_distances(points[lo : lo + step], nodes))
        flux[lo : lo + step] = e @ (weights * f(nodes))
        mass[lo : lo + step] = (1.0 - e) @ weights
    return flux, mass


class _RecordedThread(threading.Thread):
    started = []

    def start(self):
        type(self).started.append(self)
        super().start()


class TestTwoThreadPass:
    """The blocks alternate between the calling thread and one worker: the
    result is the single-thread block loop's, bit for bit, whatever the
    count; with one block no worker starts; a worker's exception reaches the
    caller after the join."""

    BLOCK = 16

    @pytest.fixture
    def threads(self, monkeypatch):
        """Small blocks, and every thread started is recorded."""
        monkeypatch.setattr(radgas.domain3d, "_RAY_BLOCK", self.BLOCK * SPHERE.n_theta * SPHERE.n_phi)
        monkeypatch.setattr(_RecordedThread, "started", [])
        monkeypatch.setattr(threading, "Thread", _RecordedThread)
        return _RecordedThread.started

    @PASS_DOMAINS
    @pytest.mark.parametrize("blocks, count", [(1, 13), (2, 32), (3, 37)])
    def test_equals_the_single_thread_block_loop(self, threads, domain, points, blocks, count):
        pts = points(np.random.default_rng(count), count)
        nodes, weights = SPHERE.nodes_weights()
        flux, mass = _attenuation_pass(domain, pts, nodes, weights, f_up(nodes), 1.3)
        want_flux, want_mass = block_loop_oracle(domain, pts, self.BLOCK, 1.3)
        assert np.array_equal(flux, want_flux)
        assert np.array_equal(mass, want_mass)
        assert len(threads) == (blocks > 1)

    def test_worker_exception_reaches_the_caller(self, threads):
        error = ValueError("sdf failed on the worker")

        def sdf(p):
            if threading.current_thread() is not threading.main_thread():
                raise error  # the worker walks the odd blocks
            return np.sqrt(np.sum(np.asarray(p) ** 2, axis=-1)) - 1.0

        domain = ImplicitDomain(sdf, (-1, -1, -1), (1, 1, 1))
        pts = _ball_points(np.random.default_rng(5), 3 * self.BLOCK)
        nodes, weights = SPHERE.nodes_weights()
        before = threading.active_count()
        with pytest.raises(ValueError) as exc:
            _attenuation_pass(domain, pts, nodes, weights, f_up(nodes))
        assert exc.value is error
        assert threading.active_count() == before
        (worker,) = threads
        assert not worker.is_alive()

    def test_worker_calls_no_public_function(self, threads):
        # the benchmark's tracer wraps every public radgas function, and
        # ConvexDomain.exit_distances, with one span stack
        caller, called = threading.current_thread(), set()

        def record(frame, event, arg):
            if event == "call" and threading.current_thread() is not caller:
                called.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

        pts = _ball_points(np.random.default_rng(7), 3 * self.BLOCK)
        nodes, weights = SPHERE.nodes_weights()
        threading.setprofile(record)
        try:
            _attenuation_pass(BALL, pts, nodes, weights, f_up(nodes))
        finally:
            threading.setprofile(None)
        ours = {name for module, name in called if module == "radgas.domain3d"}
        assert "_exit_distances" in ours
        public = set(radgas.domain3d.__all__) | {n for n in vars(ConvexDomain) if not n.startswith("_")}
        assert ours & public == set()

    def test_nonexist_samples_start_no_worker(self, threads):
        nonexistence_check(SLAB, f_up, 2.0, [[0, 0, 0.3], [0, 0, 0.5], [1.0, -2.0, 0.7]], tol=1e-3)
        assert threads == []


def kernel_table_oracle(n, spacing, near_range=6):
    """_kernel_table as it was first written: every offset cell's centre in one
    (L^3, 3) array, classified by its Chebyshev distance in cells."""
    L = next_fast_len(2 * n - 1, True)
    k = np.arange(L)
    offs = [spacing[i] * np.where(k < n, k, k - L) for i in range(3)]
    OX, OY, OZ = np.meshgrid(*offs, indexing="ij")
    centers = np.stack([OX, OY, OZ], axis=-1).reshape(-1, 3)
    vol = float(np.prod(spacing))

    def kern(r2):
        r = np.sqrt(r2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r > 0, np.exp(-r) / (4.0 * math.pi * r2), 0.0)

    def cell_integrals(cells, m):
        x, wq = np.polynomial.legendre.leggauss(m)
        pts1d = [0.5 * spacing[i] * x for i in range(3)]
        w3 = np.einsum("i,j,k->ijk", wq, wq, wq).ravel() * (0.5**3) * vol
        gpts = np.stack(np.meshgrid(*pts1d, indexing="ij"), axis=-1).reshape(-1, 3)
        d = cells[:, None, :] + gpts[None, :, :]
        return kern(np.sum(d * d, axis=-1)) @ w3

    dist_cells = np.max(np.abs(centers / spacing), axis=-1)
    table = np.zeros(len(centers))
    near = (dist_cells > 0.5) & (dist_cells <= near_range + 0.5)
    far = dist_cells > near_range + 0.5
    table[near] = cell_integrals(centers[near], 4)
    table[far] = cell_integrals(centers[far], 2)
    table[0] = 1.0 - math.exp(-((3.0 * vol / (4.0 * math.pi)) ** (1.0 / 3.0)))
    return table.reshape(L, L, L)


class TestKernelTable:
    @pytest.mark.parametrize("n", [8, 12, 13, 32])
    @pytest.mark.parametrize("spacing", [(0.25, 0.25, 0.25), (2.0, 1.5, 0.5)], ids=["cubic", "anisotropic"])
    def test_matches_full_offset_oracle(self, n, spacing):
        spacing = np.array(spacing) / n * 8
        np.testing.assert_allclose(_kernel_table(n, spacing), kernel_table_oracle(n, spacing), rtol=1e-14, atol=0)

    def test_memory_bounded_by_the_table(self):
        # the table is 96^3 float64 (7 MB) at n = 48; the full-offset form peaked near 98 MB
        tracemalloc.start()
        try:
            _kernel_table(48, np.full(3, 2.0 / 48))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48e6


class TestFftConvolve:
    # periods 15 and 25 are odd, 18 and 24 exceed 2n - 1 (a wrap gap), 64 is even
    @pytest.mark.parametrize("n", [8, 9, 12, 13, 32])
    def test_matches_scipy_same_mode(self, n):
        from scipy.signal import fftconvolve as scipy_fftconvolve  # the method it replaced

        table = _kernel_table(n, np.array([2.0, 1.5, 0.5]) / n)
        period = next_fast_len(2 * n - 1, True)
        assert table.shape == (period,) * 3
        centred = table[np.ix_(*[np.arange(-(n - 1), n) % period] * 3)]
        x = np.random.default_rng(n).uniform(size=(n, n, n))
        want = scipy_fftconvolve(x, centred, mode="same")
        got = fftconvolve(x, rfftn(table), table.shape)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [8, 9, 12, 13, 24, 32])
    def test_pruned_inverse_matches_the_full_box_bit_for_bit(self, n):
        # periods 15 and 25 are odd, 18 leaves a wrap gap; anisotropic cells
        table = _kernel_table(n, np.array([2.0, 1.5, 0.5]) / n)
        table_hat = np.fft.rfftn(table)
        period = table.shape
        x = np.random.default_rng(n).uniform(size=(n, n, n))
        axes = (0, 1, 2)
        full = np.fft.irfftn(np.fft.rfftn(x, period, axes) * table_hat, period, axes)[:n, :n, :n]
        assert np.array_equal(fftconvolve(x, table_hat, period), full)

    def test_self_cell_at_index_zero(self):
        table = _kernel_table(8, np.full(3, 0.25))
        assert table[0, 0, 0] == np.max(table)


def test_next_fast_len_matches_scipy():
    got = [_next_fast_len(m) for m in range(1, 10_001)]
    assert got == [scipy.fft.next_fast_len(m, real=True) for m in range(1, 10_001)]


def frac_grid_edt_oracle(domain, n):
    """_build_lattice's frac_grid as first written: each clipped cell's interior
    volume goes to the nearest interior cell that
    scipy.ndimage.distance_transform_edt finds.  Returns (frac_grid, orphans)."""
    from scipy.ndimage import distance_transform_edt

    mins, maxs = domain.bounding_box
    spacing = (maxs - mins) / n
    axes = [mins[i] + spacing[i] * (np.arange(n) + 0.5) for i in range(3)]
    centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    inside = domain.contains(centers)
    flat = centers.reshape(-1, 3)
    acc = np.zeros(len(flat))
    for off in [[sx, sy, sz] for sx in (-0.25, 0.25) for sy in (-0.25, 0.25) for sz in (-0.25, 0.25)]:
        acc += domain.contains(flat + np.array(off) * spacing)
    frac_all = (acc / 8).reshape(centers.shape[:3])
    frac_grid = np.where(inside, frac_all, 0.0)
    orphans = (~inside) & (frac_all > 0)
    if np.any(orphans):
        _, nearest = distance_transform_edt(~inside, return_indices=True)
        oi = np.argwhere(orphans)
        ti = nearest[:, oi[:, 0], oi[:, 1], oi[:, 2]]
        np.add.at(frac_grid, (ti[0], ti[1], ti[2]), frac_all[orphans])
    return frac_grid, int(orphans.sum())


ELLIPSOID = ImplicitDomain(
    lambda p: np.sum((np.asarray(p, dtype=float) / (1.0, 0.6, 0.4)) ** 2, axis=-1) - 1.0,
    (-1.0, -0.6, -0.4),
    (1.0, 0.6, 0.4),
)


def nearest_interior_oracle(inside, cells):
    """`_nearest_interior` as first written: the (m, offsets, 3) candidates
    reduced over their length-3 axis."""
    out = np.empty((len(cells), 3), dtype=np.intp)
    todo = np.arange(len(cells))
    r = 1
    while len(todo):
        span = np.arange(-r, r + 1)
        dk, dj, di = np.meshgrid(span, span, span, indexing="ij")
        offsets = np.stack([di.ravel(), dj.ravel(), dk.ravel()], axis=1)
        cand = cells[todo, None, :] + offsets
        ok = np.all((cand >= 0) & (cand < inside.shape), axis=-1)
        at = np.where(ok[..., None], cand, 0)
        ok &= inside[at[..., 0], at[..., 1], at[..., 2]]
        dist = np.where(ok, np.sum(offsets**2, axis=1), np.iinfo(np.intp).max)
        best = np.argmin(dist, axis=1)
        rows = np.arange(len(todo))
        done = dist[rows, best] <= r * r
        out[todo[done]] = cand[rows[done], best[done]]
        todo = todo[~done]
        r += 1
    return out.T


class TestNearestInterior:
    """Orphan cells go where the distance transform they replace sent them."""

    @pytest.mark.parametrize("shape", [(9, 9, 9), (5, 12, 7), (16, 3, 11)])
    @pytest.mark.parametrize("density", [0.002, 0.05, 0.5])
    def test_per_column_search_matches_the_stacked_oracle(self, shape, density):
        # sparse interiors force searches of several radii and many distance
        # ties; every exterior cell is queried, the lattice edges included
        rng = np.random.default_rng([len(shape), int(1000 * density), shape[0]])
        inside = rng.random(shape) < density
        inside[tuple(rng.integers(0, n) for n in shape)] = True
        cells = np.argwhere(~inside)
        got = _nearest_interior(inside, cells)
        np.testing.assert_array_equal(got, nearest_interior_oracle(inside, cells))
        assert got.dtype == np.intp

    @pytest.mark.parametrize("n", [8, 9, 13, 20, 24, 32, 48])
    @pytest.mark.parametrize(
        "domain",
        [BALL, ConvexDomain.ball((0.3, -0.2, 0.1), 0.7), ConvexDomain.ball((-1.1, 0.45, 2.0), 1.3)],
        ids=["centred", "off-centre", "off-centre-large"],
    )
    def test_ball_frac_grid_bit_identical_to_edt(self, domain, n):
        want, orphans = frac_grid_edt_oracle(domain, n)
        assert orphans > 0
        np.testing.assert_array_equal(_build_lattice(domain, LatticeSpec(n))[2], want)

    @pytest.mark.parametrize("n", [8, 12, 21, 32])
    @pytest.mark.parametrize("domain", [BOX, SLAB, IMPLICIT_BALL, ELLIPSOID], ids=["box", "slab", "implicit-ball", "ellipsoid"])
    def test_other_domains_frac_grid_bit_identical_to_edt(self, domain, n):
        want, _ = frac_grid_edt_oracle(domain, n)
        np.testing.assert_array_equal(_build_lattice(domain, LatticeSpec(n))[2], want)


def solve_w_oracle(domain, f, lattice, sphere):
    """solve_w with the convolution of the zero grid added to the forcing, as
    when the zero start took one product: (values, picard_diffs)."""
    d = radgas.domain3d
    pts, inside, frac_grid, spacing = d._build_lattice(domain, lattice)
    nodes, weights = sphere.nodes_weights()
    flux, mass = _attenuation_pass(domain, pts, nodes, weights, d._profile_values(f, nodes))
    forcing, kernel_mass = flux / (4.0 * math.pi), mass / (4.0 * math.pi)
    table = _kernel_table(lattice.n, spacing)
    table_hat = np.fft.rfftn(table)
    scale = kernel_mass / fftconvolve(frac_grid, table_hat, table.shape)[inside]
    frac, w_grid = frac_grid[inside], np.zeros(inside.shape)

    def convolve(w):
        w_grid[inside] = w * frac
        return scale * fftconvolve(w_grid, table_hat, table.shape)[inside]

    picard = radgas.picard.fixed_point(convolve, convolve(np.zeros(len(pts))) + forcing, 1e-10, 500)
    return picard.x, picard.diffs


class TestSolveW:
    @pytest.mark.parametrize(
        "domain, n, f",
        [(BALL, 24, f_up), (BALL, 16, f_iso), (BOX, 12, f_iso), (BALL, 12, lambda n: np.zeros(len(n)))],
        ids=["ball-24-up", "ball-16-isotropic", "box-12-isotropic", "ball-12-zero"],
    )
    def test_zero_iterate_takes_the_forcing_bit_for_bit(self, domain, n, f):
        field = solve_w(domain, f, LatticeSpec(n), SPHERE)
        values, diffs = solve_w_oracle(domain, f, LatticeSpec(n), SPHERE)
        assert field.values.tobytes() == values.tobytes()
        assert field.picard_diffs == diffs

    @pytest.mark.parametrize("domain", [BALL, BOX])
    def test_kernel_mass_matches_kernel_mass_at(self, domain):
        field = solve_w(domain, f_up, LatticeSpec(12), SPHERE)
        assert np.array_equal(field.kernel_mass, kernel_mass_at(domain, field.points, SPHERE))

    def test_every_ray_once_and_one_convolution_per_sweep(self, monkeypatch):
        # every block, on either thread, reaches the private implementation
        rays, calls = [], {"conv": 0}
        exit_distances, conv = ConvexDomain._exit_distances, radgas.domain3d.fftconvolve

        def counted_exit(self, points, dirs):
            rays.append((np.array(points), np.array(dirs)))
            return exit_distances(self, points, dirs)

        def counted_conv(*args):
            calls["conv"] += 1
            return conv(*args)

        monkeypatch.setattr(ConvexDomain, "_exit_distances", counted_exit)
        monkeypatch.setattr(radgas.domain3d, "fftconvolve", counted_conv)
        field = solve_w(BALL, f_up, LatticeSpec(8), SPHERE)
        nodes, _ = SPHERE.nodes_weights()
        # each block pairs its points with every node, and the blocks
        # partition the lattice points: every (point, node) ray exactly once.
        # The blocks run on two threads, so they are taken in the order of
        # their first point, not in the order the calls came in
        assert len(rays) > 1
        assert all(np.array_equal(dirs, nodes) for _, dirs in rays)
        row = {tuple(p): i for i, p in enumerate(field.points)}
        blocks = sorted((points for points, _ in rays), key=lambda points: row[tuple(points[0])])
        assert np.array_equal(np.concatenate(blocks), field.points)
        # one for the row scale, then one per residual but the first: the
        # zero start's residual is the forcing's, with no convolution
        assert calls == {"conv": len(field.picard_diffs)}

    def test_geometry_memory_bounded_by_blocks(self):
        # a single (P, S) exit-distance pass peaked at 272 MB here
        tracemalloc.start()
        try:
            solve_w(BALL, f_up, LatticeSpec(32), SphereGrid())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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

    def test_gmres_matches_the_plain_solve(self, monkeypatch):
        field = solve_w(BALL, f_up, LatticeSpec(16), SPHERE)
        plain_loop = lambda *args, **kwargs: FixedPoint(*_plain_loop(*args, **kwargs))  # noqa: E731
        monkeypatch.setattr(radgas.domain3d, "fixed_point", plain_loop)
        plain = solve_w(BALL, f_up, LatticeSpec(16), SPHERE)
        assert field.converged and plain.converged
        assert len(field.picard_diffs) <= 16 < len(plain.picard_diffs)
        # both stop within tol / (1 - ratio) of the fixed point in the max norm
        bound = 1e-10 / (1.0 - field.kernel_mass.max())
        assert np.max(np.abs(field.values - plain.values)) <= bound

    @pytest.mark.parametrize("n", [16, 32])
    def test_isotropic_ball_exact_in_few_sweeps(self, n):
        field = solve_w(BALL, f_iso, LatticeSpec(n), SphereGrid())
        assert field.converged
        assert len(field.picard_diffs) <= 16
        assert np.max(np.abs(field.values - 1.0)) <= 1e-10
        assert field.picard_ratio == field.kernel_mass.max()

    def test_no_interior_cell_centre_raises_not_interior(self):
        # a radius-0.03 sphere in a [-1, 1]^3 box holds none of the 8^3 centres
        tiny = ImplicitDomain(lambda p: np.sqrt(np.sum(p**2, axis=-1)) - 0.03, (-1, -1, -1), (1, 1, 1))
        with pytest.raises(NotInterior):
            solve_w(tiny, f_iso, LatticeSpec(8), SPHERE)

    def test_lattice_points_strictly_interior(self):
        field = solve_w(BALL, f_iso, LatticeSpec(12), SPHERE)
        assert np.all(BALL.contains(field.points))

    def test_max_iter_reported_as_not_converged(self, monkeypatch):
        def capped(apply, b, tol, max_iter):
            return radgas.picard.fixed_point(apply, b, tol, max_iter=2)

        monkeypatch.setattr(radgas.domain3d, "fixed_point", capped)
        field = solve_w(BALL, f_iso, LatticeSpec(12), SPHERE)
        assert len(field.picard_diffs) == 2
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
