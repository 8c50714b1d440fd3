"""The shared fixed-point solve: GMRES's stopping test, iteration cap, restarts
and non-finite guard, against a direct solve, the plain Picard loop and the
windowed Anderson loop it replaced."""

import json

import numpy as np
import pytest

import radgas.domain3d
import radgas.picard
import radgas.slab
import radgas.three_level
from radgas.cli import main
from radgas.picard import FixedPoint, fixed_point

#: the thick three-level corners, kappa about 50 and 256, where the Anderson
#: loop needed 1175 sweeps and stopped unconverged after 2000 at n_y 65
CORNERS = {
    "kappa50": ["three-level", "--gamma1", "1", "--eps", "5", "--t0", "2", "--rho0", "10", "--p12", "10"],
    "kappa256": ["three-level", "--eps", "5", "--t0", "10", "--rho0", "100"],
}


def _affine_contraction(n=12, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A *= 0.6 / A.sum(axis=1, keepdims=True)  # row sums 0.6: a max-norm contraction
    return A, rng.normal(size=n)


def _plain_loop(apply, b, tol, max_iter):
    """The plain Picard loop x_(k+1) = K x_k + b from x_0 = 0, with
    fixed_point's stopping test; one residual per step, K 0 + b included."""
    x, diffs = np.zeros_like(b), []
    for _ in range(max_iter):
        x, prev = apply(x) + b, x
        diffs.append(float(np.max(np.abs(x - prev))))
        if diffs[-1] <= tol * max(1.0, float(np.max(np.abs(x)))):
            return x, True, diffs
    return x, False, diffs


def _anderson_loop(apply, b, tol, max_iter):
    """The former loop of every solver, kept as the oracle: type-II Anderson
    mixing with a window of 5 (Walker and Ni, SIAM J. Numer. Anal. 49, 2011).
    From x_0 = 0, with g_k = K x_k + b, f_k = g_k - x_k and dF, dG the last 5
    differences of f and g, gamma minimises |f_k - dF gamma|_2 and
    x_(k+1) = g_k - dG gamma; the first sweep is plain.  Same stopping test
    as fixed_point; one residual per sweep, K 0 + b included."""
    x = np.zeros_like(b)
    diffs, dF, dG = [], [], []
    for _ in range(max_iter):
        g = apply(x) + b
        f = g - x
        diffs.append(float(np.max(np.abs(f))))
        if not np.isfinite(diffs[-1]):
            return FixedPoint(g, False, diffs)
        if diffs[-1] <= tol * max(1.0, float(np.max(np.abs(g)))):
            return FixedPoint(g, True, diffs)
        x = g
        if len(diffs) > 1:
            dF = (dF + [f - f_prev])[-5:]
            dG = (dG + [g - g_prev])[-5:]
            gamma = np.linalg.lstsq(np.stack(dF, axis=1), f, rcond=None)[0]
            x = g - np.stack(dG, axis=1) @ gamma
        f_prev, g_prev = f, g
    return FixedPoint(g, False, diffs)


def test_matches_plain_loop_and_direct_solve_in_fewer_sweeps():
    A, g = _affine_contraction()
    fp = fixed_point(lambda x: A @ x, g, tol=1e-13, max_iter=1000)
    x, converged, plain_diffs = _plain_loop(lambda x: A @ x, g, 1e-13, 1000)
    assert fp.converged and converged
    assert len(fp.diffs) < len(plain_diffs)
    np.testing.assert_allclose(fp.x, np.linalg.solve(np.eye(len(g)) - A, g), rtol=0, atol=1e-12)
    np.testing.assert_allclose(fp.x, x, rtol=0, atol=1e-12)
    assert fp.diffs[-1] <= 1e-13 * max(1.0, np.max(np.abs(fp.x)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [5, 40, 300])
def test_random_nonsymmetric_contractions_match_direct_solve(n, seed):
    rng = np.random.default_rng(1000 * n + seed)
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.abs(A).sum(axis=1, keepdims=True)  # signed, nonsymmetric, max norm 0.9
    b = 10.0 * rng.normal(size=n)
    fp = fixed_point(lambda x: A @ x, b, tol=1e-13, max_iter=200)
    want = np.linalg.solve(np.eye(n) - A, b)
    scale = max(1.0, float(np.max(np.abs(want))))
    assert fp.converged
    assert len(fp.diffs) <= n + 2
    # |step(x) - x*| <= 0.9 |x - x*| <= 0.9 |step(x) - x| / (1 - 0.9), the residual within tol
    assert np.max(np.abs(fp.x - want)) <= 9.0 * 1e-13 * scale * (1.0 + 1e-9)


def test_restarts_when_the_basis_fills(monkeypatch):
    A, g = _affine_contraction(n=40, seed=7)
    A *= 0.95 / 0.6
    full = fixed_point(lambda x: A @ x, g, tol=1e-13, max_iter=500)
    # three columns of 40 values: every Arnoldi cycle stops after three products
    monkeypatch.setattr(radgas.picard, "_BASIS_BYTES", 3 * g.nbytes)
    restarted = fixed_point(lambda x: A @ x, g, tol=1e-13, max_iter=500)
    assert full.converged and restarted.converged
    assert len(restarted.diffs) > len(full.diffs)
    want = np.linalg.solve(np.eye(len(g)) - A, g)
    np.testing.assert_allclose(restarted.x, want, rtol=0, atol=1e-11)


def test_constant_step_is_exact_after_one_product():
    # K = 0: the first Arnoldi vector e_1 spans an invariant Krylov space
    b = np.array([2.0, 0.0, 0.0])
    fp = fixed_point(np.zeros_like, b, tol=1e-13, max_iter=10)
    assert fp.converged
    assert fp.diffs == [2.0, 0.0, 0.0]
    np.testing.assert_array_equal(fp.x, b)


def test_tracked_residual_is_the_true_residual():
    # capped after k calls, the solve returns its k-th iterate unevaluated: the
    # max norm the Givens rotations tracked for it is its true residual
    rng = np.random.default_rng(11)
    A = rng.normal(size=(40, 40))
    A *= 0.9 / np.abs(A).sum(axis=1, keepdims=True)
    b = rng.normal(size=40)
    apply = lambda x: A @ x  # noqa: E731
    for k in range(2, len(fixed_point(apply, b, tol=1e-13, max_iter=100).diffs)):
        fp = fixed_point(apply, b, tol=1e-13, max_iter=k)
        assert not fp.converged
        true = float(np.max(np.abs(apply(fp.x) + b - fp.x)))
        assert abs(fp.diffs[-1] - true) <= 1e-12 * max(1.0, true)


@pytest.mark.parametrize(
    "apply",
    [lambda x: x, lambda x: np.where(x == 0.0, 0.0, np.inf)],
    ids=["(I - K) v rounds to 0", "K v overflows"],
)
def test_singular_or_overflowing_product_stops_unconverged(apply):
    with np.errstate(all="ignore"):
        fp = fixed_point(apply, np.ones(4), tol=1e-12, max_iter=10)
    assert fp.converged is False
    assert len(fp.diffs) == 2
    assert np.isnan(fp.diffs[-1])


def test_capped_loop_reports_not_converged():
    A, g = _affine_contraction()
    fp = fixed_point(lambda x: A @ x, g, tol=1e-13, max_iter=2)
    assert fp.converged is False
    assert len(fp.diffs) == 2


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_residual_stops_unconverged(bad):
    # inf <= tol * max(1, inf) would pass the stopping test, and NaN would poison the basis
    applied = []
    fp = fixed_point(applied.append, np.full(4, bad), tol=1e-12, max_iter=10)
    assert fp.converged is False
    assert len(fp.diffs) == 1 and applied == []
    assert not np.isfinite(fp.diffs[0])


def _run_recorded(tmp_path, monkeypatch, module, argv, solve):
    """Run argv with `solve` in place of module.fixed_point; returns the exit
    code and (apply, tol, result) of the one solve."""
    runs = []

    def recorded(apply, b, tol, max_iter):
        runs.append((apply, tol, solve(apply, b, tol, max_iter)))
        return runs[-1][2]

    monkeypatch.setattr(module, "fixed_point", recorded)
    code = main([*argv, "--out", str(tmp_path / f"run{len(list(tmp_path.iterdir()))}")])
    assert len(runs) == 1
    return code, runs[0]


#: one run of each subcommand that solves a fixed point, with the module it calls fixed_point from
SOLVES = pytest.mark.parametrize(
    "module, argv",
    [
        (radgas.slab, ["slab-lte", "--n-y", "257"]),
        (radgas.slab, ["slab-exp", "--n-y", "257"]),
        (radgas.three_level, ["three-level"]),
        (radgas.domain3d, ["domain3d", "--lattice-n", "16"]),
    ],
    ids=["slab-lte", "slab-exp", "three-level", "domain3d"],
)


@SOLVES
def test_applies_the_operator_once_per_residual_but_the_first(tmp_path, monkeypatch, module, argv):
    # the zero start's residual is max|b|, which takes no product
    applied = []

    def counting(apply, b, tol, max_iter):
        def counted(v):
            applied.append(v)
            return apply(v)

        return fixed_point(counted, b, tol, max_iter)

    code, (_, _, result) = _run_recorded(tmp_path, monkeypatch, module, argv, counting)
    assert code == 0 and result.converged
    assert len(applied) == len(result.diffs) - 1
    assert all(np.any(v) for v in applied)


@SOLVES
def test_no_more_products_than_anderson_and_agrees(tmp_path, monkeypatch, module, argv):
    code, (apply, tol, gmres) = _run_recorded(tmp_path, monkeypatch, module, argv, fixed_point)
    old_code, (_, _, anderson) = _run_recorded(tmp_path, monkeypatch, module, argv, _anderson_loop)
    assert code == old_code == 0
    assert gmres.converged and anderson.converged
    assert len(gmres.diffs) <= len(anderson.diffs)
    # K is non-negative, so its max norm is max(K 1); each result is within
    # tol * max(1, max|x|) / (1 - |K|) of the fixed point
    n = len(gmres.x)
    norm_K = float(np.max(apply(np.ones(n))))
    within = tol * max(1.0, float(np.max(np.abs(anderson.x)))) / (1.0 - norm_K)
    assert np.max(np.abs(gmres.x - anderson.x)) <= 2.0 * within


@pytest.mark.parametrize("corner, rtol", [("kappa50", 1e-11), ("kappa256", 1e-10)])
def test_thick_corners_match_the_levinson_source(tmp_path, monkeypatch, corner, rtol):
    # rtol: how close the Levinson source is to a dense LU there (test_three_level.CORNERS)
    direct = []
    solve_shifted = radgas.slab._CellToeplitz.solve_shifted

    def recorded(A, g):
        direct.append(solve_shifted(A, g))
        return direct[-1]

    monkeypatch.setattr(radgas.slab._CellToeplitz, "solve_shifted", recorded)
    argv = [*CORNERS[corner], "--n-y", "65"]
    code, (_, _, gmres) = _run_recorded(tmp_path, monkeypatch, radgas.three_level, argv, fixed_point)
    _, (_, _, anderson) = _run_recorded(tmp_path, monkeypatch, radgas.three_level, argv, _anderson_loop)
    assert code == 0 and gmres.converged
    assert len(gmres.diffs) <= len(anderson.diffs)
    assert len(direct) == 4  # per run, the Levinson solve and the refinement's correction
    source = direct[0]
    assert np.max(np.abs(gmres.x - source)) <= rtol * np.max(np.abs(source))


def test_kappa50_exits_zero_at_4097_after_refinement(tmp_path):
    # the Levinson source alone left path_gap at 1.39e-8 here, above the gate
    out = tmp_path / "kappa50"
    assert main([*CORNERS["kappa50"], "--n-y", "4097", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["path_gap"] < 2e-9
    assert 0 < report["direct_residual"] < 1e-12


@pytest.mark.parametrize("corner", list(CORNERS))
def test_thick_corners_exit_zero(tmp_path, corner):
    out = tmp_path / corner
    assert main([*CORNERS[corner], "--n-y", "65", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["path_gap"] < 1e-8
    assert report["picard_iterations"] <= 100
