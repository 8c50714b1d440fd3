"""The shared fixed-point loop: stopping test, iteration cap and Anderson
mixing, against the plain Picard loop and a direct solve."""

import numpy as np
import pytest

from radgas.picard import fixed_point


def _affine_contraction(n=12, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A *= 0.6 / A.sum(axis=1, keepdims=True)  # row sums 0.6: a max-norm contraction
    return A, rng.normal(size=n)


def _plain_loop(step, x0, tol, max_iter):
    """The plain Picard loop x_(k+1) = step(x_k), with fixed_point's stopping test."""
    x, diffs = x0, []
    for iterations in range(1, max_iter + 1):
        x, prev = step(x), x
        diffs.append(float(np.max(np.abs(x - prev))))
        if diffs[-1] <= tol * max(1.0, float(np.max(np.abs(x)))):
            return x, iterations, True, diffs
    return x, max_iter, False, diffs


def test_matches_plain_loop_and_direct_solve_in_fewer_sweeps():
    A, g = _affine_contraction()
    fp = fixed_point(lambda x: A @ x + g, np.zeros_like(g), tol=1e-13, max_iter=1000)
    x, iterations, converged, _ = _plain_loop(lambda x: A @ x + g, np.zeros_like(g), 1e-13, 1000)
    assert fp.converged and converged
    assert fp.iterations == len(fp.diffs) < iterations
    np.testing.assert_allclose(fp.x, np.linalg.solve(np.eye(len(g)) - A, g), rtol=0, atol=1e-12)
    np.testing.assert_allclose(fp.x, x, rtol=0, atol=1e-12)
    assert fp.diffs[-1] <= 1e-13 * max(1.0, np.max(np.abs(fp.x)))


def test_capped_loop_reports_not_converged():
    A, g = _affine_contraction()
    fp = fixed_point(lambda x: A @ x + g, np.zeros_like(g), tol=1e-13, max_iter=2)
    assert fp.converged is False
    assert fp.iterations == len(fp.diffs) == 2
    np.testing.assert_array_equal(fp.x, A @ g + g)  # the first sweep is never mixed


def test_fixed_point_start_stops_at_once():
    fp = fixed_point(lambda x: x, np.ones(4), tol=1e-12, max_iter=10)
    assert fp.converged
    assert fp.iterations == 1
    assert fp.diffs == [0.0]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_residual_stops_unconverged(bad):
    # inf <= tol * max(1, inf) would pass the stopping test, and NaN breaks Anderson's lstsq
    steps = []

    def step(x):
        steps.append(x)
        return np.full_like(x, bad)

    fp = fixed_point(step, np.zeros(4), tol=1e-12, max_iter=10)
    assert fp.converged is False
    assert fp.iterations == len(steps) == 1
    assert not np.isfinite(fp.diffs[0])
