"""The shared fixed-point loop: stopping test, iteration cap, contraction ratio."""

import numpy as np
import pytest

from radgas.picard import fixed_point


def _affine_contraction(n=12, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.0, 1.0, size=(n, n))
    A *= 0.6 / A.sum(axis=1, keepdims=True)  # row sums 0.6: a max-norm contraction
    return A, rng.normal(size=n)


def test_affine_contraction_matches_direct_solve():
    A, g = _affine_contraction()
    fp = fixed_point(lambda x: A @ x + g, np.zeros_like(g), tol=1e-13, max_iter=1000)
    assert fp.converged
    assert fp.iterations == len(fp.diffs) < 1000
    np.testing.assert_allclose(fp.x, np.linalg.solve(np.eye(len(g)) - A, g), rtol=0, atol=1e-12)
    assert fp.diffs[-1] <= 1e-13 * max(1.0, np.max(np.abs(fp.x)))


def test_capped_loop_reports_not_converged():
    A, g = _affine_contraction()
    fp = fixed_point(lambda x: A @ x + g, np.zeros_like(g), tol=1e-13, max_iter=2)
    assert fp.converged is False
    assert fp.iterations == 2
    np.testing.assert_array_equal(fp.x, A @ g + g)
    assert fp.ratio(0.6) == 0.6  # too few sweeps: the caller's analytic bound


def test_ratio_is_the_contraction_factor():
    # x <- a x + b moves by exactly a times the previous move
    fp = fixed_point(lambda x: 0.5 * x + 1.0, np.zeros(1), tol=1e-14, max_iter=200)
    assert fp.converged
    assert fp.x[0] == pytest.approx(2.0, abs=1e-13)
    assert fp.ratio(1.0) == pytest.approx(0.5, rel=1e-12)


def test_fixed_point_start_stops_at_once():
    fp = fixed_point(lambda x: x, np.ones(4), tol=1e-12, max_iter=10)
    assert fp.converged
    assert fp.iterations == 1
    assert fp.diffs == [0.0]
