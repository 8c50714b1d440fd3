"""Level scan, marching squares, and the smoothness report."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from radgas import levelscan
from radgas import PhysConsts, TripleQuadSpec, EmptyLevel
from radgas.levelscan import (
    ContourSet,
    ScanResult,
    ScanWindow,
    extract_contours,
    scan,
    smoothness_report,
)

FIG1 = PhysConsts(epsilon0=1.0, sigma=1.0, c0=1.0)
FAST = TripleQuadSpec(n_r=48)


#: A window holds temperatures, which are positive, so a synthetic field on
#: [x0, x1] x [y0, y1] is laid on the window shifted by OFFSET on both axes.
OFFSET = 2.0


def synthetic_result(field, t1=(0.0, 1.0), t2=(0.0, 1.0), n=10):
    step = (t1[1] - t1[0]) / n
    window = ScanWindow(t1[0] + OFFSET, t1[1] + OFFSET, t2[0] + OFFSET, t2[1] + OFFSET, step)
    T1, T2 = np.meshgrid(window.t1_values(), window.t2_values(), indexing="ij")
    return ScanResult(grid=field(T1 - OFFSET, T2 - OFFSET), window=window, failures=[])


class TestScanWindow:
    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError, match="min < max"):
            ScanWindow(2.0, 1.0, 1.0, 2.0, 0.1)
        with pytest.raises(ValueError, match="does not divide"):
            ScanWindow(1.0, 2.0, 1.0, 2.0, 0.3)

    @pytest.mark.parametrize("t1_min, t2_min", [(-1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1.0, -0.0)])
    def test_rejects_non_positive_temperatures(self, t1_min, t2_min):
        with pytest.raises(ValueError, match="temperatures must be > 0"):
            ScanWindow(t1_min, 2.0, t2_min, 2.0, 0.5)

    def test_degenerate_two_by_two(self):
        w = ScanWindow(1.0, 2.0, 1.0, 2.0, 1.0)
        assert w.n1 == w.n2 == 1
        assert len(w.t1_values()) == 2


class TestScan:
    def test_figure_window_coarse(self):
        # quarter-resolution probe of the published window; the acceptance
        # suite runs the full 21x21 grid
        window = ScanWindow(10.0, 12.0, 10.0, 12.0, 0.4)
        result = scan(window, FIG1, FAST)
        assert result.failures == []
        assert np.all(np.isfinite(result.grid))
        assert result.grid.shape == (6, 6)

    def test_diagonal_cells_finite(self):
        window = ScanWindow(10.0, 11.0, 10.0, 11.0, 0.5)
        result = scan(window, FIG1, FAST)
        # cells with T1 == T2 rely on the H(T,T) = exp(-2 eps0/T) collapse
        assert np.isfinite(result.grid[0, 0])
        assert np.isfinite(result.grid[2, 2])

    def test_scan_pure_and_order_independent(self):
        window = ScanWindow(10.0, 10.6, 10.0, 10.6, 0.3)
        a = scan(window, FIG1, FAST).grid
        b = scan(window, FIG1, FAST).grid
        np.testing.assert_array_equal(a, b)

    def test_unusable_functionals_recorded_not_fatal(self):
        # every quadrature weight underflows, so no functional is positive
        spec = TripleQuadSpec(r_max=1e-300, n_r=16)
        result = scan(ScanWindow(10.0, 10.2, 10.0, 10.1, 0.1), FIG1, spec)
        assert result.failures == [(i, j) for i in range(3) for j in range(2)]
        assert np.isnan(result.grid).all()

    def test_singular_cells_recorded_not_fatal(self, monkeypatch):
        import radgas.collision_reduction as mod

        real = mod._pair_integrals

        def patched(T1, T2, epsilon0, spec):
            # P21 = 0 at (10.0, 10.3) only: that node's functionals are unusable
            g0, gd, fd, b2 = real(T1, T2, epsilon0, spec)
            return g0, np.where((T1 == 10.0) & (T2 == 10.3), 0.0, gd), fd, b2

        monkeypatch.setattr(mod, "_pair_integrals", patched)
        result = scan(ScanWindow(10.0, 10.6, 10.0, 10.6, 0.3), FIG1, FAST)
        assert result.failures == [(0, 1)]
        assert np.isnan(result.grid[0, 1])
        finite = np.delete(result.grid.ravel(), 1)
        assert np.all(np.isfinite(finite))


def assert_scan_matches_per_node(window, consts, spec):
    with np.errstate(all="ignore"):
        got, want = scan(window, consts, spec), oracles.scan_per_node(window, consts, spec)
    assert got.grid.tobytes() == want.grid.tobytes()
    assert got.failures == want.failures
    return got


class TestScanMatchesPerNodeOracle:
    """`scan`, a T1 row at a time as arrays, against the per-node loop it
    replaced, bit for bit: grid, NaNs and failures alike."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        t1=st.floats(0.3, 40.0),
        t2=st.floats(0.3, 40.0),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        step=st.sampled_from([0.05, 0.1, 0.5, 1.0]),
        eps0=st.sampled_from([1.0, 0.3, 2.5, 1e-300, 1e12]),
        sigma=st.sampled_from([1.0, 0.1]),
        block=st.sampled_from([1, 3, 5, 2**12]),
    )
    def test_random_windows(self, t1, t2, shape, step, eps0, sigma, block):
        window = ScanWindow(t1, t1 + shape[0] * step, t2, t2 + shape[1] * step, step)
        with mock.patch.object(levelscan, "_BLOCK", block):
            assert_scan_matches_per_node(window, PhysConsts(epsilon0=eps0, sigma=sigma, c0=1.0), FAST)

    @pytest.mark.parametrize(
        "spec, consts",
        [
            (TripleQuadSpec(r_max=1e300, n_r=16), FIG1),
            (TripleQuadSpec(r_max=1e-300, n_r=16), FIG1),
            (TripleQuadSpec(n_r=16), PhysConsts(epsilon0=1e12, c0=1.0)),
            (TripleQuadSpec(n_r=16), PhysConsts(epsilon0=1e300, c0=1.0)),
        ],
        ids=["r-max-huge", "r-max-tiny", "epsilon0-1e12", "epsilon0-huge"],
    )
    def test_all_singular_windows(self, spec, consts):
        result = assert_scan_matches_per_node(ScanWindow(10.0, 10.2, 10.0, 10.2, 0.1), consts, spec)
        assert len(result.failures) == 9

    def test_bracket_pole_window(self):
        # the printed bracket changes sign in this window: L jumps from
        # about +112 to -744 between neighbouring nodes
        result = assert_scan_matches_per_node(ScanWindow(9.0, 12.0, 14.0, 20.0, 0.1), FIG1, TripleQuadSpec())
        assert result.grid.min() < -500 and result.grid.max() > 100

    def test_diagonal_gap_failures(self):
        # eps0 = 1e-300: exp(-2*eps0/T) is 1 and P11 = P21 at T2 = T1, so the
        # gap T2 - T1*H vanishes on the diagonal and nowhere else
        result = assert_scan_matches_per_node(
            ScanWindow(10.0, 10.4, 10.0, 10.4, 0.1), PhysConsts(epsilon0=1e-300, c0=1.0), FAST
        )
        assert result.failures == [(i, i) for i in range(5)]

    def test_row_longer_than_a_block(self):
        n2 = levelscan._BLOCK + 1
        window = ScanWindow(3.0, 3.01, 1.0, 1.0 + 0.01 * n2, 0.01)
        assert window.n2 + 1 > levelscan._BLOCK + 1
        assert_scan_matches_per_node(window, FIG1, TripleQuadSpec(n_r=16))


def test_multi_block_row_memory():
    # two rows of ten blocks each: the quadrature holds a few (block, n_r)
    # arrays at a time, 3 MB each (a peak of about 14 MB), where a whole row
    # at once would hold 31 MB arrays (a peak of about 126 MB)
    window = ScanWindow(10.0, 10.001, 1.0, 1.0 + 0.001 * 10 * levelscan._BLOCK, 0.001)
    tracemalloc.start()
    try:
        result = scan(window, FIG1, TripleQuadSpec())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.grid.shape == (2, 10 * levelscan._BLOCK + 1)
    assert peak <= 24 * 2**20


class TestExtractContours:
    def test_constant_grid_raises_empty_level(self):
        res = synthetic_result(lambda x, y: np.ones_like(x))
        with pytest.raises(EmptyLevel):
            extract_contours(res, [1.0])

    def test_linear_field_gives_vertical_line(self):
        res = synthetic_result(lambda x, y: x, n=8)
        cs = extract_contours(res, [0.4375])
        assert len(cs.polylines[0]) == 1
        chain = cs.polylines[0][0]
        assert np.max(np.abs(chain[:, 0] - OFFSET - 0.4375)) < 1e-12
        # spans the full window in T2
        assert chain[:, 1].min() == pytest.approx(OFFSET, abs=1e-12)
        assert chain[:, 1].max() == pytest.approx(OFFSET + 1.0, abs=1e-12)

    def test_vertex_interpolation_is_exact_on_edges(self):
        res = synthetic_result(lambda x, y: x**2 + y, n=16)
        level = 0.83
        cs = extract_contours(res, [level])
        grid, w = res.grid, res.window
        for chain in cs.polylines[0]:
            for t1, t2 in chain:
                x = (t1 - w.t1_min) / w.step
                y = (t2 - w.t2_min) / w.step
                # vertex sits on a cell edge; linear interpolation of the grid
                # along that edge must reproduce the level exactly
                if abs(x - round(x)) < 1e-12:
                    i = int(round(x))
                    j = int(np.floor(y))
                    frac = y - j
                    val = grid[i, j] * (1 - frac) + grid[i, j + 1] * frac
                else:
                    j = int(round(y))
                    i = int(np.floor(x))
                    frac = x - i
                    val = grid[i, j] * (1 - frac) + grid[i + 1, j] * frac
                assert val == pytest.approx(level, abs=1e-12)

    def test_consecutive_vertices_within_cell_diagonal(self):
        res = synthetic_result(lambda x, y: np.sin(3 * x) + np.cos(2 * y), n=20)
        cs = extract_contours(res, [0.3])
        step = res.window.step
        for chain in cs.polylines[0]:
            gaps = np.linalg.norm(np.diff(chain, axis=0), axis=1)
            assert np.max(gaps) <= np.sqrt(2.0) * step + 1e-12

    def test_vertices_inside_window(self):
        res = synthetic_result(lambda x, y: x * x + y * y, n=12)
        cs = extract_contours(res, [0.9])
        w = res.window
        for chain in cs.polylines[0]:
            assert np.all(chain[:, 0] >= w.t1_min - 1e-12)
            assert np.all(chain[:, 0] <= w.t1_max + 1e-12)
            assert np.all(chain[:, 1] >= w.t2_min - 1e-12)
            assert np.all(chain[:, 1] <= w.t2_max + 1e-12)


#: Grid values of the drawn windows: few, so that corners tie with each other
#: and with the levels, and saddles are common.
_VALUES = [-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 0.1 * np.pi]


def _window(grid):
    n1, n2 = grid.shape[0] - 1, grid.shape[1] - 1
    window = ScanWindow(1.0, 1.0 + 0.5 * n1, 2.0, 2.0 + 0.5 * n2, 0.5)
    return ScanResult(grid=grid, window=window, failures=[])


@st.composite
def _windows_and_levels(draw):
    """A window of up to 12 x 12 nodes, some of them NaN, and 1 to 6 levels,
    unsorted and possibly repeated, most of them equal to a grid value."""
    shape = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
    cells = st.sampled_from(_VALUES + [np.nan]) | st.floats(-2.0, 2.0)
    grid = np.array(draw(st.lists(cells, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])))
    level = st.sampled_from(_VALUES) | st.floats(-1.5, 1.5)
    return grid.reshape(shape), draw(st.lists(level, min_size=1, max_size=6))


def _saddle_window():
    # cells (0, 0) and (1, 1) have code 5 (v00 and v11 above) at every level
    # in [0, 1) and a corner average of 0.5; cells (1, 0) and (0, 1) have
    # code 10 at every level in [0, 0.5) and an average of 0.375
    return np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])


def _two_contour_window():
    # at the level 2.1e-15 the nodes (2, 2) and (2, 4) are above it and the
    # node (2, 3) = 0 between them is below it: two level curves, whose
    # crossings of the edges beside (2, 3) are 1e-14 grid units apart
    grid = np.full((5, 5), -1.0)
    grid[2] = [-1.0, -1.0, 1.0, 0.0, 0.25]
    return grid, [2.1060356181620714e-15]


class TestArrayPassMatchesPerCellLoop:
    """`extract_contours` and `smoothness_report` against the per-cell and
    per-chain loops they replaced, bit for bit."""

    @staticmethod
    def assert_same(grid, levels):
        result = _window(grid)
        try:
            want = oracles.extract_contours_per_cell(result, levels)
        except EmptyLevel as exc:
            with pytest.raises(EmptyLevel) as got:
                extract_contours(result, levels)
            assert str(got.value) == str(exc)
            return None
        got = extract_contours(result, levels)
        assert got.levels == want.levels
        assert got.saddle_counts == want.saddle_counts
        assert [len(p) for p in got.polylines] == [len(p) for p in want.polylines]
        for got_chains, want_chains in zip(got.polylines, want.polylines):
            for a, b in zip(got_chains, want_chains):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert smoothness_report(result, got) == oracles.smoothness_report_per_chain(result, want)
        return got

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(case=_windows_and_levels())
    @example(case=(_saddle_window(), [0.6, 0.4, 0.5, 0.4]))  # both resolutions, duplicates
    @example(case=(_saddle_window()[::-1].copy(), [0.3, 0.8]))  # codes 10 and 5 swapped
    @example(case=(np.array([[0.0, 1.0, np.nan, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0, 1.0]]), [0.5, 0.0, 1.0]))
    @example(case=(np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [np.nan, 1.0]]), [0.5, 0.25, 0.75]))
    @example(case=_two_contour_window())
    @example(case=(np.array([[-1e308, 1e308, -1e308], [1e308, -1e308, 1e308], [-1e308, 1e308, 0.0]]), [9e307, 0.0]))
    def test_random_windows(self, case):
        # corner differences of +-1e308 overflow: such crossings are NaN or sit on a node
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_same(*case)

    @pytest.mark.parametrize("levels, code", [([0.4], 5), ([0.6], 5), ([0.4], 10), ([0.6], 10)])
    def test_both_saddle_resolutions(self, levels, code):
        grid = _saddle_window()[:2, :2].copy()
        if code == 10:
            grid = 1.0 - grid
        got = self.assert_same(grid, levels)
        assert got.saddle_counts == [1]
        assert len(got.polylines[0]) == 2

    def test_nearby_crossings_of_two_curves_stay_apart(self):
        got = self.assert_same(*_two_contour_window())
        assert [len(chain) for chain in got.polylines[0]] == [5, 3]
        row = smoothness_report(_window(_two_contour_window()[0]), got)["levels"][0]
        assert row["components"] == 2 and row["flagged"]

    def test_level_on_a_corner_counts_it_below(self):
        # v > level is above: the level 0.5 crosses only the cells with a corner above it
        grid = np.array([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]])
        got = self.assert_same(grid, [0.5])
        np.testing.assert_array_equal(got.polylines[0][0][:, 1], [2.5, 2.5])

    def test_empty_level_named_in_input_order(self):
        grid = np.array([[0.0, 1.0], [1.0, 2.0]])
        for levels, empty in (([0.5, 3.0, -1.0], 3.0), ([0.5, -1.0, 3.0], -1.0), ([2.0, 0.5], 2.0)):
            with pytest.raises(EmptyLevel, match=f"^level {empty} intersects no grid cell$"):
                extract_contours(_window(grid), levels)
            self.assert_same(grid, levels)

    def test_no_levels(self):
        got = self.assert_same(np.array([[0.0, 1.0], [1.0, 2.0]]), [])
        assert got.polylines == [] and got.saddle_counts == []


def test_large_window_memory():
    # 500 x 500 cells with 20 levels: the pass reads the corners as views of
    # the grid and holds a few arrays per cell, not a copy per corner
    field = lambda x, y: np.sin(7.0 * x) * np.cos(5.0 * y) + 0.3 * x  # noqa: E731
    small, large = synthetic_result(field, n=100), synthetic_result(field, n=500)
    levels = np.linspace(small.grid.min(), small.grid.max(), 22)[1:-1]
    tracemalloc.start()
    try:
        report = smoothness_report(large, extract_contours(large, levels))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    want = oracles.smoothness_report_per_chain(small, oracles.extract_contours_per_cell(small, levels))
    assert [r["components"] for r in report["levels"]] == [r["components"] for r in want["levels"]]
    assert max(r["components"] for r in report["levels"]) > 1


class TestSmoothnessReport:
    def test_saddle_field_flagged(self):
        res = synthetic_result(lambda x, y: x * y, t1=(-1.0, 1.0), t2=(-1.0, 1.0), n=3)
        cs = extract_contours(res, [0.0])
        rep = smoothness_report(res, cs)
        assert rep["levels"][0]["saddles"] >= 1
        assert rep["levels"][0]["flagged"]

    def test_empty_contour_set_empty_report(self):
        res = synthetic_result(lambda x, y: x, n=4)
        rep = smoothness_report(res, ContourSet(levels=[], polylines=[], saddle_counts=[]))
        assert rep["levels"] == []
        assert not rep["any_flagged"]

    def test_figure_window_single_components(self):
        window = ScanWindow(10.0, 12.0, 10.0, 12.0, 0.4)
        result = scan(window, FIG1, FAST)
        lo, hi = result.grid.min(), result.grid.max()
        levels = np.linspace(lo, hi, 10)[1:-1]
        cs = extract_contours(result, levels)
        rep = smoothness_report(result, cs)
        for row in rep["levels"]:
            assert row["components"] == 1
            assert row["saddles"] == 0
        assert not rep["any_flagged"]

    def test_report_stable_under_refinement(self):
        coarse = scan(ScanWindow(10.0, 12.0, 10.0, 12.0, 0.5), FIG1, FAST)
        fine = scan(ScanWindow(10.0, 12.0, 10.0, 12.0, 0.25), FIG1, FAST)
        lo = max(coarse.grid.min(), fine.grid.min())
        hi = min(coarse.grid.max(), fine.grid.max())
        levels = np.linspace(lo, hi, 6)[1:-1]
        rc = smoothness_report(coarse, extract_contours(coarse, levels))
        rf = smoothness_report(fine, extract_contours(fine, levels))
        assert [r["components"] for r in rc["levels"]] == [
            r["components"] for r in rf["levels"]
        ]
