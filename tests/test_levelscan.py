"""Level scan, marching squares, and the smoothness report."""

import numpy as np
import pytest

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
FAST = TripleQuadSpec(n_r=48, n_rho=48)


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

    def test_singular_cells_recorded_not_fatal(self, monkeypatch):
        import radgas.levelscan as mod
        from radgas import SingularDenominator

        real = mod.L_func

        def patched(T1, T2, consts, spec, funcs=None):
            if T1 == 10.0 and T2 == 10.3:
                raise SingularDenominator("synthetic singular cell")
            return real(T1, T2, consts, spec, funcs=funcs)

        monkeypatch.setattr(mod, "L_func", patched)
        result = scan(ScanWindow(10.0, 10.6, 10.0, 10.6, 0.3), FIG1, FAST)
        assert result.failures == [(0, 1)]
        assert np.isnan(result.grid[0, 1])
        finite = np.delete(result.grid.ravel(), 1)
        assert np.all(np.isfinite(finite))


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
