"""Configuration parsing, artifact layout, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radgas.cli
import radgas.domain3d
import radgas.kinetic
import radgas.picard
import radgas.slab
from radgas import ConfigError
from radgas.cli import (
    SUBCOMMANDS,
    RunConfig,
    _SCHEMAS,
    _Artifacts,
    _fmt,
    _radiation_arrays,
    _strict_json,
    main,
    parse_config,
)
from radgas.slab import AngleGrid, RadiationField, SlabGrid
import oracles


# One small run per subcommand: n_y <= 65, lattice_n <= 12, n_samples <= 2e4,
# levelscan windows of at most 3 x 3 points at n_r = 16.
SMALL_RUNS = {
    "levelscan": ["levelscan", "--t1-max=10.2", "--t2-max=10.2", "--n-r=16"],
    "slab-lte": ["slab-lte", "--n-y=33", "--n-mu=16"],
    "slab-exp": ["slab-exp", "--n-y=33", "--n-mu=16"],
    "domain3d": ["domain3d", "--lattice-n=8", "--sphere-n-theta=8", "--sphere-n-phi=16"],
    "nonexist": ["nonexist", "--sphere-n-theta=8", "--sphere-n-phi=16"],
    "three-level": ["three-level", "--n-y=33", "--n-mu=16"],
    "verify": ["verify", "--n-samples=10000"],
}


class TestParseConfig:
    def test_minimal_levelscan_gets_defaults(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("t1_min = 10\nt1_max = 12\nt2_min = 10\nt2_max = 12\nstep = 0.1\n")
        config = parse_config("levelscan", str(cfg), {})
        assert config.values["step"] == 0.1
        assert config.values["n_levels"] == 8
        assert config.values["epsilon0"] == 1.0
        assert config.seed == 0

    def test_malformed_numeric_names_the_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("step = banana\n")
        with pytest.raises(ConfigError, match="step"):
            parse_config("levelscan", str(cfg), {})

    def test_unknown_key_rejected_with_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("step = 0.1\nwibble = 3\n")
        with pytest.raises(ConfigError, match="wibble"):
            parse_config("levelscan", str(cfg), {})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config("levelscan", "/nonexistent/path.cfg", {})

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("step = 0.1\n")
        config = parse_config("levelscan", str(cfg), {"step": "0.5", "seed": 7})
        assert config.values["step"] == 0.5
        assert config.seed == 7

    def test_round_trip_is_idempotent(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("step = 0.25\nn_levels = 4\nepsilon0 = 1\nsigma = 1\nc0 = 1\n")
        first = parse_config("levelscan", str(cfg), {})
        echoed = tmp_path / "echo.cfg"
        echoed.write_text("\n".join(first.lines()) + "\n")
        second = parse_config("levelscan", str(echoed), {})
        assert first.values == second.values
        assert first.seed == second.seed

    def test_out_of_range_value(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("step = -0.1\n")
        with pytest.raises(ConfigError, match="step"):
            parse_config("levelscan", str(cfg), {})

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    @settings(derandomize=True, deadline=None)
    @given(data=st.data())
    def test_one_override_parses_or_is_a_config_error(self, subcommand, data):
        # parse only: a drawn size could make a solver allocate without bound
        key = data.draw(st.sampled_from(sorted(_SCHEMAS[subcommand])), label="key")
        edges = st.sampled_from(["inf", "-inf", "nan", "0", "-1", "5e-324", "1e308", ""])
        raw = data.draw(st.one_of(edges, st.text(max_size=24), st.floats().map(repr)), label="raw")
        try:
            config = parse_config(subcommand, None, {key: raw})
        except ConfigError:
            return
        assert isinstance(config, RunConfig)


class TestCsvWriter:
    """The CSV writer against the per-value _fmt join, and the .npz writer."""

    @staticmethod
    def fmt_join(header, rows):
        return ",".join(header) + "\n" + "".join(",".join(_fmt(x) for x in row) + "\n" for row in rows)

    def test_matches_per_value_fmt(self, tmp_path):
        floats = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 0.1, 1 / 3, -2.5e-17, 1e16])
        n = len(floats)
        columns = [
            floats,
            list(range(-3, n - 3)),  # Python ints
            np.arange(n, dtype=np.int64) * 10**12,  # numpy ints
            np.arange(n) % 3 == 0,  # bools
            floats[::-1].copy(),
            np.array(["a", "", "long label", "-"] * 3, dtype=object)[:n],  # strings
        ]
        header = ["f", "py_int", "np_int", "flag", "g", "s"]
        art = _Artifacts(str(tmp_path))
        art.csv("t.csv", header, columns)
        assert (tmp_path / "t.csv").read_text() == self.fmt_join(header, zip(*columns))
        assert art.records == [{"name": "t.csv", "rows": n, "header": header}]

    @pytest.mark.parametrize("n", [199, 200, 605])
    def test_short_and_long_float_columns_match_per_value_fmt(self, tmp_path, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) * 10.0 ** rng.integers(-8, 19, size=n)
        x[:6] = [0.0, -0.0, np.nan, np.inf, 5e-324, 1e300]
        header = ["x", "k"]
        columns = [x, np.arange(n)]
        _Artifacts(str(tmp_path)).csv("t.csv", header, columns)
        assert (tmp_path / "t.csv").read_text() == self.fmt_join(header, zip(*columns))

    def test_zero_row_table_is_its_header(self, tmp_path):
        art = _Artifacts(str(tmp_path))
        art.csv("t.csv", ["x", "k"], [np.array([]), np.array([], dtype=np.int64)])
        assert (tmp_path / "t.csv").read_bytes() == b"x,k\n"
        assert art.records == [{"name": "t.csv", "rows": 0, "header": ["x", "k"]}]

    @pytest.mark.parametrize(
        "header, columns",
        [
            (["x", "k"], [np.arange(5.0), np.array([7])]),  # a length-1 column once broadcast
            (["x", "k"], [np.arange(3.0), np.arange(5)]),  # a shorter first column
            (["x"], [np.arange(5.0), np.arange(5)]),  # one header field for two columns
            (["x", "k", "v"], [np.arange(5.0), np.arange(5)]),
        ],
    )
    def test_mismatched_header_or_column_lengths_raise_before_writing(self, tmp_path, header, columns):
        art = _Artifacts(str(tmp_path))
        with pytest.raises(ValueError, match="t.csv"):
            art.csv("t.csv", header, columns)
        assert list(tmp_path.iterdir()) == []
        assert art.records == []

    @pytest.mark.parametrize("n_y, n_mu", [(17, 16), (16, 23)])
    def test_radiation_archive_rebuilds_the_row_order(self, tmp_path, n_y, n_mu):
        # per node the +mu rows, then the -mu rows: the recipe of the README
        grid, angles = SlabGrid(L=1.0, n_y=n_y), AngleGrid(n_mu=n_mu)
        rng = np.random.default_rng(5)
        field = RadiationField(grid, angles, rng.normal(size=(n_y, n_mu)), rng.normal(size=(n_y, n_mu)))
        art = _Artifacts(str(tmp_path))
        art.npz("radiation.npz", **_radiation_arrays(field))
        shapes = {"y": [n_y], "mu": [n_mu], "G_plus": [n_y, n_mu], "G_minus": [n_y, n_mu]}
        assert art.records == [{"name": "radiation.npz", "rows": None, "header": None, "shape": shapes}]
        z = np.load(tmp_path / "radiation.npz")
        n_y, n_mu = z["G_plus"].shape
        y, mu = np.repeat(z["y"], 2 * n_mu), np.tile(z["mu"], 2 * n_y)
        sign, G = np.tile(np.repeat([1, -1], n_mu), n_y), np.hstack([z["G_plus"], z["G_minus"]]).ravel()
        rows = [
            (float(yi), float(mj), s, g[i, j])
            for i, yi in enumerate(grid.y)
            for s, g in ((1, field.g_plus), (-1, field.g_minus))
            for j, mj in enumerate(angles.mu)
        ]
        assert list(zip(y.tolist(), mu.tolist(), sign.tolist(), G.tolist())) == rows

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
    def test_npz_keeps_every_float64_bit(self, bits):
        # any bit pattern (NaN payloads, -0.0, subnormals) is stored as it is
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        with tempfile.TemporaryDirectory() as out:
            _Artifacts(out).npz("x.npz", x=x, square=x[: len(x) // 2 * 2].reshape(2, -1))
            with np.load(os.path.join(out, "x.npz")) as z:
                assert z["x"].dtype == np.float64 and z["x"].tobytes() == x.tobytes()
                assert z["square"].shape == (2, len(x) // 2)

    def test_npz_rewrite_gives_identical_bytes(self, tmp_path, monkeypatch):
        # numpy dates every zip entry 1980-01-01: a write at another clock
        # time gives the same bytes
        x = np.random.default_rng(9).normal(size=(33, 16))
        _Artifacts(str(tmp_path / "a")).npz("x.npz", x=x, y=x[0])
        later, localtime = time.time() + 3e7, time.localtime
        monkeypatch.setattr(time, "time", lambda: later)
        monkeypatch.setattr(time, "localtime", lambda secs=None: localtime(later if secs is None else secs))
        _Artifacts(str(tmp_path / "b")).npz("x.npz", x=x, y=x[0])
        assert (tmp_path / "a" / "x.npz").read_bytes() == (tmp_path / "b" / "x.npz").read_bytes()

    def test_npz_record_of_empty_and_zero_dimensional_arrays(self, tmp_path):
        art = _Artifacts(str(tmp_path))
        art.npz("t.npz", empty=np.zeros((0, 3)), scalar=np.float64(2.5))
        assert art.records == [{"name": "t.npz", "rows": None, "header": None, "shape": {"empty": [0, 3], "scalar": []}}]
        with np.load(tmp_path / "t.npz") as z:
            assert z.files == ["empty", "scalar"]
            assert z["empty"].shape == (0, 3) and z["scalar"][()] == 2.5

    def test_radiation_archive_peak_memory(self, tmp_path):
        # the archive streams each array into the zip: no concatenated copy
        grid, angles = SlabGrid(L=1.0, n_y=4097), AngleGrid(n_mu=48)
        rng = np.random.default_rng(5)
        field = RadiationField(grid, angles, rng.random((4097, 48)), rng.random((4097, 48)))
        art = _Artifacts(str(tmp_path))
        art.npz("warm.npz", G=field.g_plus[:2])  # first-use allocations
        tracemalloc.start()
        try:
            art.npz("radiation.npz", **_radiation_arrays(field))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert art.records[-1]["shape"]["G_plus"] == [4097, 48]
        assert peak <= 2 * field.g_plus.nbytes + 2**20


class TestRun:
    def test_levelscan_artifacts(self, tmp_path):
        out = tmp_path / "scan"
        code = main(
            [
                "levelscan",
                "--step", "0.5",
                "--n-r", "48",
                "--c0", "1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        grid = (out / "grid.csv").read_text().splitlines()
        assert grid[0] == "T1,T2,L"
        assert len(grid) == 1 + 5 * 5  # header + (n1+1)*(n2+1) rows
        assert (out / "contours.csv").read_text().splitlines()[0] == "level,chain,T1,T2"
        report = json.loads((out / "report.json").read_text())
        assert not report["any_flagged"]
        manifest = json.loads((out / "manifest.json").read_text())
        names = {a["name"] for a in manifest["artifacts"]}
        assert {"grid.csv", "contours.csv", "report.json"} <= names
        assert manifest["artifacts"][0]["rows"] == 25

    def test_verify_quick_plan_passes(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--n-samples", "20000", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_pass"]
        assert [(c["name"], set(c)) for c in report["checks"]] == [
            ("detailed_balance", {"name", "value", "pass"}),
            ("weak_form_conservation", {"name", "rows", "pass"}),
            ("mass_exchange_vs_reduced", {"name", "mc", "std_error", "reduced", "pass"}),
            ("energy_exchange_vs_reduced", {"name", "mc", "std_error", "reduced", "pass"}),
            ("kernel_of_L", {"name", "rows", "pass"}),
            ("entropy_identity", {"name", "max_rel_error", "pass"}),
        ]
        moments = {"momentum_x", "momentum_y", "momentum_z", "energy"}
        rows = {c["name"]: c["rows"] for c in report["checks"] if "rows" in c}
        assert set(rows["weak_form_conservation"]) == moments
        assert set(rows["kernel_of_L"]) == {"number", *moments}
        for check_rows in rows.values():
            assert all(set(row) == {"value", "std_error"} for row in check_rows.values())

    # sha256 of report.json and report.txt of the default `verify`, pinned to
    # the bytes of the single-threaded pass: the loss side on its own thread,
    # the streamed draws, the row layout and the detailed-balance sweep beside
    # the loss side keep every bit.  Re-pinned when the energy-exchange check
    # joined: the other checks' entries kept every byte, and when the reduced
    # integrals became one radial axis: only the two `reduced` values moved,
    # by <= 1.9e-15 relative, and when the entropy identity took its
    # derivatives by complex step: only its max_rel_error moved, from
    # 3.3e-11 to 1.5e-16, and when the number-conservation row, 0.0 on every
    # tuple, was deleted: every other entry kept its bytes, and when the
    # weak-form pass moved to 16 shifts of a rank-1 lattice with paired
    # errors and the report gained its `plan`: every estimate moved, and the
    # detailed-balance, reduced and entropy entries kept their bytes, and
    # when the detailed-balance sweep moved onto the loss side's lattice
    # shifts: only the detailed-balance value moved, 5.3e-15 -> 7.3e-15
    # (seed 1) and 7.2e-15 -> 6.7e-15 (seed 47)
    VERIFY_REPORT_JSON = [
        ("1", "7ec4d1330a172e549216e89d3d1e30f6baad5893c874e3c5e29f299fc002558e"),
        ("47", "07a6ca98bd5e33950d81bbf646d7e7ab66e99aa8dccb483fb30b779a40ea1a70"),
    ]
    VERIFY_REPORT_TXT = "a38f6b99f6e33f873d2f3d3866ff5d55d85af1964a0090292d1a6a8145d8e823"

    def _verify_shas(self, out, seed):
        assert main(["verify", "--seed", seed, "--out", str(out)]) == 0
        sha = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()  # noqa: E731
        return sha("report.json"), sha("report.txt")

    @pytest.mark.parametrize("seed, report_json", VERIFY_REPORT_JSON)
    def test_verify_default_artifacts_pinned(self, tmp_path, capsys, seed, report_json):
        assert self._verify_shas(tmp_path / "verify", seed) == (report_json, self.VERIFY_REPORT_TXT)

    # side 1 (gain) runs on the calling thread, followed by the detailed-balance
    # sweep; side 0 (loss) on the worker
    @pytest.mark.parametrize("slow_side", [1, 0], ids=["caller", "worker"])
    def test_verify_bytes_do_not_depend_on_thread_timing(self, tmp_path, monkeypatch, slow_side):
        import radgas.kinetic

        add_chunk = radgas.kinetic._add_chunk

        def delayed(acc, problem, consts, side, normals, rows):
            if side == slow_side:
                time.sleep(2e-3)
            add_chunk(acc, problem, consts, side, normals, rows)

        monkeypatch.setattr(radgas.kinetic, "_add_chunk", delayed)
        shas = self._verify_shas(tmp_path / "verify", "1")
        assert shas == (dict(self.VERIFY_REPORT_JSON)["1"], self.VERIFY_REPORT_TXT)

    @pytest.mark.parametrize("seed", ["1", "6"])
    def test_verify_empty_detailed_balance_set_fails_without_traceback(self, tmp_path, seed):
        # at T 0.05 no lattice point is above the threshold: nothing to check
        out = tmp_path / "verify"
        argv = ["verify", "--t-lte", "0.05", "--n-samples", "10000", "--seed", seed, "--out", str(out)]
        assert main(argv) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["checks"][0] == {"name": "detailed_balance", "value": None, "pass": False}
        assert report["all_pass"] is False

    def test_verify_estimates_scale_exactly_at_a_huge_c0(self, tmp_path):
        # every Monte Carlo estimate carries c0^2, so c0 = 2^300 multiplies
        # each value and standard error by exactly 2^600: no square of a
        # weight or of a mean overflows on the way
        def run(c0):
            out = tmp_path / c0
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(SMALL_RUNS["verify"] + [f"--c0={c0}", "--out", str(out)]) == 0
            assert caught == []
            return json.loads((out / "report.json").read_text())

        def estimates(report):
            out = []
            for check in report["checks"]:
                out += [(row["value"], row["std_error"]) for row in check.get("rows", {}).values()]
                if "mc" in check:
                    out.append((check["mc"], check["std_error"]))
            return out

        base, huge = run("1"), run(repr(2.0**300))
        assert huge["all_pass"]
        assert len(estimates(base)) == 11
        assert estimates(huge) == [(math.ldexp(v, 600), math.ldexp(e, 600)) for v, e in estimates(base)]

    def test_verify_c0_kernel_scales_both_sides(self, tmp_path):
        # the Monte Carlo weights and the reduced rates are both linear in
        # C0_kernel, so halving it halves every estimate and every reduced
        # rate exactly, and every verdict stays
        def run(c0_kernel):
            out = tmp_path / c0_kernel
            argv = ["verify", "--n-samples=100000", f"--c0-kernel={c0_kernel}"]
            assert main(argv + ["--out", str(out)]) == 0
            return json.loads((out / "report.json").read_text())

        def values(report):
            out = []
            for check in report["checks"]:
                out += [(row["value"], row["std_error"]) for row in check.get("rows", {}).values()]
                if "mc" in check:
                    out.append((check["mc"], check["std_error"], check["reduced"]))
            return out

        full, half = run("2"), run("1")
        assert half["all_pass"] and full["all_pass"]
        assert [c["pass"] for c in half["checks"]] == [c["pass"] for c in full["checks"]]
        assert len(values(full)) == 11
        assert values(half) == [tuple(x / 2 for x in row) for row in values(full)]

    def test_nonexist_exit_code_and_artifact(self, tmp_path):
        out = tmp_path / "nx"
        code = main(["nonexist", "--out", str(out)])
        assert code == 1  # NONEXISTENT is reported through the exit code
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "NONEXISTENT"
        assert report["samples"]

    def test_exists_possible_exit_zero(self, tmp_path):
        out = tmp_path / "nx0"
        code = main(
            [
                "nonexist",
                "--domain", "ball",
                "--f-profile", "zero",
                "--samples", "0,0,0",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["verdict"] == "EXISTS_POSSIBLE"

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = main(["levelscan", "--step", "banana", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["domain3d", "--domain", "slab-box"], id="domain3d-domain"),
            pytest.param(["nonexist", "--domain", "cube"], id="nonexist-domain"),
            pytest.param(["nonexist", "--box", "1,2,3"], id="box-short"),
            pytest.param(["nonexist", "--box", "a,b,c,d,e,f"], id="box-not-numbers"),
            pytest.param(["nonexist", "--box", "0,0,0,1,1,inf"], id="box-infinite"),
            pytest.param(["domain3d", "--domain", "box", "--box", "1,-1,-1,-1,1,1"], id="box-inverted"),
            pytest.param(["nonexist", "--samples", "0,0"], id="samples-pair"),
            pytest.param(["nonexist", "--samples", ";"], id="samples-empty"),
            pytest.param(["nonexist", "--f-profile", "nope"], id="nonexist-profile"),
            pytest.param(["domain3d", "--f-profile", "nope"], id="domain3d-profile"),
        ],
    )
    def test_malformed_3d_config_exit_two(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["levelscan", "--n-r", "8"], id="n-r-below-16"),
            pytest.param(["levelscan", "--n-rho", "16"], id="n-rho-removed"),
            pytest.param(["levelscan", "--step", "0.3"], id="step-not-dividing"),
            pytest.param(["levelscan", "--t1-max", "10.25"], id="step-not-dividing-t1"),
            pytest.param(
                ["levelscan", "--epsilon0", "1e-12", "--t1-min", "1e-11", "--t1-max", "1.5e-11", "--t2-min", "1e-11",
                 "--t2-max", "1.5e-11", "--step", "1e-11", "--n-levels", "1"],
                id="step-not-dividing-tiny-range",
            ),
            pytest.param(["levelscan", "--n-theta", "4"], id="n-theta-removed"),
            pytest.param(["domain3d", "--sigma", "7"], id="domain3d-sigma-removed"),
            pytest.param(["nonexist", "--domain", "ball"], id="default-samples-outside-ball"),
            pytest.param(["slab-exp", "--sigma", "7"], id="slab-exp-sigma-removed"),
            pytest.param(["slab-lte", "--c0", "2"], id="slab-lte-c0-removed"),
            pytest.param(["levelscan", "--c0-kernel", "2"], id="levelscan-c0-kernel-removed"),
            pytest.param(["three-level", "--epsilon0", "3"], id="three-level-epsilon0-removed"),
            pytest.param(["slab-lte", "--zeta-mass", "abc"], id="zeta-mass-not-a-number"),
            pytest.param(["three-level", "--mass-c0", "xyz"], id="mass-c0-not-a-number"),
            pytest.param(["three-level", "--mass-c0", "from-mass", "--m0", "abc"], id="m0-not-a-number"),
            pytest.param(["slab-lte", "--n-y", "8"], id="n-y-below-16"),
            pytest.param(["slab-exp", "--n-mu", "8"], id="n-mu-below-16"),
            pytest.param(["three-level", "--gamma1", "1.5"], id="gamma1-above-one"),
            pytest.param(["three-level", "--j0", "-0.1"], id="three-level-j0-negative"),
            pytest.param(["slab-exp", "--a-plus-profile", "foo"], id="slab-profile-unknown"),
            pytest.param(["slab-lte", "--j0-profile", "-1"], id="slab-profile-negative"),
            pytest.param(["slab-exp", "--normalize", "maybe"], id="normalize-not-boolean"),
            pytest.param(["nonexist", "--sigma", "7"], id="nonexist-sigma-removed"),
            pytest.param(["verify", "--sigma", "7"], id="verify-sigma-removed"),
            pytest.param(["verify", "--n-samples", "100"], id="verify-n-samples-below-plan"),
            pytest.param(["verify", "--n-tuples", "5"], id="verify-n-tuples-removed"),
            pytest.param(["verify", "--t-entropy", "abc"], id="verify-t-entropy-not-numbers"),
            pytest.param(["verify", "--t-entropy", "1,-2"], id="verify-t-entropy-negative"),
            pytest.param(["verify", "--t1", "-1"], id="verify-t1-negative"),
            pytest.param(["verify", "--rho2", "0"], id="verify-rho2-zero"),
            pytest.param(["verify", "--t-lte", "0.001"], id="verify-t-lte-underflows-lte-pair"),
            pytest.param(["domain3d", "--box", "1,-1,-1,-1,1,1"], id="box-inverted-unused"),
            pytest.param(["domain3d", "--domain", "box", "--radius", "-1"], id="radius-negative-unused"),
            pytest.param(["verify", "--seed", "-1"], id="verify-seed-negative"),
            pytest.param(["domain3d", "--lattice-n", "4"], id="domain3d-lattice-below-spec"),
            pytest.param(["domain3d", "--sphere-n-theta", "3"], id="domain3d-sphere-theta-odd"),
            pytest.param(["domain3d", "--f-scale", "-1"], id="domain3d-f-scale-negative"),
            pytest.param(["nonexist", "--sphere-n-phi", "2"], id="nonexist-sphere-phi-below-grid"),
            pytest.param(["levelscan", "--t1-max", "inf", "--print-config"], id="t1-max-infinite"),
            pytest.param(["levelscan", "--step", "1e-320"], id="step-overflows-window"),
            pytest.param(["levelscan", "--t1-min=-1"], id="levelscan-t1-min-negative"),
            pytest.param(["levelscan", "--t2-min", "0"], id="levelscan-t2-min-zero"),
            pytest.param(["three-level", "--xi-const", "nan"], id="xi-const-nan"),
            pytest.param(["slab-lte", "--t0", "inf"], id="t0-infinite"),
            pytest.param(["slab-lte", "--out", "{tmp}/file"], id="out-is-a-file"),
            pytest.param(["slab-lte", "--out", "{tmp}/file/sub"], id="out-under-a-file"),
            pytest.param(["slab-lte", "--config", "{tmp}"], id="config-is-a-directory"),
            pytest.param(["slab-lte", "--config", "{tmp}/latin1.cfg"], id="config-not-utf8"),
        ],
    )
    def test_bad_config_exit_two(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("n_y = 33\n")
        (tmp_path / "latin1.cfg").write_bytes("n_y = 33  # \xe9t\xe9\n".encode("latin-1"))
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        try:
            # an --out of the case comes later and wins
            code = main([argv[0], "--out", str(tmp_path / "x"), *argv[1:]])
        except SystemExit as exc:  # argparse rejects unknown options
            code = exc.code
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "option, path, message",
        [
            ("--out", "file", "cannot create output directory {path!r}: File exists"),
            ("--out", "file/sub", "cannot create output directory {path!r}: Not a directory"),
            ("--config", "", "cannot read config file {path!r}: Is a directory"),
            ("--config", "latin1.cfg", "config file {path!r} is not UTF-8: byte 12 (invalid continuation byte)"),
        ],
        ids=["out-is-a-file", "out-under-a-file", "config-is-a-directory", "config-not-utf8"],
    )
    def test_unusable_path_named_before_any_solve(self, tmp_path, monkeypatch, capsys, option, path, message):
        (tmp_path / "file").write_text("")
        (tmp_path / "latin1.cfg").write_bytes("n_y = 33  # \xe9t\xe9\n".encode("latin-1"))
        build = radgas.cli._COMMANDS["slab-lte"][0]
        monkeypatch.setitem(radgas.cli._COMMANDS, "slab-lte", (build, lambda config, art: pytest.fail("solved")))
        path = os.path.join(tmp_path, path) if path else str(tmp_path)
        assert main(["slab-lte", option, path]) == 2
        assert capsys.readouterr().err == "config error: " + message.format(path=path) + "\n"

    @pytest.mark.parametrize(
        "argv, rejected_by",
        [
            (["slab-lte", "--slab-l", "-1"], "SlabGrid: L must be > 0"),
            (["three-level", "--gamma1", "1.5"], "ThreeLevelParams: "),
            (["levelscan", "--step", "1e-320"], "ScanWindow: "),
            (["levelscan", "--step", "1e-300"], "ScanWindow: "),
            (["levelscan", "--step", "1e-12"], "ScanWindow: "),
            (["levelscan", "--t1-min=-1"], "ScanWindow: temperatures must be > 0"),
            (["levelscan", "--t2-min", "0"], "ScanWindow: temperatures must be > 0"),
            (["verify", "--t2", "-1"], "MaxwellianState: T must be > 0"),
            (["domain3d", "--lattice-n", "4"], "LatticeSpec: "),
            (["nonexist", "--radius", "0"], "ConvexDomain: radius must be > 0"),
            # a value whose square overflows
            (["verify", "--c0=1e300"], "PhysConsts: c0 must have a finite square"),
            (["verify", "--rho1=1e300"], "MaxwellianState: rho must have a finite square"),
            (["three-level", "--slab-l=1e300"], "SlabGrid: L must have a finite square"),
            (["domain3d", "--radius=1e300"], "ConvexDomain: radius must have a finite square"),
            (["three-level", "--rho0=1e300"], "ThreeLevelParams: absorption kappa must have a finite square"),
            (["levelscan", "--r-max=1e300"], "TripleQuadSpec: r_max must have a finite square"),
            # a temperature whose complex step T*2^-60 is subnormal or 0
            (["verify", "--t-entropy=1e-305"], "key 't_entropy' needs temperatures >= 2^-962"),
            (["verify", "--t-entropy=1,1e-307"], "key 't_entropy' needs temperatures >= 2^-962"),
            # a temperature whose squared Monte Carlo samples could overflow
            (["verify", "--t1=1e300"], "MaxwellianState: T must be > 0 and <= 2^320"),
            (["verify", "--t2=1e300"], "MaxwellianState: T must be > 0 and <= 2^320"),
            (["verify", "--t-lte=1e300"], "MaxwellianState: T must be > 0 and <= 2^320"),
            (["verify", f"--t-lte={math.nextafter(2.0**320, math.inf)!r}"], "MaxwellianState: T must be > 0"),
        ],
    )
    def test_rejecting_object_named(self, tmp_path, capsys, argv, rejected_by):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert f"config error: {rejected_by}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["t1", "t2", "t-lte"])
    def test_verify_at_the_largest_temperature_runs_clean(self, tmp_path, key):
        # T = 2^320, the largest MaxwellianState accepts: no weighted sample,
        # square or sum overflows, and every check passes
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(SMALL_RUNS["verify"] + [f"--{key}={2.0**320!r}", "--out", str(out)])
        assert caught == []
        assert code == 0

    @pytest.mark.parametrize(
        "subcommand, name",
        [
            ("levelscan", "ScanWindow"),
            ("slab-lte", "SlabGrid"),
            ("slab-exp", "AngleGrid"),
            ("domain3d", "SphereGrid"),
            ("nonexist", "SphereGrid"),
            ("three-level", "ThreeLevelParams"),
            ("verify", "McPlan"),
        ],
    )
    def test_solver_inputs_built_once(self, tmp_path, monkeypatch, subcommand, name):
        built = []
        cls = getattr(radgas.cli, name)
        monkeypatch.setattr(radgas.cli, name, lambda *a, **k: built.append(cls(*a, **k)) or built[-1])
        assert main(SMALL_RUNS[subcommand] + ["--out", str(tmp_path / "x")]) in (0, 1)
        assert len(built) == 1

    def test_negative_slab_profile_named(self, tmp_path, capsys):
        # BoundaryProfile.constant holds the one rule, for --j0 of three-level too
        assert main(["slab-lte", "--j0-profile", "-1", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "config error: BoundaryProfile: boundary intensity must be >= 0, got -1.0\n"

    def test_samples_outside_domain_named(self, tmp_path, capsys):
        assert main(["nonexist", "--domain", "ball", "--out", str(tmp_path / "x")]) == 2
        assert "point 1.0,-2.0,0.7 " in capsys.readouterr().err

    def test_nonexist_ball_interior_sample(self, tmp_path):
        out = tmp_path / "nx"
        assert main(["nonexist", "--domain", "ball", "--samples", "0,0,0.3", "--out", str(out)]) == 1
        assert json.loads((out / "report.json").read_text())["verdict"] == "NONEXISTENT"

    def test_domain3d_reports_convergence(self, tmp_path):
        out = tmp_path / "d3"
        assert main(["domain3d", "--lattice-n", "12", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["converged"] is True

    def test_domain3d_reports_picard_diffs(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["domain3d", "--lattice-n", "12", "--out", str(out)]) == 0
            reports.append(json.loads((out / "report.json").read_text()))
        first, second = reports
        assert len(first["picard_diffs"]) == first["iterations"]
        assert first["picard_diffs"] == second["picard_diffs"]

    def test_domain3d_unconverged_exits_one(self, tmp_path, monkeypatch):
        def capped(apply, b, tol, max_iter):
            return radgas.picard.fixed_point(apply, b, tol, max_iter=2)

        monkeypatch.setattr(radgas.domain3d, "fixed_point", capped)
        out = tmp_path / "d3"
        assert main(["domain3d", "--lattice-n", "12", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert report["iterations"] == 2
        assert len(report["picard_diffs"]) == 2

    @pytest.mark.parametrize("subcommand", ["slab-lte", "slab-exp", "three-level"])
    def test_picard_reports_convergence(self, tmp_path, subcommand):
        out = tmp_path / "run"
        assert main([subcommand, "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["converged"] is True

    @pytest.mark.parametrize(
        "subcommand, module",
        [("slab-lte", radgas.slab), ("slab-exp", radgas.slab), ("three-level", radgas.slab)],
    )
    def test_picard_unconverged_exits_one(self, tmp_path, monkeypatch, subcommand, module):
        def capped(apply, b, tol, max_iter):
            return radgas.picard.fixed_point(apply, b, tol, max_iter=2)

        monkeypatch.setattr(module, "fixed_point", capped)
        out = tmp_path / "run"
        assert main([subcommand, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        if subcommand == "three-level":
            assert report["picard_iterations"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["domain3d", "--f-scale", "1e308", "--lattice-n", "12"],
            ["slab-lte", "--j0-profile", "1e308", "--n-y", "33", "--n-mu", "16"],
            ["three-level", "--j0", "1e308", "--n-y", "33", "--n-mu", "16"],
        ],
        ids=["domain3d", "slab-lte", "three-level"],
    )
    def test_overflowing_picard_exits_one(self, tmp_path, argv):
        # inf or NaN sweeps: the loop stops at once instead of reading inf as converged
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            assert main(argv + ["--out", str(out)]) == 1
        assert json.loads((out / "report.json").read_text())["converged"] is False

    @pytest.mark.parametrize(
        "argv, nulls",
        [
            (["domain3d", "--f-scale", "1e308", "--lattice-n", "12"], ["w_max", "w_min"]),
            (["slab-lte", "--j0-profile", "1e308"], ["flux_ptp", "i0", "picard_gap", "residual_max"]),
        ],
        ids=["domain3d", "slab-lte"],
    )
    def test_overflowing_report_is_strict_json(self, tmp_path, argv, nulls):
        # inf and NaN are written as null; numpy still warns of the overflow
        out = tmp_path / "run"
        with pytest.warns(RuntimeWarning) as warned:
            assert main(argv + ["--out", str(out)]) == 1
        assert any("overflow" in str(w.message) for w in warned)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert [report[key] for key in nulls] == [None] * len(nulls)
        assert report["converged"] is False

    def test_strict_json_keeps_finite_payloads(self):
        finite = {
            "a": np.float64(0.1),
            "b": (np.int64(3), 2.5e-300, True, None, "s"),
            "c": np.array([[1.0, -2.0], [3.5, 1e308]]),
            "d": [{"e": np.float32(0.5)}],
        }
        old_default = lambda obj: obj.item() if isinstance(obj, np.generic) else obj.tolist()  # noqa: E731
        assert json.dumps(_strict_json(finite), indent=2, sort_keys=True) == json.dumps(
            finite, indent=2, sort_keys=True, default=old_default
        )
        odd = {"x": [np.inf, -np.inf, np.nan], "y": np.array([np.nan, 1.0]), "z": np.float64(-np.inf)}
        assert _strict_json(odd) == {"x": [None, None, None], "y": [None, 1.0], "z": None}

    def test_out_of_memory_is_a_solver_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(config, art):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setitem(radgas.cli._COMMANDS, "slab-lte", (radgas.cli._COMMANDS["slab-lte"][0], exhausted))
        assert main(["slab-lte", "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "solver error: out of memory: Unable to allocate 74.5 GiB\n"

    def test_thick_slab_names_the_rounded_escape(self, tmp_path, capsys):
        # at slab_l 80 the rows of A sum to 1 in floating point
        assert main(["slab-lte", "--slab-l", "80", "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        printed = re.match(r"solver error: kernel row sum of A (\S+) >= 1: ", err).group(1)
        assert float(printed) >= 1.0 and printed == repr(float(printed))  # not rounded to 1.000000
        assert "escape from a slab this thick is below the rounding of the FFT row sums" in err

    def test_all_singular_window_is_a_solver_error(self, tmp_path, capsys):
        # exp(-2*eps0/T1) underflows, so the S bracket vanishes at every node
        argv = ["levelscan", "--epsilon0=1e12", "--t1-max=10.2", "--t2-max=10.2", "--n-r=16"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "solver error: L is singular at all 9 grid nodes\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["levelscan", "--r-max=1e-300"], "L is singular at all 9 grid nodes"),
            (["levelscan", "--r-max=1e150"], "L is singular at all 9 grid nodes"),
            (["levelscan", "--epsilon0=1e300"], "L is singular at all 9 grid nodes"),
            (
                ["levelscan", "--t1-min=1e300", "--t1-max=1.2e300", "--t2-min=1e300", "--t2-max=1.2e300",
                 "--step=1e299"],
                "L is singular at all 9 grid nodes",
            ),
            (["verify", "--c0=1e100", "--t1=1e96", "--rho1=1e-100"], "non-finite functional: "),
        ],
        ids=["r-max-tiny", "r-max-huge", "epsilon0-huge", "window-huge", "verify-t1-huge"],
    )
    def test_unusable_functionals_are_a_solver_error(self, tmp_path, capsys, argv, message):
        # the reduced functionals are non-finite or not positive at every
        # node, the T1-only integrals included, with no warning on the way
        name = argv[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(SMALL_RUNS[name] + argv[1:] + ["--out", str(tmp_path / "run")]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"solver error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--epsilon0=1e-300", "--t0=1e300"])
    def test_infinite_slab_coupling_is_a_solver_error(self, tmp_path, capsys, option):
        # q = exp(-2*eps0/T0) rounds to 1, so G0(T0) = q/(1 - q) divides by 0
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(SMALL_RUNS["slab-lte"] + [option, "--out", str(out)]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("solver error: coupling alpha0 = inf at T0 ") and err.count("\n") == 1
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("option", ["--eps=1e-300", "--t0=1e300"])
    def test_infinite_three_level_coupling_is_a_solver_error(self, tmp_path, capsys, option):
        # q = exp(-2*eps/T0) rounds to 1, so G_p(T0) = q/(1 - q) divides by 0
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(SMALL_RUNS["three-level"] + [option, "--out", str(out)]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("solver error: coupling G_p = inf at T0 ") and err.count("\n") == 1
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "option, code",
        [("--rho0=2e154", 1), ("--p12=1e300", 0), ("--p23=1e300", 0)],
        ids=["kappa-1e154", "p12-huge", "p23-huge"],
    )
    def test_extreme_three_level_runs_clean(self, tmp_path, option, code):
        # kappa 1.0e154 has a finite square: the ray sweep forms no power of a
        # large optical depth, and the run ends unconverged; a huge rate is no
        # rank deficiency, and the run converges
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(SMALL_RUNS["three-level"] + [option, "--out", str(out)]) == code
        assert caught == []
        assert json.loads((out / "report.json").read_text())["converged"] is (code == 0)

    @pytest.mark.parametrize(
        "options",
        [["--j0=1e300", "--rho0=1e12"], ["--j0=1e12", "--p12=1e300"], ["--j0=1e12", "--p23=1e300"]],
        ids=["j0-rho0-huge", "j0-p12-huge", "j0-p23-huge"],
    )
    def test_overflowing_three_level_exits_one_clean(self, tmp_path, options):
        # the solve overflows: the report holds a non-finite path_gap as null
        # and the run exits 1, with no warning on the way
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(SMALL_RUNS["three-level"] + options + ["--out", str(out)]) == 1
        assert caught == []
        assert json.loads((out / "report.json").read_text())["path_gap"] is None

    def test_verify_at_a_tiny_c0_runs_clean(self, tmp_path):
        # c0 cancels from the detailed-balance residual, so a c0 whose F1 F1
        # products would underflow passes
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(SMALL_RUNS["verify"] + ["--c0=1e-160", "--out", str(tmp_path / "run")]) == 0
        assert caught == []

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--c0=1e-300"], "P11, P21, A must be positive"),
            (["--c0=5e153"], "non-finite functional: "),
            (["--c0=1e150", "--rho1=1e10"], "non-finite reduced exchange rates "),
        ],
        ids=["c0-tiny", "c0-huge", "rates-overflow"],
    )
    def test_unusable_reduced_rates_stop_verify_before_sampling(self, tmp_path, monkeypatch, capsys, options, message):
        monkeypatch.setattr(radgas.kinetic, "verify_checks", lambda *args: pytest.fail("sampled"))
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(SMALL_RUNS["verify"] + options + ["--out", str(out)]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"solver error: {message}") and err.count("\n") == 1
        assert not (out / "report.json").exists()

    def test_threads_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["levelscan", "--threads", "2", "--print-config"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_bit_identical_reruns(self, tmp_path):
        args = [
            "slab-exp", "--n-y", "65", "--n-mu", "24",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "w.csv").read_bytes() == (out2 / "w.csv").read_bytes()
        assert (out1 / "radiation.npz").read_bytes() == (out2 / "radiation.npz").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    @pytest.mark.parametrize("subcommand", ["slab-lte", "three-level", "domain3d"])
    def test_bit_identical_archive_reruns(self, tmp_path, subcommand):
        args, archive = SMALL_RUNS[subcommand], ARCHIVES[subcommand][0]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / archive).read_bytes() == (out2 / archive).read_bytes()

    def test_three_level_solution_columns(self, tmp_path):
        out = tmp_path / "tl"
        assert main(["three-level", "--n-y", "33", "--n-mu", "24", "--out", str(out)]) == 0
        rows = (out / "solution.csv").read_text().splitlines()
        assert rows[0] == "y,sigma1,sigma2,sigma3,xi"
        assert len(rows) == 1 + 33

    def test_print_config_deterministic(self, capsys):
        assert main(["levelscan", "--print-config"]) == 0
        first = capsys.readouterr().out
        assert main(["levelscan", "--print-config"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "step = 0.1" in first

    def test_print_config_makes_no_output_directory(self, tmp_path, capsys):
        # only a run makes --out, so an --out that is a file does not matter here
        (tmp_path / "file").write_text("")
        assert main(["slab-lte", "--out", str(tmp_path / "file" / "sub"), "--print-config"]) == 0
        assert "n_y = " in capsys.readouterr().out
        assert (tmp_path / "file").read_text() == ""

    def test_env_var_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RADGAS_OUT", str(tmp_path / "envout"))
        assert main(["levelscan", "--print-config"]) == 0
        assert f"out = {tmp_path / 'envout'}" in capsys.readouterr().out


def fresh_python(code: str, *args: str) -> str:
    """Standard output of `code` run by a new interpreter that imports radgas from this tree."""
    src = os.path.dirname(os.path.dirname(radgas.domain3d.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True).stdout


def config_digest_is_hashlib_sha256(manifest_path) -> bool:
    manifest = json.loads(manifest_path.read_text())
    resolved = "\n".join(manifest["resolved_config"]).encode()
    return manifest["config_sha256"] == hashlib.sha256(resolved).hexdigest()


def test_runs_load_no_scipy_submodule(tmp_path):
    # a fresh process: import the CLI, then one small job of every subcommand,
    # verify last; the solvers and the manifest run on numpy alone, so no
    # scipy module loads, and until verify draws its samples neither
    # numpy.random nor hashlib (OpenSSL) is loaded
    assert list(SMALL_RUNS)[-1] == "verify"
    code = (
        "import contextlib, io, json, sys, radgas.cli\n"
        "runs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "codes, before_verify = {}, None\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    for name, argv in runs.items():\n"
        "        if name == 'verify':\n"
        "            before_verify = sorted(sys.modules)\n"
        "        codes[name] = radgas.cli.main(argv + ['--out', out + '/' + name])\n"
        "print(json.dumps({'codes': codes, 'before_verify': before_verify, 'modules': sorted(sys.modules)}))\n"
    )
    result = json.loads(fresh_python(code, json.dumps(SMALL_RUNS), str(tmp_path)))
    assert sorted(result["codes"]) == sorted(SUBCOMMANDS)
    assert all(code in (0, 1) for code in result["codes"].values()), result["codes"]
    assert result["codes"]["verify"] == 0
    assert all(config_digest_is_hashlib_sha256(tmp_path / name / "manifest.json") for name in SMALL_RUNS)
    assert [m for m in result["modules"] if m == "scipy" or m.startswith("scipy.")] == []
    lazy = ["numpy.random", "hashlib", "_hashlib"]
    assert [m for m in lazy if m in result["before_verify"]] == []
    assert "numpy.random" in result["modules"]


#: The .npz archive each subcommand writes; the others write none.
ARCHIVES = {"slab-lte": ["radiation.npz"], "slab-exp": ["radiation.npz"], "domain3d": ["w.npz"], "three-level": ["radiation.npz"]}


@pytest.mark.parametrize("subcommand", list(SMALL_RUNS))
def test_manifest_records_every_artifact_with_rows_header_and_shapes(tmp_path, capsys, subcommand):
    # every record keeps "name", "rows" and "header" (the benchmark harness
    # sums "rows"); an .npz record has null rows and header and the shape of
    # each array it holds
    out = tmp_path / subcommand
    assert main(SMALL_RUNS[subcommand] + ["--out", str(out)]) in (0, 1)
    records = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert sorted(r["name"] for r in records) == sorted(set(os.listdir(out)) - {"manifest.json"})
    archives = []
    for record in records:
        assert {"name", "rows", "header"} <= set(record)
        if record["name"].endswith(".npz"):
            assert record["rows"] is None and record["header"] is None
            with np.load(out / record["name"]) as z:
                assert record["shape"] == {key: list(z[key].shape) for key in z.files}
            archives.append(record["name"])
        else:
            assert "shape" not in record
    assert archives == ARCHIVES.get(subcommand, [])


def test_config_digest_without_the_builtin_sha256(tmp_path):
    # with neither _sha2 (Python 3.12+) nor _sha256 (3.11) importable, the
    # manifest's digest comes from hashlib, and is the same
    code = (
        "import contextlib, io, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import radgas.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = radgas.cli.main(['three-level', '--n-y=33', '--n-mu=16', '--out', sys.argv[1]])\n"
        "print(code, 'hashlib' in sys.modules)\n"
    )
    assert fresh_python(code, str(tmp_path)).split() == ["0", "True"]
    assert config_digest_is_hashlib_sha256(tmp_path / "manifest.json")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc limits are glibc's")
def test_repeated_jobs_reuse_freed_memory(tmp_path):
    # at glibc's default limits the third of three equal domain3d jobs in a
    # numpy-only process page-faults about 2700 times; with them it reuses
    # the heap the first job grew
    code = (
        "import contextlib, io, resource, sys, radgas.cli\n"
        "faults = []\n"
        "for k in range(3):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        radgas.cli.main(['domain3d', '--lattice-n=12', '--out', sys.argv[1] + str(k)])\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(faults[-1])\n"
    )
    assert int(fresh_python(code, str(tmp_path / "run"))) < 200


def test_one_parser_serves_every_call(tmp_path, capsys):
    parser = radgas.cli._build_parser()
    assert parser is radgas.cli._build_parser()
    # a subcommand's options are added once, to the top-level parser's own subparser
    sub = radgas.cli._subcommand_parser("slab-exp")
    assert sub is radgas.cli._subcommand_parser("slab-exp") is parser.subcommands["slab-exp"]
    n_actions = len(sub._actions)
    assert main(SMALL_RUNS["slab-exp"] + ["--out", str(tmp_path / "exp")]) == 0
    assert main(SMALL_RUNS["three-level"] + ["--out", str(tmp_path / "tl")]) == 0
    assert (tmp_path / "exp" / "w.csv").exists() and (tmp_path / "tl" / "solution.csv").exists()
    # an option of an earlier call does not stick to the next one
    assert main(["slab-exp", "--print-config"]) == 0
    assert "n_y = 257" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["slab-exp", "--no-such-option=1"])
    assert exc.value.code == 2
    assert "config error" in capsys.readouterr().err
    assert len(sub._actions) == n_actions


def _exit(parse, argv, capsys) -> tuple:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [[name, "--help"] for name in SUBCOMMANDS] + [["--help"]], ids="-".join)
def test_help_is_the_all_at_once_parsers(capsys, argv):
    # options added on a subcommand's first use print the help they printed
    # when every subcommand's options were added up front
    want = _exit(oracles.build_parser_all_at_once().parse_args, argv, capsys)
    assert _exit(main, argv, capsys) == want
    assert want[0] == 0 and want[1].startswith("usage: radgas ")


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_unknown_option_is_a_config_error(capsys, subcommand):
    argv = [subcommand, "--no-such-option=1"]
    want = _exit(oracles.build_parser_all_at_once().parse_args, argv, capsys)
    assert _exit(main, argv, capsys) == want
    assert want[0] == 2 and want[2].endswith("config error: unrecognized arguments: --no-such-option=1\n")


# Candidate values per key for the random small runs, valid and invalid; every
# valid one keeps the run within the SMALL_RUNS size bounds.
_POS = ["1", "0.5", "2.5", "0", "-1", "nan", "x"]
_SLAB = {"slab_l": ["1", "0.3", "4", "0", "-1"], "n_y": ["17", "65", "8", "x"], "n_mu": ["16", "24", "4", "0"]}
_SPHERE = {"sphere_n_theta": ["8", "16", "3", "0"], "sphere_n_phi": ["16", "8", "2"]}
_PROFILE = ["cos", "uniform", "zero", "0.2", "-1", "inf", "foo"]
_SHAPE = {
    "radius": ["1", "0.5", "0", "-1"],
    "box": ["-1,-1,-1,1,1,1", "0,0,0,1,2,0.5", "1,2,3", "1,1,1,0,0,0", "a,b,c,d,e,f"],
    "f_profile": ["isotropic", "up", "zero", "nope"],
}
E2E_VALUES = {
    "levelscan": {
        "t1_min": ["10", "10.1", "10.2", "11", "nan"], "t1_max": ["10.2", "10.1", "9", "inf"],
        "t2_min": ["10", "10.1", "10.3", "x"], "step": ["0.1", "0.2", "0.3", "0", "-0.1", "1e-320"],
        "n_levels": ["1", "8", "0", "-3"], "r_max": ["12", "6", "0"], "n_r": ["16", "8", "x"],
        "epsilon0": _POS, "sigma": _POS, "c0": _POS,
    },
    "slab-lte": {
        **_SLAB, "t0": _POS, "epsilon0": _POS, "j0_profile": _PROFILE,
        "zeta_mass": ["none", "0.3", "-2", "abc", "inf"],
    },
    "slab-exp": {**_SLAB, "a_plus_profile": _PROFILE, "normalize": ["true", "false", "maybe"]},
    "domain3d": {
        **_SPHERE, **_SHAPE, "domain": ["ball", "box", "slab-box"],
        "lattice_n": ["8", "12", "4", "x"], "f_scale": ["1", "0", "2.5", "-1", "inf"],
    },
    "nonexist": {
        **_SPHERE, **_SHAPE, "domain": ["ball", "box", "slab-box", "cube"], "a2": _POS,
        "tol": ["1e-3", "10", "0", "-1"],
        "samples": ["0,0,0.3", "0,0,0.3;0.1,0.1,0.5", "0,0", ";", "5,5,5"],
    },
    "three-level": {
        **_SLAB, "gamma1": ["0", "0.3", "1", "1.5", "-0.1"], "eps": _POS, "t0": _POS,
        "rho0": _POS, "p12": _POS, "p23": _POS, "j0": ["0", "0.1", "-0.1", "nan"],
        "xi_const": ["0", "0.05", "-3", "nan"], "mass_c0": ["0.0", "1", "from-mass", "xyz"],
        "m0": ["none", "2", "-1", "abc"],
    },
    "verify": {
        "n_samples": ["10000", "20000", "100", "x"],
        "t_lte": ["5", "0.5", "0.001", "0", "-1"], "t1": _POS, "t2": _POS, "rho1": _POS,
        "rho2": _POS, "t_entropy": ["0.5,2", "1", "abc", "1,-2", "inf"], "epsilon0": _POS,
        "c0": _POS, "c0_kernel": _POS, "seed": ["0", "3", "-1"],
    },
}

#: Extreme values every float key also draws: each run still ends 0, 1 or 2.
_EXTREMES = ["-0", "1e-300", "1e12", "1e300", "-1e300", "700", "-700"]
for _sub, _candidates in E2E_VALUES.items():
    for _key, (_type, _, _) in _SCHEMAS[_sub].items():
        if _type is float and _key in _candidates:
            _candidates[_key] = _candidates[_key] + _EXTREMES


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_random_small_runs_end_cleanly(subcommand, data):
    candidates = E2E_VALUES[subcommand]
    keys = data.draw(st.lists(st.sampled_from(sorted(candidates)), min_size=2, max_size=2, unique=True))
    argv = list(SMALL_RUNS[subcommand])
    for key in keys:
        argv.append(f"--{key.replace('_', '-')}={data.draw(st.sampled_from(candidates[key]), label=key)}")
    _assert_ends_cleanly(argv)


@pytest.mark.parametrize(
    "subcommand, option",
    [
        pytest.param(sub, f"--{key.replace('_', '-')}={value}", id=f"{sub}-{key}={value}")
        for sub in SUBCOMMANDS
        for key, (kind, _, _) in _SCHEMAS[sub].items()
        if kind is float
        for value in _EXTREMES
    ],
)
def test_each_extreme_value_alone_ends_cleanly(subcommand, option):
    # every extreme on every float key, one at a time: the random runs above
    # draw two keys at once and need not draw a given value
    _assert_ends_cleanly(SMALL_RUNS[subcommand] + [option])


def _assert_ends_cleanly(argv):
    """Runs `argv` with RuntimeWarning as an error: it ends 0, 1 or 2, and a
    2 is a config error that writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        # a RuntimeWarning (an overflow or 0/0 on the way) fails the run
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + ["--out", out])
        assert code in (0, 1, 2), argv
        if code == 2:
            assert "config error:" in err.getvalue()
            assert not os.path.exists(out)
