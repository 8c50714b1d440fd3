"""Configuration parsing, artifact layout, exit codes, determinism."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radgas.cli
import radgas.domain3d
import radgas.picard
import radgas.slab
import radgas.three_level
from radgas import ConfigError
from radgas.cli import (
    SUBCOMMANDS,
    RunConfig,
    _SCHEMAS,
    _Artifacts,
    _fmt,
    _radiation_columns,
    main,
    parse_config,
)
from radgas.slab import AngleGrid, RadiationField, SlabGrid


# One small run per subcommand: n_y <= 65, lattice_n <= 12, n_samples and
# n_tuples <= 2e4, levelscan windows of at most 3 x 3 points at n_r = n_rho = 16.
SMALL_RUNS = {
    "levelscan": ["levelscan", "--t1-max=10.2", "--t2-max=10.2", "--n-r=16", "--n-rho=16"],
    "slab-lte": ["slab-lte", "--n-y=33", "--n-mu=16"],
    "slab-exp": ["slab-exp", "--n-y=33", "--n-mu=16"],
    "domain3d": ["domain3d", "--lattice-n=8", "--sphere-n-theta=8", "--sphere-n-phi=16"],
    "nonexist": ["nonexist", "--sphere-n-theta=8", "--sphere-n-phi=16"],
    "three-level": ["three-level", "--n-y=33", "--n-mu=16"],
    "verify": ["verify", "--n-samples=10000", "--n-tuples=2000"],
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
    """The column writer against the per-value _fmt join it replaces."""

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
        ]
        header = ["f", "py_int", "np_int", "flag", "g"]
        art = _Artifacts(str(tmp_path))
        art.csv("t.csv", header, columns)
        assert (tmp_path / "t.csv").read_text() == self.fmt_join(header, zip(*columns))
        assert art.records == [{"name": "t.csv", "rows": n, "header": header}]

    def test_radiation_columns_match_row_order(self):
        grid, angles = SlabGrid(L=1.0, n_y=17), AngleGrid(n_mu=16)
        rng = np.random.default_rng(5)
        field = RadiationField(grid, angles, rng.normal(size=(17, 16)), rng.normal(size=(17, 16)))
        rows = [
            (yi, mj, sign, g[i, j])
            for i, yi in enumerate(grid.y)
            for sign, g in ((1, field.g_plus), (-1, field.g_minus))
            for j, mj in enumerate(angles.mu)
        ]
        columns = _radiation_columns(field)
        assert [c.tolist() for c in columns] == [list(c) for c in zip(*rows)]


class TestRun:
    def test_levelscan_artifacts(self, tmp_path):
        out = tmp_path / "scan"
        code = main(
            [
                "levelscan",
                "--step", "0.5",
                "--n-r", "48",
                "--n-rho", "48",
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
        code = main(["verify", "--n-samples", "20000", "--n-tuples", "20000", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["all_pass"]
        assert [(c["name"], set(c)) for c in report["checks"]] == [
            ("detailed_balance", {"name", "value", "pass"}),
            ("weak_form_conservation", {"name", "rows", "pass"}),
            ("mass_exchange_vs_reduced", {"name", "mc", "std_error", "reduced", "pass"}),
            ("kernel_of_L", {"name", "rows", "pass"}),
            ("entropy_identity", {"name", "max_rel_error", "pass"}),
        ]
        moments = {"momentum_x", "momentum_y", "momentum_z", "energy"}
        rows = {c["name"]: c["rows"] for c in report["checks"] if "rows" in c}
        assert set(rows["weak_form_conservation"]) == {"mass", *moments}
        assert set(rows["kernel_of_L"]) == {"number", *moments}
        for check_rows in rows.values():
            assert all(set(row) == {"value", "std_error"} for row in check_rows.values())

    @pytest.mark.parametrize("seed", ["1", "6"])
    def test_verify_empty_detailed_balance_set_fails_without_traceback(self, tmp_path, seed):
        # one tuple below the threshold leaves nothing to check
        out = tmp_path / "verify"
        argv = ["verify", "--n-tuples", "1", "--n-samples", "10000", "--seed", seed, "--out", str(out)]
        assert main(argv) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["checks"][0] == {"name": "detailed_balance", "value": None, "pass": False}
        assert report["all_pass"] is False

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
            pytest.param(["levelscan", "--n-rho", "8"], id="n-rho-below-16"),
            pytest.param(["levelscan", "--step", "0.3"], id="step-not-dividing"),
            pytest.param(["levelscan", "--n-theta", "4"], id="n-theta-removed"),
            pytest.param(["domain3d", "--sigma", "7"], id="domain3d-sigma-removed"),
            pytest.param(["nonexist", "--domain", "ball"], id="default-samples-outside-ball"),
            pytest.param(["slab-exp", "--sigma", "7"], id="slab-exp-sigma-removed"),
            pytest.param(["slab-lte", "--c0", "2"], id="slab-lte-c0-removed"),
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
            pytest.param(["verify", "--n-tuples", "0"], id="verify-n-tuples-zero"),
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
            pytest.param(["three-level", "--xi-const", "nan"], id="xi-const-nan"),
            pytest.param(["slab-lte", "--t0", "inf"], id="t0-infinite"),
        ],
    )
    def test_bad_config_exit_two(self, tmp_path, capsys, argv):
        try:
            code = main(argv + ["--out", str(tmp_path / "x")])
        except SystemExit as exc:  # argparse rejects unknown options
            code = exc.code
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, rejected_by",
        [
            (["slab-lte", "--slab-l", "-1"], "SlabGrid: L must be > 0"),
            (["three-level", "--gamma1", "1.5"], "ThreeLevelParams: "),
            (["levelscan", "--step", "1e-320"], "ScanWindow: "),
            (["levelscan", "--step", "1e-300"], "ScanWindow: "),
            (["levelscan", "--step", "1e-12"], "ScanWindow: "),
            (["verify", "--t2", "-1"], "MaxwellianState: T must be > 0"),
            (["domain3d", "--lattice-n", "4"], "LatticeSpec: "),
            (["nonexist", "--radius", "0"], "ConvexDomain: radius must be > 0"),
        ],
    )
    def test_rejecting_object_named(self, tmp_path, capsys, argv, rejected_by):
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert f"config error: {rejected_by}" in capsys.readouterr().err

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
        assert main(["slab-lte", "--j0-profile", "-1", "--out", str(tmp_path / "x")]) == 2
        assert "'j0_profile': constant intensity '-1' is negative" in capsys.readouterr().err

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
        # picard_ratio is still the diff-ratio median of the reported trace
        trace = radgas.picard.FixedPoint(None, first["iterations"], True, first["picard_diffs"])
        assert trace.ratio(first["max_kernel_mass"]) == first["picard_ratio"]

    def test_domain3d_unconverged_exits_one(self, tmp_path, monkeypatch):
        capped = functools.partial(radgas.domain3d.solve_w, max_iter=2)
        monkeypatch.setattr(radgas.domain3d, "solve_w", capped)
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
        [("slab-lte", radgas.slab), ("slab-exp", radgas.slab), ("three-level", radgas.three_level)],
    )
    def test_picard_unconverged_exits_one(self, tmp_path, monkeypatch, subcommand, module):
        def capped(step, x0, tol, max_iter):
            return radgas.picard.fixed_point(step, x0, tol, max_iter=2)

        monkeypatch.setattr(module, "fixed_point", capped)
        out = tmp_path / "run"
        assert main([subcommand, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        if subcommand == "three-level":
            assert report["picard_iterations"] == 2

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
        assert (out1 / "radiation.csv").read_bytes() == (out2 / "radiation.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

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

    def test_env_var_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RADGAS_OUT", str(tmp_path / "envout"))
        assert main(["levelscan", "--print-config"]) == 0
        assert f"out = {tmp_path / 'envout'}" in capsys.readouterr().out


def test_cli_import_leaves_scipy_signal_out():
    src = os.path.dirname(os.path.dirname(radgas.domain3d.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, radgas.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
        "n_rho": ["16", "0"], "epsilon0": _POS, "sigma": _POS, "c0": _POS, "c0_kernel": _POS,
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
        "n_samples": ["10000", "20000", "100", "x"], "n_tuples": ["1", "2000", "20000", "0"],
        "t_lte": ["5", "0.5", "0.001", "0", "-1"], "t1": _POS, "t2": _POS, "rho1": _POS,
        "rho2": _POS, "t_entropy": ["0.5,2", "1", "abc", "1,-2", "inf"], "epsilon0": _POS,
        "c0": _POS, "c0_kernel": _POS, "seed": ["0", "3", "-1"],
    },
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_random_small_runs_end_cleanly(subcommand, data):
    candidates = E2E_VALUES[subcommand]
    keys = data.draw(st.lists(st.sampled_from(sorted(candidates)), min_size=2, max_size=2, unique=True))
    argv = list(SMALL_RUNS[subcommand])
    for key in keys:
        argv.append(f"--{key.replace('_', '-')}={data.draw(st.sampled_from(candidates[key]), label=key)}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", out])
        assert code in (0, 1, 2), argv
        if code == 2:
            assert "config error:" in err.getvalue()
            assert not os.path.exists(out)
