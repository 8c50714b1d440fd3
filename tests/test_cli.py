"""Configuration parsing, artifact layout, exit codes, determinism."""

import functools
import json
import os

import pytest

import radgas.domain3d
import radgas.picard
import radgas.slab
import radgas.three_level
from radgas import ConfigError
from radgas.cli import main, parse_config


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

    def test_domain3d_unconverged_exits_one(self, tmp_path, monkeypatch):
        capped = functools.partial(radgas.domain3d.solve_w, max_iter=2)
        monkeypatch.setattr(radgas.domain3d, "solve_w", capped)
        out = tmp_path / "d3"
        assert main(["domain3d", "--lattice-n", "12", "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert report["iterations"] == 2

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
