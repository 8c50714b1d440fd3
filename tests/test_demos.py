"""The demos run end to end against the current public API."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")


def _run_demo(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return capsys.readouterr().out


def test_nonexistence_criterion(capsys):
    out = _run_demo("nonexistence_criterion.py", capsys)
    assert "verdict: NONEXISTENT" in out
    assert "verdict: EXISTS_POSSIBLE" in out


def test_ball_contraction(capsys):
    out = _run_demo("ball_contraction.py", capsys)
    assert "converged: True" in out
    assert "(exact: 1)" in out


def test_level_curves(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the demo writes its CSVs to the cwd
    out = _run_demo("level_curves.py", capsys)
    assert "smooth-curve hypothesis HOLDS" in out
    assert (tmp_path / "grid.csv").read_text().count("\n") == 1 + 21 * 21


def test_slab_steady_states(capsys):
    out = _run_demo("slab_steady_states.py", capsys)
    assert "w > 0 everywhere: True" in out
    assert "Nystroem vs Picard gap" in out


def test_three_level_nonlte(capsys):
    out = _run_demo("three_level_nonlte.py", capsys)
    assert "direct vs Picard gap" in out
    assert "(LTE)" in out


def test_collision_functionals(capsys):
    out = _run_demo("collision_functionals.py", capsys)
    rows = [line.split() for line in out.splitlines() if line.split()[:1] in (["mass"], ["energy"])]
    assert [row[0] for row in rows] == ["mass", "energy"] * 3
    # each Monte Carlo row within 3 sigmas of its reduced closed form
    assert all(float(row[-1]) <= 3.0 for row in rows)
    assert "H = 0.818731" in out
