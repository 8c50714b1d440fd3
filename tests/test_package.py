"""The package namespace re-exports every public name of its layer modules,
and the package declares numpy as its one runtime dependency."""

import importlib
import os
import re

import pytest

import radgas

LAYERS = ["physics", "collision_reduction", "levelscan", "picard", "slab", "domain3d", "three_level", "kinetic"]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_is_reexported(layer):
    module = importlib.import_module(f"radgas.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert [name for name in module.__all__ if getattr(radgas, name, None) is not getattr(module, name)] == []


def test_test_oracles_are_not_in_the_library():
    # the plain kernel K and the gathered matrix live in tests/oracles.py
    import radgas.slab

    assert not hasattr(radgas, "fredholm_kernel_K") and not hasattr(radgas.slab, "fredholm_kernel_K")
    assert not hasattr(radgas.slab._CellToeplitz, "dense")


def test_numpy_is_the_only_runtime_dependency():
    # scipy is a test dependency: the tests hold numpy routines against it
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    name = lambda dep: re.match(r"[A-Za-z0-9._-]+", dep).group()  # noqa: E731
    assert [name(dep) for dep in project["dependencies"]] == ["numpy"]
    assert "scipy" in map(name, project["optional-dependencies"]["test"])
