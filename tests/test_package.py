"""The package namespace re-exports every public name of its layer modules;
every public name is used by a subcommand, demo or benchmark; every public
test oracle is used by a test and has no twin in the library; and the package
declares numpy as its one runtime dependency."""

import ast
import glob
import importlib
import os
import re

import pytest

import radgas

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = ["physics", "collision_reduction", "levelscan", "picard", "slab", "domain3d", "three_level", "kinetic"]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_is_reexported(layer):
    module = importlib.import_module(f"radgas.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert [name for name in module.__all__ if getattr(radgas, name, None) is not getattr(module, name)] == []


def _used_names(path) -> set:
    """Every Name id, Attribute attr and import alias name in a Python file."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_test_oracles_are_not_in_the_library():
    # every public name is reached by a subcommand, a demo or the benchmark;
    # names only the tests call live in tests/oracles.py.  The AST, not the
    # text, decides: docstrings still name some of the moved functions.
    files = [f for f in glob.glob(os.path.join(ROOT, "src", "radgas", "*.py")) if not f.endswith("__init__.py")]
    files += glob.glob(os.path.join(ROOT, "demos", "*.py")) + glob.glob(os.path.join(ROOT, "bench", "*.py"))
    used = set().union(*map(_used_names, files))
    unused = [(layer, name) for layer in LAYERS for name in importlib.import_module(f"radgas.{layer}").__all__ if name not in used]
    assert unused == []


ORACLES = os.path.join(ROOT, "tests", "oracles.py")


def _defined_names(path) -> set:
    """The names a Python file binds at its top level: functions, classes
    and assignment targets."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_every_public_test_oracle_is_used_by_a_test():
    used = set().union(*map(_used_names, glob.glob(os.path.join(ROOT, "tests", "test_*.py"))))
    assert sorted(n for n in _defined_names(ORACLES) if not n.startswith("_") and n not in used) == []


def test_no_test_oracle_is_also_defined_in_the_library():
    # a reference moved out of the library must not come back as a second path
    library = set().union(*map(_defined_names, glob.glob(os.path.join(ROOT, "src", "radgas", "*.py"))))
    assert sorted(_defined_names(ORACLES) & library) == []


def test_numpy_is_the_only_runtime_dependency():
    # scipy is a test dependency: the tests hold numpy routines against it
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    name = lambda dep: re.match(r"[A-Za-z0-9._-]+", dep).group()  # noqa: E731
    assert [name(dep) for dep in project["dependencies"]] == ["numpy"]
    assert "scipy" in map(name, project["optional-dependencies"]["test"])
