"""The package namespace re-exports every public name of its layer modules."""

import importlib

import pytest

import radgas

LAYERS = ["physics", "collision_reduction", "levelscan", "picard", "slab", "domain3d", "three_level", "kinetic"]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_is_reexported(layer):
    module = importlib.import_module(f"radgas.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert [name for name in module.__all__ if getattr(radgas, name, None) is not getattr(module, name)] == []
