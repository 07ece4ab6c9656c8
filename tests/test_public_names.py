"""Every name a layer exports in ``__all__`` exists in that layer."""

import importlib

import pytest

LAYERS = ("series", "qspecial", "curve", "contour", "odesys", "sewing")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"rcftlab.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
