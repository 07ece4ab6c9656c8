"""Every name a layer exports in ``__all__`` exists in that layer, and no
layer imports sympy at module level."""

import ast
import importlib
import inspect

import pytest

LAYERS = ("series", "qspecial", "curve", "contour", "odesys", "sewing")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"rcftlab.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("layer", LAYERS)
def test_sympy_imported_lazily(layer):
    # importing sympy takes about 0.3 s; only the exact analysis in
    # odesys.leading_matrix_5 needs it, so it is imported there
    tree = ast.parse(inspect.getsource(importlib.import_module(f"rcftlab.{layer}")))
    modules = [a.name for node in tree.body if isinstance(node, ast.Import)
               for a in node.names]
    modules += [node.module or "" for node in tree.body
                if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "sympy"]
