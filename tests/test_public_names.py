"""Every name a layer exports in ``__all__`` exists in that layer and every
public function and class it defines is exported, no layer imports sympy
at module level, every layer imports only layers below it, and only
``HyperCurve`` indexes its roots."""

import ast
import importlib
import inspect

import pytest

LAYERS = ("series", "qspecial", "curve", "contour", "odesys", "sewing")

#: the layers each layer may import: series < qspecial < curve < contour
#: < odesys, and sewing sits on qspecial and series only
LOWER = {
    "series": set(),
    "qspecial": {"series"},
    "curve": {"series", "qspecial"},
    "contour": {"series", "qspecial", "curve"},
    "odesys": {"series", "qspecial", "curve", "contour"},
    "sewing": {"series", "qspecial"},
}


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"rcftlab.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def _tree(layer):
    return ast.parse(inspect.getsource(importlib.import_module(f"rcftlab.{layer}")))


@pytest.mark.parametrize("layer", LAYERS)
def test_public_definitions_exported(layer):
    # read from the source, so a decorated function counts as defined here
    defined = [node.name for node in _tree(layer).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    exported = importlib.import_module(f"rcftlab.{layer}").__all__
    assert sorted(set(defined) - set(exported)) == []


@pytest.mark.parametrize("layer", LAYERS)
def test_roots_indexed_only_by_hypercurve(layer):
    # X_s is read through HyperCurve.root(s), the one place where a root
    # index is checked; a raw roots[s] elsewhere wraps s = -1 to the last
    # root and raises IndexError at s = n
    outside = [node for node in _tree(layer).body
               if not (isinstance(node, ast.ClassDef) and node.name == "HyperCurve")]
    raw = [node.lineno for top in outside for node in ast.walk(top)
           if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
           and node.value.attr == "roots"]
    assert raw == []


@pytest.mark.parametrize("layer", LAYERS)
def test_sympy_imported_lazily(layer):
    # importing sympy takes about 0.3 s; only the exact analysis in
    # odesys.leading_matrix_5 needs it, so it is imported there
    tree = _tree(layer)
    modules = [a.name for node in tree.body if isinstance(node, ast.Import)
               for a in node.names]
    modules += [node.module or "" for node in tree.body
                if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "sympy"]


def _rcftlab_imports(tree):
    """Layer names of every rcftlab import in the tree, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # from .x import ... names x; from . import x names x
            names = [node.module] if node.module else [a.name for a in node.names]
            names = [f"rcftlab.{n}" for n in names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "rcftlab":
                names = [f"rcftlab.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "rcftlab":
                yield parts[1] if len(parts) > 1 else ""


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_order(layer):
    # module level or inside a function, an import may only reach down
    assert sorted(set(_rcftlab_imports(_tree(layer))) - LOWER[layer]) == []
