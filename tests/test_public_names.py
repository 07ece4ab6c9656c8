"""Every name a layer exports in ``__all__`` exists in that layer and every
public function and class it defines is exported, every name a layer
imports is read in it, no layer imports sympy at module level, every layer
imports only layers below it, only ``HyperCurve`` indexes its roots, and
only ``qspecial`` writes the (2,5) model numbers."""

import ast
import importlib
import inspect
from fractions import Fraction

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
def test_imported_names_are_read(layer):
    # no linter runs on the layers, so an import that nothing reads is
    # caught here; a from __future__ import is a compiler directive, not a
    # name to read
    tree = _tree(layer)
    imported = {(a.asname or a.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - read) == []


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


#: the (2,5) numbers that only qspecial may write: c = -22/5, the character
#: exponents h - c/24 = 11/60 and -1/60, and -a_h0 a_g0 = 11/3600
MODEL_NUMBERS = {float(v) for v in (Fraction(-22, 5), Fraction(11, 60),
                                    Fraction(-1, 60), Fraction(11, 3600))}


def _literal_value(node):
    """Exact value of a number literal, a negated or divided one, or a
    Fraction(...) of them; None for anything else."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)):
        return Fraction(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        v = _literal_value(node.operand)
        return None if v is None else -v
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        a, b = _literal_value(node.left), _literal_value(node.right)
        return None if a is None or not b else a / b
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction" and node.args and not node.keywords):
        args = [_literal_value(a) for a in node.args]
        return None if None in args else Fraction(*args)
    return None


@pytest.mark.parametrize("layer", LAYERS)
def test_model_numbers_written_only_in_qspecial(layer):
    # qspecial holds c and the Kac weights once; the character exponents,
    # the character equation's coefficient and every default c derive from
    # them, so a typed -22.0 / 5.0 or Fraction(11, 60) elsewhere is a copy
    lines = [node.lineno for node in ast.walk(_tree(layer))
             if (v := _literal_value(node)) is not None and float(v) in MODEL_NUMBERS]
    if layer == "qspecial":
        assert lines  # the one place they are written
    else:
        assert lines == []


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
