"""The package is a stack of layers, each importing only the ones below it.

params < algebra < stationary < massmap < energy < oracle < verification < cli

Every import of a package module sits at module level, names a lower layer,
and reads only public names: a layer meets another through its public
interface, and importing one layer loads only the layers beneath it.  Only
params names a region: the layers above read its rule.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import deltanls

LAYERS = ("params", "algebra", "stationary", "massmap", "energy", "oracle",
          "verification", "cli")
PACKAGE = pathlib.Path(deltanls.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _package_imports(tree: ast.Module):
    """(node, imported layer, names read from it) of every import of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "deltanls":
                    continue
                parts = parts[1:]
            if parts == [""] or not parts:
                # from . import a, b: each name is a layer
                for alias in node.names:
                    yield node, alias.name, ()
            else:
                yield node, parts[0], tuple(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "deltanls":
                    yield node, parts[1] if len(parts) > 1 else "", ()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_imports_go_down_at_module_level(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = LAYERS.index(path.stem) if path.stem in LAYERS else -1   # __init__: none
    for node, layer, names in _package_imports(tree):
        where = f"{path.name}:{node.lineno}"
        assert node in tree.body, f"{where}: import of {layer!r} inside a block"
        assert layer in LAYERS and LAYERS.index(layer) < own, \
            f"{where}: {path.stem} imports {layer!r}, not a lower layer"
        assert not any(map(_private, names)), f"{where}: private name from {layer}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    layers = {alias.asname or alias.name
              for node in tree.body if isinstance(node, ast.ImportFrom)
              and node.level == 1 and not node.module for alias in node.names}
    reads = [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in layers and _private(node.attr)]
    assert reads == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "params"],
                         ids=lambda p: p.stem)
def test_only_params_names_a_region(path):
    # the paper's statement for every region is one rule in params
    # (expected_solution_regime); the other layers dispatch on the rule's
    # fields and never on a Region member
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "Region"
             or isinstance(node, ast.Attribute) and node.attr == "Region"
             or isinstance(node, ast.ImportFrom) and "Region" in [a.name for a in node.names]]
    assert named == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_imports_a_private_scipy_module(path):
    # SciPy's private modules (scipy.integrate._ivp and the like) may change
    # in any release; the package reads SciPy's public names only
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = [(node.lineno, node.module) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 0]
    modules += [(node.lineno, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    private = [f"{path.name}:{line}: {name}" for line, name in modules
               if name.split(".")[0] == "scipy" and any(map(_private, name.split(".")))]
    assert private == []


def test_a_layer_loads_only_the_layers_below_it():
    code = ("import sys, deltanls.massmap; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('deltanls'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout.split() == ["deltanls", "deltanls.algebra", "deltanls.massmap",
                                  "deltanls.params", "deltanls.stationary"]
