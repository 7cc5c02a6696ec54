"""The package's public surface: every ``__all__`` entry exists, every
name the demos import from ``hgipll`` resolves, every demo runs to
completion, the package imports nothing but the standard library and
numpy, and every definition in it, methods included, is reached by the
package, the demos or the acceptance gate."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hgipll

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "hgipll").glob("*.py"))


def test_all_entries_are_attributes():
    assert [n for n in hgipll.__all__ if not hasattr(hgipll, n)] == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "hgipll"
        for alias in node.names
    ]
    assert imports, "the demo imports nothing from hgipll"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the demos import the package from the source tree, as the tests do
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_package_is_numpy_only():
    # numpy is the one declared dependency; scipy and others may be
    # installed, so an import of them would otherwise pass unnoticed
    assert PACKAGE
    foreign = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "numpy"]
    assert foreign == []


def _names(nodes) -> set[str]:
    """Every name, attribute and imported name the syntax trees use."""
    used = set()
    for node in (n for tree in nodes for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.asname or node.name)
    return used


#: The one definition no command, demo or gate reaches: the write half of
#: the scenario file format, kept so that a scenario built in Python can be
#: saved for ``simulate --scenario`` (the tests round-trip it).
UNREACHED = {("signal_model.py", "save_scenario")}


def _exempt(name: str) -> bool:
    """Methods that Python or ``ast.NodeTransformer`` call by name."""
    return (name.startswith("__") and name.endswith("__")
            or name.startswith("visit_"))


def test_every_definition_is_reached():
    # a top-level function or class of src/hgipll, or a method of one of
    # its classes, that only the tests (or the re-exports of __init__) use
    # is code the toolkit does not need
    modules = {p.name: ast.parse(p.read_text(), filename=str(p))
               for p in PACKAGE if p.name != "__init__.py"}
    outside = _names(ast.parse(p.read_text(), filename=str(p))
                     for p in DEMOS + [ROOT / "tests" / "test_acceptance.py"])
    unreached = set()
    for name, tree in modules.items():
        others = _names(t for n, t in modules.items() if n != name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = _names(s for s in tree.body if s is not node)
                if node.name not in own | others | outside:
                    unreached.add((name, node.name))
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef)
                            and not _exempt(method.name)):
                        used = own | _names(
                            m for m in node.body if m is not method)
                        if method.name not in used | others | outside:
                            unreached.add((name, method.name))
    assert unreached == UNREACHED
