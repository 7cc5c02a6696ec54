"""The package's public surface: every ``__all__`` entry exists, every
name the demos import from ``hgipll`` resolves, every demo runs to
completion, and the package imports nothing but the standard library and
numpy."""

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
