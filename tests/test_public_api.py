"""The package's public surface: every ``__all__`` entry exists, and every
name the demos import from ``hgipll`` resolves.  The demos are parsed,
not run."""

import ast
import importlib
from pathlib import Path

import pytest

import hgipll

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
