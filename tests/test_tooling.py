"""Source checks that stand in for a linter: every import is read, and
the package exports exactly what its __init__ imports."""

import ast
from pathlib import Path

import pytest

import dlstar

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dlstar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports (outside __future__) but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .x import a, b as c\n"
        "print(np.pi, c)\n"
    )
    assert unused_imports(source) == ["a", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_lists_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    assert len(dlstar.__all__) == len(set(dlstar.__all__))
    assert set(dlstar.__all__) == set(imported)
