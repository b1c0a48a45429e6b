"""Every module of the package imports only the standard library, numpy,
scipy and the package itself: the only runtime dependencies pyproject.toml
declares.  An installed but undeclared package (networkx, hypothesis) would
work here and break an install that has only the declared ones."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import lineage_ilp

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "lineage_ilp"}
PACKAGE = Path(lineage_ilp.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_roots(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level name) of every absolute import in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_every_module_is_checked():
    assert len(MODULES) >= 13
    assert PACKAGE / "pipeline.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_declared_dependencies(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [f"line {line}: {name}" for line, name in imported_roots(tree) if name not in ALLOWED]
    assert not foreign, f"{path.name} imports undeclared packages: {foreign}"


def test_guard_sees_nested_and_aliased_imports():
    tree = ast.parse(
        "import os.path as p\n"
        "from . import io\n"
        "def f():\n"
        "    import networkx as nx\n"
        "    from hypothesis.strategies import integers\n"
    )
    roots = [name for _, name in imported_roots(tree)]
    assert roots == ["os", "networkx", "hypothesis"]
    assert [name for name in roots if name not in ALLOWED] == ["networkx", "hypothesis"]
