"""Every module of the package imports only the standard library, numpy,
scipy and the package itself: the only runtime dependencies pyproject.toml
declares.  An installed but undeclared package (networkx, hypothesis) would
work here and break an install that has only the declared ones.

Nor does any module call numpy API newer than the declared floor,
numpy>=1.24, which an installed numpy 2 would run without complaint: the
guard knows the two this code base has met, ``bitwise_count`` and the
``out=`` keyword of the ``numpy.fft`` functions (both new in numpy 2.0)."""
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


def numpy2_only_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of every use of numpy >= 2.0 API the guard knows."""
    aliases = {}  # local name -> the dotted name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                aliases[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(node: ast.AST) -> str:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        head = aliases.get(node.id, node.id) if isinstance(node, ast.Name) else "?"
        return ".".join([head] + parts[::-1])

    found = []
    for node in ast.walk(tree):
        # an attribute, a bare name, or an imported name (ast.alias)
        if "bitwise_count" in (getattr(node, key, None) for key in ("attr", "id", "name")):
            found.append((node.lineno, "bitwise_count"))
        elif isinstance(node, ast.Call) and dotted(node.func).startswith("numpy.fft."):
            if any(k.arg == "out" for k in node.keywords):
                found.append((node.lineno, f"{dotted(node.func)}(out=...)"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy2_only_api(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    uses = [f"line {line}: {what}" for line, what in numpy2_only_uses(tree)]
    assert not uses, f"{path.name} uses API newer than numpy 1.24: {uses}"


def test_numpy2_guard_sees_aliased_uses():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy import fft\n"
        "from numpy.fft import irfft as inverse\n"
        "np.fft.ifft(a, axis=1, out=b)\n"
        "fft.rfft2(a, out=b)\n"
        "inverse(a, n=4, out=b)\n"
        "np.bitwise_count(x)\n"
        "from numpy import bitwise_count\n"
        "np.fft.ifft(a, axis=1)\n"
        "np.add(a, b, out=c)\n"
        "np.divide(a, b, out=np.zeros_like(a), where=b > 0)\n"
    )
    assert [line for line, _ in numpy2_only_uses(tree)] == [4, 5, 6, 7, 8]
