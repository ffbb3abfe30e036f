"""Static checks on the package sources that stand in for a lint step.

An import is unused when the name it binds never appears as a name in the
module and is not listed in ``__all__``. ``__init__.py`` re-exports by
importing, and ``from __future__`` imports bind nothing, so both are skipped.
An ``__all__`` entry is stale when the module binds no such name at its top
level, so ``from module import *`` would fail.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parent.parent / "src" / "srmks").glob("*.py")
    if path.name != "__init__.py"
)


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _stale_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return [name for name in _exported(tree) if name not in bound]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scanner_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import scipy.linalg\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "x = scipy.linalg.eigh\n"
    )
    assert _unused_imports(source) == ["line 2: math", "line 4: dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scanner_flags_a_stale_export():
    source = (
        "from json import dumps\n"
        "__all__ = ['dumps', 'f', 'C', 'X', 'gone']\n"
        "def f(): pass\n"
        "class C: pass\n"
        "X: int = 1\n"
    )
    assert _stale_exports(source) == ["gone"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_export_is_bound(path):
    assert _stale_exports(path.read_text()) == []
