"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import nashfol

SOURCES = sorted(Path(nashfol.__file__).resolve().parent.glob("*.py"))


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("nashfol" if node.level else node.module.split(".")[0])
    return roots


def test_every_import_is_nashfol_or_stdlib():
    assert SOURCES
    foreign = {
        f"{path.name}: {root}"
        for path in SOURCES
        for root in _imported_roots(path)
        if root != "nashfol" and root not in sys.stdlib_module_names
    }
    assert not foreign


def _unused_imports(path: Path) -> set[str]:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    unused = {f"{path.name}: {name}" for path in SOURCES for name in _unused_imports(path)}
    assert not unused
