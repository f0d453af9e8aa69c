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
