"""The package runs on the standard library alone, and every import and
definition in it is reached."""

import ast
import sys
from collections import Counter
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


def _integer_gcd_calls(path: Path) -> set[str]:
    """The names ``gcd`` and ``lcm`` of ``math`` that a module mentions, as
    ``math.gcd`` or imported from math."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr in ("gcd", "lcm"):
                found.add(f"math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.update(f"math.{a.name}" for a in node.names if a.name in ("gcd", "lcm"))
    return found


def test_only_poly_computes_integer_gcds():
    """The rational content of coefficients is decided in one module:
    `poly.integer_row` and the gcd routines beside it."""
    found = {path.name: _integer_gcd_calls(path) for path in SOURCES}
    assert found.pop("poly.py")
    assert not {name: calls for name, calls in found.items() if calls}


def _callers(path: Path, name: str) -> set[str]:
    """The functions of a module that call ``name`` (by name or as an
    attribute), each as its dotted path inside the module."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_every_minor_comes_from_minors():
    """Determinants are taken in two places: `linalg.minors`, when one
    elimination per minor costs less than the Laplace table, and the chart
    Jacobian.  Every other minor, cofactor or Cramer numerator is read from
    one `minors` call."""
    found = {f"{path.stem}.{scope}" for path in SOURCES for scope in _callers(path, "det")}
    assert found == {"linalg.minors", "charts.ChartMap.__init__"}


def test_only_printed_limits_become_subspaces():
    """An arc limit stays a Pluecker vector: `unpluecker` builds a subspace
    once per distinct limit of a fiber sample, and once for `nash-limit`."""
    found = {f"{path.stem}.{scope}" for path in SOURCES for scope in _callers(path, "unpluecker")}
    assert found == {"nash.nash_fiber_sample", "scenario._Runner.step_nash_limit"}


def test_only_limit_along_eliminates_the_whole_anchor_along_an_arc():
    """`kernel_curve` is the exact fallback of the pivot-row limit, for arcs
    along which the pivot rows are dependent over Q(t)."""
    found = {
        f"{path.stem}.{scope}" for path in SOURCES for scope in _callers(path, "kernel_curve")
    }
    assert found == {"nash.limit_along"}


def test_only_limit_along_takes_polynomial_minors_along_an_arc():
    """`limit_subspace` is the one span limit over Q[t], which `limit_along`
    takes of the pivot rows and, where they are dependent, of the kernel."""
    found = {
        f"{path.stem}.{scope}" for path in SOURCES for scope in _callers(path, "limit_subspace")
    }
    assert found == {"nash.limit_along"}


# Private names one module of the package imports from another, each shared
# on purpose: grassmann reads linalg's column-subset index and RREF kernel, and
# charts seeds its exceptional samples by nash's one seed policy.
PRIVATE_IMPORTS = {
    ("grassmann", "linalg", "_column_subsets"),
    ("grassmann", "linalg", "_rref_kernel"),
    ("charts", "nash", "_seeded_rng"),
}


def _private_imports(path: Path) -> set[tuple[str, str, str]]:
    """(importer, module, name) for each ``from .module import _name``."""
    return {
        (path.stem, node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_no_module_imports_another_modules_internals():
    """Each representation is known to one module: linalg alone reads its
    echelon layout, and poly alone builds polynomials through its trusted
    constructor `_result`."""
    found = set().union(*(_private_imports(path) for path in SOURCES))
    assert found == PRIVATE_IMPORTS


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


# Definitions that only code outside src/ calls, each with the file calling it.
ENTRY_POINTS = {"check_flag": "benchmarks/workloads.py"}


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of the
    classes, each with whether it is a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub, True


def _names(node: ast.AST, attributes_only: bool = False):
    """Every name the code under ``node`` mentions: read (unless
    ``attributes_only``), as an attribute, or as a string."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attributes_only:
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _unreferenced(paths) -> set[str]:
    """Names of the definitions in ``paths`` that no code in ``paths`` mentions
    outside the definition itself.  A method is reached only as an attribute
    or a string, so a local helper of the same name cannot mask it."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    mentions = {
        methods: Counter(name for tree in trees for name in _names(tree, methods))
        for methods in (False, True)
    }
    return {
        node.name
        for tree in trees
        for node, method in _definitions(tree)
        if mentions[method][node.name] == sum(name == node.name for name in _names(node, method))
    }


def test_every_definition_is_reached():
    assert not _unreferenced(SOURCES) - set(ENTRY_POINTS)


def test_entry_points_are_defined_and_called_from_outside():
    """The exemptions stay exact: each one is defined in src/, reached from
    nowhere else in src/, and still named by the file that calls it."""
    unreferenced = _unreferenced(SOURCES)
    root = Path(__file__).resolve().parents[1]
    for name, caller in ENTRY_POINTS.items():
        assert name in unreferenced, f"{name} is not defined in src/, or src/ reaches it"
        named = set(_names(ast.parse((root / caller).read_text(encoding="utf-8"))))
        assert name in named, f"{caller} no longer names {name}"
