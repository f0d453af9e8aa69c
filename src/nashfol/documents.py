"""JSON document readers for the CLI and the scenario corpus.

Polynomials inside documents are grammar strings; the term-list object that
``poly.poly_from_doc`` reads is also accepted anywhere a polynomial is
expected.  Bracket and bivector entry keys are "i,j" with 0-based indices.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .algebroid import AlmostLieAlgebroid, AnchoredBundle
from .charts import ChartMap
from .nash import CURVE_VAR, CurveGerm
from .poisson import Bivector
from .poly import MultiPoly, parse_rational, poly_from_doc


class DocumentError(ValueError):
    """A JSON document is malformed or references something undefined."""


def parse_point(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, e.g. "1,2,-1/3"."""
    parts = text.split(",")
    if not any(s.strip() for s in parts):
        raise DocumentError(f"empty point {text!r}")
    if not all(s.strip() for s in parts):
        raise DocumentError(f"empty coordinate in point {text!r}")
    try:
        return tuple(parse_rational(s) for s in parts)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def point_from_doc(doc) -> tuple[Fraction, ...]:
    if not isinstance(doc, list) or not doc:
        raise DocumentError("a point is a non-empty list of rationals")
    try:
        return tuple(parse_rational(str(c)) for c in doc)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def point_to_doc(point: Sequence[Fraction]) -> list[str]:
    return [str(c) for c in point]


def _shaped(doc, kind: type, what: str):
    """The document itself when it is a JSON list or object, as ``kind`` asks."""
    if not isinstance(doc, kind):
        raise DocumentError(f"{what} must be {'a list' if kind is list else 'an object'}")
    return doc


def _names(doc, what: str) -> tuple[str, ...]:
    """A JSON list of distinct strings, such as a document's variable names."""
    names = _shaped(doc, list, what)
    if not all(isinstance(v, str) for v in names) or len(set(names)) != len(names):
        raise DocumentError(f"{what} must hold distinct strings, not {names!r}")
    return tuple(names)


def _poly(doc, variables) -> MultiPoly:
    try:
        return poly_from_doc(doc, variables)
    except (ValueError, KeyError, TypeError) as exc:
        raise DocumentError(f"bad polynomial {doc!r}: {exc}") from exc


def _pair_key(key: str, bound: int) -> tuple[int, int]:
    try:
        i_text, j_text = key.split(",")
        i, j = int(i_text), int(j_text)
    except ValueError as exc:
        raise DocumentError(f"bad index pair {key!r}, expected \"i,j\"") from exc
    if not (0 <= i < bound and 0 <= j < bound):
        raise DocumentError(f"index pair {key!r} out of range (0-based, < {bound})")
    if i == j:
        raise DocumentError(f"diagonal index pair {key!r}")
    return i, j


def algebroid_from_doc(doc):
    """Read an algebroid document.

    Returns an AlmostLieAlgebroid when "brackets" is present, otherwise the
    bare AnchoredBundle.
    """
    _shaped(doc, dict, "algebroid document")
    try:
        variables = _names(doc["vars"], '"vars"')
        n = doc["rank"]
        anchor_doc = _shaped(doc["anchor"], list, '"anchor"')
    except KeyError as exc:
        raise DocumentError(f"algebroid document missing {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DocumentError(f'"rank" must be a non-negative integer, not {n!r}')
    if len(anchor_doc) != len(variables):
        raise DocumentError(
            f"anchor has {len(anchor_doc)} rows for {len(variables)} variables"
        )
    anchor = []
    for row in anchor_doc:
        if len(_shaped(row, list, "an anchor row")) != n:
            raise DocumentError(f"anchor row of width {len(row)}, expected {n}")
        anchor.append([_poly(e, variables) for e in row])
    try:
        bundle = AnchoredBundle(variables, anchor)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    if "brackets" not in doc:
        return bundle
    structure = {}
    for key, section in _shaped(doc["brackets"], dict, '"brackets"').items():
        pair = _pair_key(key, n)
        if len(_shaped(section, list, f"bracket {key!r}")) != n:
            raise DocumentError(f"bracket {key!r} has {len(section)} components")
        structure[pair] = [_poly(e, variables) for e in section]
    try:
        return AlmostLieAlgebroid(bundle, structure)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def bivector_from_doc(doc) -> Bivector:
    _shaped(doc, dict, "bivector document")
    try:
        variables = _names(doc["vars"], '"vars"')
        entries_doc = _shaped(doc["pi"], dict, '"pi"')
    except KeyError as exc:
        raise DocumentError(f"bivector document missing {exc}") from exc
    d = len(variables)
    entries = {}
    for key, value in entries_doc.items():
        i, j = _pair_key(key, d)
        if i > j:
            raise DocumentError(f"entry {key!r} must use i < j (lower half is implied)")
        entries[(i, j)] = _poly(value, variables)
    return Bivector.from_upper_entries(variables, entries)


def curve_from_doc(doc) -> CurveGerm:
    _shaped(doc, dict, "curve document")
    try:
        target_doc = _shaped(doc["target"], list, '"target"')
        target = tuple(parse_rational(str(c)) for c in target_doc)
        components_doc = _shaped(doc["components"], list, '"components"')
        components = tuple(_poly(c, CURVE_VAR) for c in components_doc)
    except KeyError as exc:
        raise DocumentError(f"curve document missing {exc}") from exc
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    try:
        return CurveGerm(target, components)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def chart_from_doc(doc, target_vars: Sequence[str]) -> ChartMap:
    """Read a chart document; the target variables come from the input it
    will be applied to."""
    _shaped(doc, dict, "chart document")
    try:
        chart_vars = _names(doc["chart_vars"], '"chart_vars"')
        phi = [_poly(p, chart_vars) for p in _shaped(doc["phi"], list, '"phi"')]
    except KeyError as exc:
        raise DocumentError(f"chart document missing {exc}") from exc
    exceptional = None
    if doc.get("exceptional") is not None:
        exceptional = _poly(doc["exceptional"], chart_vars)
    try:
        return ChartMap(chart_vars, tuple(target_vars), phi, exceptional=exceptional)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def kernel_gens_from_doc(doc, variables: Sequence[str], n: int) -> list[list[MultiPoly]]:
    gens = []
    for idx, section in enumerate(_shaped(doc, list, '"kernel_gens"')):
        if len(_shaped(section, list, f"kernel generator {idx}")) != n:
            raise DocumentError(
                f"kernel generator {idx} has {len(section)} components, expected {n}"
            )
        gens.append([_poly(e, variables) for e in section])
    return gens


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
