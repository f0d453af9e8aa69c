"""JSON documents: the one module that reads them.

Every document and expected value is read with three readers: ``json_value``
(one JSON type, matched exactly), ``keyed`` (an object's keys) and
``rational`` (a JSON integer or rational text).  A polynomial is grammar
text, a JSON integer or a term list
``{"vars": [...], "terms": [{"coeff": "3/4", "exps": [...]}]}``.  Bracket
and bivector entry keys are "i,j" with 0-based indices.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import partial
from typing import Sequence

from .algebroid import AlmostLieAlgebroid, AnchoredBundle
from .charts import ChartMap
from .nash import CURVE_VAR, CurveGerm
from .poisson import Bivector
from .poly import MAX_EXPONENT, MultiPoly, parse_poly, parse_rational


class DocumentError(ValueError):
    """A JSON document is malformed or references something undefined."""


_KINDS = {int: "integer", bool: "boolean", str: "string", list: "list", dict: "object"}
_text = partial(json.dumps, default=repr)  # a value JSON cannot hold, such as a Fraction, by repr


def json_value(kind: type, doc, what: str):
    """``doc`` itself when it is a JSON value of ``kind``: a boolean is no
    integer, and neither is 2.9 or "3"."""
    if type(doc) is not kind:
        raise DocumentError(f"{what} must be a JSON {_KINDS[kind]}, not {_text(doc)}")
    return doc


def keyed(doc, required: Sequence[str], optional: Sequence[str], what: str) -> dict:
    """``doc`` itself when it is a JSON object with every key of ``required``
    and no other key outside ``optional``; the first unknown key, else the
    first missing one, is named."""
    for key in json_value(dict, doc, what):
        if key not in required and key not in optional:
            raise DocumentError(
                f"{what} has no key {key!r} (it takes {', '.join((*required, *optional))})"
            )
    for key in required:
        if key not in doc:
            raise DocumentError(f"{what} is missing {key!r}")
    return doc


def rational(doc, what: str) -> Fraction:
    """A JSON integer or rational text such as "-3/4".  Any other JSON number
    is refused: 1e-400 reads as 0.0 and 1.0000000000000000001 as 1.0."""
    if type(doc) is int:
        return Fraction(doc)
    if type(doc) is not str:
        raise DocumentError(
            f"{what} must be a JSON integer or rational text, not {_text(doc)}"
        )
    try:
        return parse_rational(doc)
    except ValueError as exc:
        raise DocumentError(f"{what}: {exc}") from exc


def _names(doc, what: str) -> tuple[str, ...]:
    """A JSON list of distinct strings, such as a document's variable names."""
    names = json_value(list, doc, what)
    if not all(type(v) is str for v in names) or len(set(names)) != len(names):
        raise DocumentError(f"{what} must hold distinct strings, not {_text(names)}")
    return tuple(names)


def poly_from_doc(doc, variables: Sequence[str]) -> MultiPoly:
    """Polynomial text, a JSON integer or a term list over ``variables``."""
    if type(doc) is str:
        try:
            return parse_poly(doc, variables)
        except ValueError as exc:
            raise DocumentError(f"bad polynomial {doc!r}: {exc}") from exc
    if type(doc) is int:
        return MultiPoly.constant(variables, doc)
    if type(doc) is not dict:
        raise DocumentError(f"a polynomial is text, an integer or a term list, not {doc!r}")
    keyed(doc, ("vars", "terms"), (), "a term list")
    if _names(doc["vars"], '"vars"') != tuple(variables):
        raise DocumentError(f"a term list over {doc['vars']}, expected {list(variables)}")
    terms: dict[tuple[int, ...], Fraction] = {}
    for term in json_value(list, doc["terms"], '"terms"'):
        keyed(term, ("coeff", "exps"), (), "a term")
        exps = tuple(json_value(list, term["exps"], '"exps"'))
        for x in exps:
            if json_value(int, x, "an exponent") < 0:
                raise DocumentError(f"an exponent must be non-negative, not {x}")
        if len(exps) != len(variables):
            raise DocumentError(f"a term has {len(exps)} exponents for {len(variables)} variables")
        if any(x > MAX_EXPONENT for x in exps):
            raise DocumentError(f"exponent above {MAX_EXPONENT} in term {list(exps)}")
        terms[exps] = terms.get(exps, Fraction(0)) + rational(term["coeff"], "a coefficient")
    return MultiPoly(variables, terms)


def _section(doc, n: int, what: str, variables) -> list[MultiPoly]:
    """A JSON list of ``n`` polynomials: an anchor row or a section."""
    if len(json_value(list, doc, what)) != n:
        raise DocumentError(f"{what} has {len(doc)} entries, expected {n}")
    return [poly_from_doc(e, variables) for e in doc]


def index_pairs(doc, bound: int, what: str) -> dict[tuple[int, int], object]:
    """The values of a JSON object keyed by "i,j" (0-based, below ``bound``)
    by pair; a pair named by two keys, such as "0,1" and "0, 1", is refused
    with both keys named."""
    keys: dict[tuple[int, int], str] = {}
    for key in json_value(dict, doc, what):
        try:
            i, j = (int(text) for text in key.split(","))
        except ValueError as exc:
            raise DocumentError(f"bad index pair {key!r}, expected \"i,j\"") from exc
        if not (0 <= i < bound and 0 <= j < bound):
            raise DocumentError(f"index pair {key!r} out of range (0-based, < {bound})")
        if (i, j) in keys:
            raise DocumentError(
                f"{what} names the pair {i},{j} twice: {keys[(i, j)]!r} and {key!r}"
            )
        keys[(i, j)] = key
    return {pair: doc[key] for pair, key in keys.items()}


def point_from_doc(doc) -> tuple[Fraction, ...]:
    if not json_value(list, doc, "a point"):
        raise DocumentError("a point is a non-empty list of rationals")
    return tuple(rational(c, "a coordinate") for c in doc)


def algebroid_from_doc(doc):
    """Read an algebroid document.

    Returns an AlmostLieAlgebroid when "brackets" is present, otherwise the
    bare AnchoredBundle.
    """
    keyed(doc, ("vars", "rank", "anchor"), ("brackets",), "algebroid document")
    variables = _names(doc["vars"], '"vars"')
    if not variables:  # with no anchor rows the bundle would lose its rank
        raise DocumentError('"vars" must name at least one variable')
    n = json_value(int, doc["rank"], '"rank"')
    if n < 0:
        raise DocumentError(f'"rank" must be non-negative, not {n}')
    anchor_doc = json_value(list, doc["anchor"], '"anchor"')
    if len(anchor_doc) != len(variables):
        raise DocumentError(
            f"anchor has {len(anchor_doc)} rows for {len(variables)} variables"
        )
    anchor = [_section(row, n, "an anchor row", variables) for row in anchor_doc]
    structure = None
    if "brackets" in doc:
        structure = {
            (i, j): _section(section, n, f"bracket {i},{j}", variables)
            for (i, j), section in index_pairs(doc["brackets"], n, '"brackets"').items()
        }
    try:
        bundle = AnchoredBundle(variables, anchor)
        return bundle if structure is None else AlmostLieAlgebroid(bundle, structure)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def bivector_from_doc(doc) -> Bivector:
    keyed(doc, ("vars", "pi"), (), "bivector document")
    variables = _names(doc["vars"], '"vars"')
    entries = {}
    for (i, j), value in index_pairs(doc["pi"], len(variables), '"pi"').items():
        if i >= j:
            raise DocumentError(f"entry {i},{j} must have i < j (the lower half is implied)")
        entries[(i, j)] = poly_from_doc(value, variables)
    return Bivector.from_upper_entries(variables, entries)


def curve_from_doc(doc) -> CurveGerm:
    keyed(doc, ("target", "components"), (), "curve document")
    target_doc = json_value(list, doc["target"], '"target"')
    target = tuple(rational(c, "a target coordinate") for c in target_doc)
    components_doc = json_value(list, doc["components"], '"components"')
    components = tuple(poly_from_doc(c, CURVE_VAR) for c in components_doc)
    try:
        return CurveGerm(target, components)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def chart_from_doc(doc, target_vars: Sequence[str]) -> ChartMap:
    """Read a chart document; the target variables come from the input it
    will be applied to."""
    keyed(doc, ("chart_vars", "phi"), ("exceptional",), "chart document")
    chart_vars = _names(doc["chart_vars"], '"chart_vars"')
    phi = [poly_from_doc(p, chart_vars) for p in json_value(list, doc["phi"], '"phi"')]
    exceptional = doc.get("exceptional")
    if exceptional is not None:
        exceptional = poly_from_doc(exceptional, chart_vars)
    try:
        return ChartMap(chart_vars, tuple(target_vars), phi, exceptional=exceptional)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def kernel_gens_from_doc(doc, variables: Sequence[str], n: int) -> list[list[MultiPoly]]:
    gens = json_value(list, doc, '"kernel_gens"')
    return [_section(gen, n, f"kernel generator {idx}", variables) for idx, gen in enumerate(gens)]


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
