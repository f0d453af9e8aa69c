"""Scenario documents: a named input plus a list of steps with expectations.

A scenario carries an algebroid or a bivector (or both), optional named
charts, curves, and points, and a step list.  Steps run in declared order;
each may carry an "expect" clause whose values are compared in canonical form
(parsed polynomials, RREF subspaces, Pluecker vectors), never as raw strings.

Timing is kept on the in-memory Report but never serialized: identical
scenario + seed must produce identical report bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    WellDefinednessFailureError,
    anchor_rank_generic,
    generic_kernel_sections,
    isotropy_algebra_at,
    is_lie_algebroid,
    kernel_at,
    morphism_defect_pairs,
    singular_locus,
)
from .charts import (
    ChartPullback,
    NotResolvedByChartError,
    check_debord_on_chart,
    check_ideal,
    debord_generators,
    nash_anchor_on_chart,
    pullback_bivector,
    tautological_frame,
)
from .documents import (
    DocumentError,
    algebroid_from_doc,
    bivector_from_doc,
    chart_from_doc,
    curve_from_doc,
    index_pairs,
    json_value,
    keyed,
    kernel_gens_from_doc,
    point_from_doc,
    poly_from_doc,
    rational,
)
from .grassmann import PlueckerVector, Subspace
from .nash import default_arcs, limit_along, nash_fiber_sample
from .poisson import cotangent_algebroid
from .poly import MultiPoly, RatFunc, integer_row, point_text


class ScenarioError(ValueError):
    """A scenario references something undefined or is structurally invalid."""


class EngineError(RuntimeError):
    """An engine failure, annotated with the step that triggered it."""


@dataclass(frozen=True)
class Source:
    """What a step reads from one input: its anchored bundle, the algebroid
    that carries its brackets (None for an algebroid given without
    "brackets"), and its kernel generators, computed on first use when the
    scenario gives none."""

    kind: str
    bundle: AnchoredBundle
    algebroid: AlmostLieAlgebroid | None
    given_gens: list | None = None

    @cached_property
    def kernel_gens(self) -> list:
        if self.given_gens is not None:
            return self.given_gens
        return generic_kernel_sections(self.bundle)


@dataclass
class Scenario:
    """A loaded scenario.  ``sources`` maps "algebroid" and "bivector" to the
    Source each input gives; both share the base variables."""

    name: str
    algebroid: object | None
    bivector: object | None
    kernel_gens: list | None
    sources: dict[str, Source]
    charts: dict
    curves: dict
    points: dict
    steps: list


@dataclass
class Check:
    label: str
    passed: bool
    expected: str
    actual: str


@dataclass
class StepResult:
    """One step's outcome.  ``summary`` is its report line and ``text`` what
    the single command ``nashfol <op>`` prints (the summary unless the op
    renders more); ``seeded`` marks output that depends on the seed.  The
    runner fills in ``op`` and ``checks``."""

    summary: str
    details: dict
    text: str | None = None
    seeded: bool = False
    op: str = ""
    checks: list[Check] = field(default_factory=list)

    def __post_init__(self):
        if self.text is None:
            self.text = self.summary


@dataclass
class Report:
    scenario: str
    seed: int
    steps: list[StepResult]
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for s in self.steps for c in s.checks)

    @property
    def check_counts(self) -> tuple[int, int]:
        checks = [c for s in self.steps for c in s.checks]
        return sum(1 for c in checks if c.passed), len(checks)


_SCENARIO_KEYS = (
    "name", "commentary", "algebroid", "bivector", "kernel_gens", "charts", "curves", "points",
    "steps",
)


def load_scenario(doc) -> Scenario:
    keyed(doc, (), _SCENARIO_KEYS, "scenario document")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("scenario needs a non-empty \"name\"")
    algebroid = None
    bivector = None
    if "algebroid" in doc:
        algebroid = algebroid_from_doc(doc["algebroid"])
    if "bivector" in doc:
        bivector = bivector_from_doc(doc["bivector"])
    if algebroid is None and bivector is None:
        raise ScenarioError(f"scenario {name!r} has neither an algebroid nor a bivector")
    kernel_gens = None
    sources = {}
    if algebroid is not None:
        brackets = algebroid if isinstance(algebroid, AlmostLieAlgebroid) else None
        bundle = algebroid if brackets is None else brackets.bundle
        if "kernel_gens" in doc:
            kernel_gens = kernel_gens_from_doc(
                doc["kernel_gens"], bundle.base_vars, bundle.fiber_rank
            )
        sources["algebroid"] = Source("algebroid", bundle, brackets, kernel_gens)
    elif "kernel_gens" in doc:
        raise ScenarioError("kernel_gens given without an algebroid")
    if bivector is not None:
        cotangent = cotangent_algebroid(bivector)
        sources["bivector"] = Source("bivector", cotangent.bundle, cotangent)
    base_vars = next(iter(sources.values())).bundle.base_vars
    if bivector is not None and bivector.vars != base_vars:
        raise ScenarioError(
            f"the algebroid is over {base_vars} and the bivector over {bivector.vars}; "
            "both must share the base variables"
        )
    tables = {}
    for table, from_doc in _REFERENCES.values():
        entries = json_value(dict, doc.get(table, {}), f'"{table}"')
        tables[table] = {key: from_doc(value, base_vars) for key, value in entries.items()}
    steps = json_value(list, doc.get("steps", []), '"steps"')
    if "commentary" in doc:
        json_value(str, doc["commentary"], '"commentary"')
    return Scenario(
        name=name,
        algebroid=algebroid,
        bivector=bivector,
        kernel_gens=kernel_gens,
        sources=sources,
        charts=tables["charts"],
        curves=tables["curves"],
        points=tables["points"],
        steps=steps,
    )


# Step key -> (scenario table, decoder of an inline document given the base
# variables); tables are decoded in this order.
_REFERENCES: dict[str, tuple[str, Callable]] = {
    "chart": ("charts", chart_from_doc),
    "curve": ("curves", lambda doc, base_vars: curve_from_doc(doc)),
    "point": ("points", lambda doc, base_vars: point_from_doc(doc)),
}


# ---------------------------------------------------------------------------
# canonical comparisons
# ---------------------------------------------------------------------------


def _poly_set(polys) -> list[str]:
    """Sign-normalized distinct nonzero generators, sorted canonically."""
    return sorted({str(p.primitive()) for p in polys if not p.is_zero()})


def _basis_rows(sub: Subspace) -> list[list[int]]:
    return [integer_row(row) for row in sub.rows]


def _check(label: str, expected, actual) -> Check:
    return Check(label, expected == actual, _render_value(expected), _render_value(actual))


def _rows_text(rows) -> str:
    return ", ".join("(" + ", ".join(str(c) for c in row) + ")" for row in rows)


def _render_value(value) -> str:
    if isinstance(value, Subspace):
        return f"span[{_rows_text(_basis_rows(value))}]"
    if isinstance(value, PlueckerVector):
        return f"pluecker{tuple(value.coords)}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# expected documents
# ---------------------------------------------------------------------------
# Each parser is called as parser(doc, actual, ring_vars): ``actual`` is the
# value the step observed (None when it computed none), and ``ring_vars`` are
# the chart variables for a chart op, else the base variables.


def _expected(kind: type, doc):
    return json_value(kind, doc, "an expected value")


def _int(doc, *_) -> int:
    return _expected(int, doc)


def _bool(doc, *_) -> bool:
    return _expected(bool, doc)


def _ints(doc, *_) -> list[int]:
    return [_int(item) for item in _expected(list, doc)]


def _bools(doc, *_) -> list[bool]:
    return [_bool(item) for item in _expected(list, doc)]


def _generators(doc, _, ring_vars) -> list[str]:
    return sorted(str(poly_from_doc(e, ring_vars).primitive()) for e in _expected(list, doc))


def _subspace(doc, actual: Subspace, _) -> Subspace:
    rows = [[rational(c, "a kernel row entry") for c in _expected(list, row)]
            for row in _expected(list, doc)]
    return Subspace(actual.n, rows)


def _pluecker(doc, actual: PlueckerVector, _) -> PlueckerVector:
    return PlueckerVector(actual.n, actual.k, _ints(doc))


def _plueckers(doc, actual: list, _) -> list:
    """Sorted like the sample's limits (a sample has at least one)."""
    return sorted(PlueckerVector(actual[0].n, actual[0].k, _ints(c)) for c in _expected(list, doc))


def _polys(doc, _, ring_vars) -> list[list[MultiPoly]]:
    return [[poly_from_doc(c, ring_vars) for c in _expected(list, col)]
            for col in _expected(list, doc)]


def _ratfuncs(doc, _, ring_vars) -> list[list[RatFunc]]:
    return [[RatFunc(p) for p in col] for col in _polys(doc, None, ring_vars)]


_RELATION_KEYS = ("index", "basis", "coefficients", "polynomial")


def _relations(doc, _, ring_vars) -> list[tuple]:
    """Each relation object carries exactly the keys of ``_RELATION_KEYS``."""
    relations = []
    for rel in _expected(list, doc):
        keyed(rel, _RELATION_KEYS, (), "a relation")
        relations.append((
            _int(rel["index"]),
            tuple(_ints(rel["basis"])),
            [RatFunc(poly_from_doc(c, ring_vars)) for c in _expected(list, rel["coefficients"])],
            _bool(rel["polynomial"]),
        ))
    return relations


def _pole(doc, _, ring_vars) -> str | None:
    return None if doc is None else str(poly_from_doc(doc, ring_vars).primitive())


def _entries(doc, _, ring_vars) -> dict:
    """Expected bivector entries, each a list of a numerator and an optional
    denominator, in "i,j" order, each labelled as its own check."""
    expected = {}
    for (i, j), value in index_pairs(doc, len(ring_vars), "an expected value").items():
        if not 1 <= len(_expected(list, value)) <= 2:
            raise DocumentError(f"entry {i},{j} is [numerator] or [numerator, denominator], "
                                f"not {json.dumps(value)}")
        expected[f"entry {i},{j}"] = RatFunc(*(poly_from_doc(p, ring_vars) for p in value))
    return dict(sorted(expected.items()))


# ---------------------------------------------------------------------------
# step execution
# ---------------------------------------------------------------------------


class _Runner:
    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.base_vars = next(iter(scenario.sources.values())).bundle.base_vars
        self.pullbacks = {}  # (source kind, chart) -> ChartPullback

    # -- input resolution ---------------------------------------------------

    def source(self, step) -> Source:
        """The source the step names, else the algebroid's, else the
        bivector's; an isotropy step that names none reads the bivector when
        the algebroid has no brackets.  A source named but missing (or, for
        isotropy, without brackets) is refused rather than replaced."""
        sources = self.scenario.sources
        name = step.get("source")
        if name is None:
            name = "algebroid" if "algebroid" in sources else "bivector"
            if step["op"] == "isotropy" and sources[name].algebroid is None:
                if "bivector" not in sources:
                    raise ScenarioError("step needs bracket data; scenario has none")
                name = "bivector"
        elif name not in ("algebroid", "bivector"):
            raise ScenarioError(
                f"step {step['op']!r} has source {name!r}, not \"algebroid\" or \"bivector\""
            )
        elif name not in sources:
            raise ScenarioError(f"step asks for the {name}; scenario has none")
        elif step["op"] == "isotropy" and sources[name].algebroid is None:
            raise ScenarioError("step asks for the algebroid's brackets; its algebroid has none")
        return sources[name]

    def resolve(self, key: str, ref):
        """A step's "point", "curve" or "chart" ``ref``: a string names an
        entry of the scenario's table, any other value is an inline document."""
        table, from_doc = _REFERENCES[key]
        if isinstance(ref, str):
            entries = getattr(self.scenario, table)
            if ref not in entries:
                raise ScenarioError(f"unknown {key} {ref!r}")
            return entries[ref]
        return from_doc(ref, self.base_vars)

    def pullback(self, src: Source, chart) -> ChartPullback:
        """The source's anchor pulled back to the chart, once per run: a
        named chart is one ChartMap for the scenario, an inline one its own."""
        if (src.kind, chart) not in self.pullbacks:
            self.pullbacks[src.kind, chart] = ChartPullback(src.bundle, chart)
        return self.pullbacks[src.kind, chart]

    # -- steps ----------------------------------------------------------------

    def run_step(self, step) -> StepResult:
        """Refuse keys the op does not read and a missing reference, resolve
        its source and reference, run its handler and check what it observed
        against the step's expectations: computed keys first, then those it
        could not compute, in table order."""
        name = step.get("op")
        op = OPS.get(name) if isinstance(name, str) else None
        if op is None:
            raise ScenarioError(f"unknown step op {name!r}")
        keyed(step, (op.ref,) if op.ref else (), ("op", "expect", *op.keys), f"step {name!r}")
        src = self.source(step)
        single = callable(op.expect)
        if single:
            parsers, expect = {name: op.expect}, {name: step["expect"]} if "expect" in step else {}
        else:
            parsers = op.expect
            expect = keyed(step.get("expect", {}), (), tuple(parsers), f'step {name!r} "expect"')
        ref = None if op.ref is None else self.resolve(op.ref, step[op.ref])
        result, observed = op.handler(self, src, step, ref)
        observed = {name: observed} if single else observed
        ring_vars = ref.chart_vars if op.ref == "chart" else self.base_vars
        computed, missing = [], []
        for key in (key for key in parsers if key in expect):
            try:
                expected = parsers[key](expect[key], observed.get(key), ring_vars)
            except DocumentError as exc:
                raise DocumentError(f"step {name!r} expectation {key!r}: {exc}") from None
            if key not in observed:
                missing.append(Check(key, False, _render_value(expect[key]), "not computed"))
            elif isinstance(expected, dict):  # one check per expected entry
                computed += [_check(k, v, observed[key][k]) for k, v in expected.items()]
            else:
                computed.append(_check(key, expected, observed[key]))
        result.op, result.checks = name, computed + missing
        return result

    def step_validate(self, src, step, _):
        a = src.algebroid
        if src.kind == "bivector":
            poisson = not morphism_defect_pairs(a)
            summary = f"bivector: {'Poisson' if poisson else 'not Poisson'}"
            details = {"kind": "bivector", "poisson": poisson}
            return StepResult(summary, details), {"poisson": poisson}
        if a is None:
            return StepResult("anchored bundle: no bracket data", {"kind": "anchored-bundle"}), {}
        defects = morphism_defect_pairs(a)
        lie = is_lie_algebroid(a)
        details = {
            "kind": "algebroid",
            "anchor_morphism": not defects,
            "defect_pairs": [list(p) for p in defects],
            "lie": lie,
        }
        summary = (
            "algebroid: anchor morphism "
            + ("holds" if not defects else f"fails on {len(defects)} pair(s)")
            + ", Jacobi "
            + ("holds" if lie else "fails or not checked")
        )
        return StepResult(summary, details), {"anchor_morphism": not defects, "lie": lie}

    def step_rank(self, src, step, _):
        r = anchor_rank_generic(src.bundle)
        return StepResult(f"generic rank: {r}", {"rank": r}), r

    def step_singular_locus(self, src, step, _):
        gens = _poly_set(singular_locus(src.bundle))
        summary = "singular locus: " + (", ".join(gens) if gens else "(empty)")
        return StepResult(summary, {"generators": gens}), gens

    def step_kernel_at(self, src, step, x):
        sub = kernel_at(src.bundle, x)
        basis = _basis_rows(sub)
        details = {"point": [str(c) for c in x], "dim": sub.dim, "basis": basis}
        summary = f"kernel at point: {_render_value(sub)}"
        text = f"kernel basis: [{_rows_text(basis)}] (dim {sub.dim})"
        return StepResult(summary, details, text=text), sub

    def step_isotropy(self, src, step, x):
        try:
            iso = isotropy_algebra_at(src.algebroid, src.kernel_gens, x)
        except WellDefinednessFailureError as exc:
            if src.given_gens is not None:
                raise
            raise WellDefinednessFailureError(
                f"{exc}: these are the generic kernel sections, a basis over the fraction "
                'field; a scenario\'s "kernel_gens" can supply a generating set'
            ) from None
        abelian = all(
            all(c == 0 for c in coeffs) for coeffs in iso.structure.values()
        )
        details = {
            "point": [str(c) for c in x],
            "dim": iso.dim,
            "abelian": abelian,
            "kernel_dim": iso.kernel.dim,
            "strong_kernel_dim": iso.strong_kernel.dim,
        }
        summary = f"isotropy: dim {iso.dim}" + (", abelian" if abelian else "")
        text = (
            f"isotropy: dim {iso.dim} ({'abelian' if abelian else 'non-abelian'}); "
            f"kernel dim {iso.kernel.dim}, strong kernel dim {iso.strong_kernel.dim}"
        )
        return StepResult(summary, details, text=text), {"dim": iso.dim, "abelian": abelian}

    def step_nash_limit(self, src, step, curve):
        limit = limit_along(src.bundle, curve)
        pv = limit.pluecker()
        basis = _basis_rows(limit)
        details = {"dim": limit.dim, "pluecker": list(pv.coords), "basis": basis}
        text = (
            f"limit: dim {limit.dim}, basis [{_rows_text(basis)}], "
            f"pluecker ({', '.join(str(c) for c in pv.coords)})"
        )
        summary = f"limit: {_render_value(limit)}"
        return StepResult(summary, details, text=text), {"pluecker": pv, "basis": limit}

    def step_nash_fiber(self, src, step, x):
        if "curves" in step:
            curves = [
                self.resolve("curve", c) for c in json_value(list, step["curves"], '"curves"')
            ]
            if not curves:
                raise DocumentError('"curves" must name at least one curve')
        else:
            curves = default_arcs(x, self.seed)
        sample = nash_fiber_sample(src.bundle, x, curves)
        ok_count = sum(1 for s in sample.curve_status if s == "ok")
        details = {
            "point": [str(c) for c in x],
            "arcs": {"ok": ok_count, "singular": len(sample.curve_status) - ok_count},
            "limits": [
                {
                    "dim": rec.subspace.dim,
                    "pluecker": list(rec.pluecker.coords),
                    "basis": _basis_rows(rec.subspace),
                }
                for rec in sample.limits
            ],
        }
        summary = f"nash fiber: {len(sample.limits)} distinct limit(s) from {ok_count} arc(s)"
        lines = [
            f"point: {point_text(x)}",
            f"arcs: {ok_count} ok, {details['arcs']['singular']} in singular locus",
            f"distinct limits: {len(sample.limits)}",
        ]
        for rec in details["limits"]:
            pl = ", ".join(str(c) for c in rec["pluecker"])
            rows = _rows_text(rec["basis"])
            lines.append(f"  dim {rec['dim']}  pluecker ({pl})  basis [{rows}]")
        result = StepResult(summary, details, text="\n".join(lines), seeded="curves" not in step)
        plueckers = [rec.pluecker for rec in sample.limits]
        return result, {"count": len(sample.limits), "plueckers": plueckers}

    def step_pullback_chart(self, src, step, chart):
        pullbacks = self.pullback(src, chart).fields
        details = {
            "pullbacks": [
                {
                    "components": [str(c) for c in pb.components],
                    "polynomial": pb.polynomial_flag,
                    "denominator": None if pb.denominator is None else str(pb.denominator),
                }
                for pb in pullbacks
            ]
        }
        flags = sum(1 for pb in pullbacks if pb.polynomial_flag)
        summary = f"pullbacks: {flags}/{src.bundle.fiber_rank} polynomial"
        text = "\n".join(
            f"e_{idx}: ({', '.join(pb['components'])})  ["
            + ("polynomial" if pb["polynomial"] else f"denominator {pb['denominator']}")
            + "]"
            for idx, pb in enumerate(details["pullbacks"])
        )
        return StepResult(summary, details, text=text), {
            "pullbacks": [list(pb.components) for pb in pullbacks],
            "polynomial": [pb.polynomial_flag for pb in pullbacks],
        }

    def step_relations(self, src, step, chart):
        relations = debord_generators(self.pullback(src, chart))
        details = {
            "relations": [
                {
                    "index": rel.index,
                    "basis": list(rel.basis),
                    "coefficients": [str(c) for c in rel.coefficients],
                    "polynomial": rel.polynomial,
                }
                for rel in relations
            ]
        }
        summary = f"relations: {len(relations)}" + (
            "" if all(r.polynomial for r in relations) else " (some non-polynomial)"
        )
        return StepResult(summary, details), [
            (rel.index, rel.basis, list(rel.coefficients), rel.polynomial) for rel in relations
        ]

    def step_chart_report(self, src, step, chart):
        # an algebroid given without brackets is reported with zero brackets
        algebroid = src.algebroid or AlmostLieAlgebroid(src.bundle, {})
        try:
            nca = nash_anchor_on_chart(algebroid, self.pullback(src, chart))
        except NotResolvedByChartError as err:
            details = {
                "resolved": False,
                "failures": [
                    {"index": i, "denominator": str(d)} for i, d in err.failures
                ],
            }
            text = "\n".join(
                ["chart does not resolve the foliation:"]
                + [
                    f"  basis section {i} pulls back with denominator {d}"
                    for i, d in err.failures
                ]
            )
            result = StepResult("chart does not resolve", details, text=text, seeded=True)
            return result, {"resolved": False}
        frame = tautological_frame(nca, seed=self.seed)
        ideal_ok, ideal_report = check_ideal(frame)
        debord_ok, cert = check_debord_on_chart(frame)
        details = {
            "resolved": True,
            "frame": [[str(p) for p in col] for col in frame.columns],
            "ideal": ideal_ok,
            "ideal_label": ideal_report["label"],
            "debord": debord_ok,
            "ranks": {
                "ambient": cert["ambient_rank"],
                "frame": cert["frame_rank"],
                "quotient": cert["quotient_rank"],
            },
        }
        ideal = "ok" if ideal_ok else "FAILED"
        debord = "ok" if debord_ok else "FAILED"
        summary = (
            f"chart resolves; frame rank {cert['frame_rank']} + quotient rank "
            f"{cert['quotient_rank']} = {cert['ambient_rank']}; "
            f"ideal {ideal}, debord {debord}"
        )
        text = "\n".join(
            [
                "chart resolves the foliation",
                f"frame columns: [{_rows_text(details['frame'])}]",
                f"ideal check: {ideal} ({details['ideal_label']})",
                f"debord check: {debord}",
                f"ranks: frame {cert['frame_rank']} + quotient {cert['quotient_rank']} "
                f"= ambient {cert['ambient_rank']}",
            ]
        )
        return StepResult(summary, details, text=text, seeded=True), {
            "resolved": True,
            "frame": frame.columns,
            "ideal": ideal_ok,
            "debord": debord_ok,
            "frame_rank": cert["frame_rank"],
            "quotient_rank": cert["quotient_rank"],
        }

    def step_poisson_pullback(self, src, step, chart):
        if self.scenario.bivector is None:
            raise ScenarioError("poisson-pullback needs a bivector in the scenario")
        matrix, pole = pullback_bivector(chart, self.scenario.bivector)
        d = chart.dim
        details = {
            "pole": None if pole is None else str(pole),
            "entries": {
                f"{i},{j}": str(matrix[i][j])
                for i in range(d)
                for j in range(i + 1, d)
                if not matrix[i][j].is_zero()
            },
        }
        summary = "pullback pole: " + ("none (polynomial)" if pole is None else str(pole))
        text = "\n".join(
            [summary]
            + [f"  pi[{key}] = {value}" for key, value in sorted(details["entries"].items())]
        )
        return StepResult(summary, details, text=text), {
            "pole": None if pole is None else str(pole.primitive()),
            "entries": {f"entry {i},{j}": matrix[i][j] for i in range(d) for j in range(d)},
        }


@dataclass(frozen=True)
class Op:
    """One step op, which is also the command ``nashfol <op>``.

    ``handler(runner, src, step, ref)`` gets the step's resolved Source and
    ``ref`` ("point", "curve" or "chart"; None if the op reads none), and
    returns its StepResult and what it observed: expectation key -> actual
    value.  ``expect`` maps each expectation key, in check order, to the
    parser of its expected document; it is a bare parser when the step's
    "expect" value is itself the one check, labelled with the op, and the
    handler observes one bare value.  A dict observed is checked entry by entry, for each entry the
    parser returns.  ``keys`` are the other step keys the op reads.
    """

    handler: Callable
    help: str
    expect: dict[str, Callable] | Callable
    ref: str | None = None
    keys: tuple[str, ...] = ("source",)


OPS: dict[str, Op] = {
    "validate": Op(
        _Runner.step_validate, "check bracket axioms (or Poisson condition for a bivector)",
        {"poisson": _bool, "anchor_morphism": _bool, "lie": _bool},
    ),
    "rank": Op(_Runner.step_rank, "generic anchor rank", _int),
    "singular-locus": Op(
        _Runner.step_singular_locus, "generators cutting out the singular locus", _generators
    ),
    "kernel-at": Op(_Runner.step_kernel_at, "anchor kernel at a point", _subspace, "point"),
    "isotropy": Op(
        _Runner.step_isotropy, "isotropy Lie algebra at a point",
        {"dim": _int, "abelian": _bool}, "point",
    ),
    "nash-limit": Op(
        _Runner.step_nash_limit, "kernel limit along one arc",
        {"pluecker": _pluecker, "basis": _subspace}, "curve",
    ),
    "nash-fiber": Op(
        _Runner.step_nash_fiber, "distinct kernel limits over a point",
        {"count": _int, "plueckers": _plueckers}, "point", ("source", "curves"),
    ),
    "pullback-chart": Op(
        _Runner.step_pullback_chart, "pull anchor sections back through a chart",
        {"pullbacks": _ratfuncs, "polynomial": _bools}, "chart",
    ),
    "relations": Op(
        _Runner.step_relations, "relations among the anchor sections pulled back to a chart",
        _relations, "chart",
    ),
    "nash-chart-report": Op(
        _Runner.step_chart_report, "full chart report: pullbacks, frame, quotient",
        {"resolved": _bool, "frame": _polys, "ideal": _bool, "debord": _bool,
         "frame_rank": _int, "quotient_rank": _int},
        "chart",
    ),
    "poisson-pullback": Op(
        _Runner.step_poisson_pullback, "pull a bivector back through a chart",
        {"pole": _pole, "entries": _entries}, "chart", (),
    ),
}


def run_single_step(scenario: Scenario, step: dict, seed: int = 0) -> StepResult:
    """Run one step outside a full report (the CLI's single-command path)."""
    return _Runner(scenario, seed).run_step(step)


def run_scenario(scenario: Scenario, seed: int = 0) -> Report:
    start = time.perf_counter()
    runner = _Runner(scenario, seed)
    steps = []
    for idx, step in enumerate(scenario.steps):
        json_value(dict, step, f"step {idx}")
        try:
            steps.append(runner.run_step(step))
        except (ScenarioError, DocumentError) as exc:
            raise type(exc)(f"step {idx} ({step.get('op')!r}): {exc}") from exc
        # A malformed expectation (a list where a number belongs, a string
        # where an object belongs, a missing key) fails with TypeError or
        # LookupError; it is reported against its step like a ValueError.
        except (ValueError, ArithmeticError, RuntimeError, TypeError, LookupError) as exc:
            raise EngineError(
                f"step {idx} ({step.get('op')!r}) failed: {exc}"
            ) from exc
    report = Report(scenario.name, seed, steps)
    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_report_text(report: Report) -> str:
    lines = [f"scenario: {report.scenario}", f"seed: {report.seed}"]
    for idx, step in enumerate(report.steps, start=1):
        lines.append(f"[{idx}] {step.op}: {step.summary}")
        for check in step.checks:
            verdict = "PASS" if check.passed else "FAIL"
            lines.append(f"    {check.label}: {verdict}")
            if not check.passed:
                lines.append(f"      expected {check.expected}")
                lines.append(f"      actual   {check.actual}")
    passed, total = report.check_counts
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(f"result: {verdict} ({passed}/{total} expectations)")
    return "\n".join(lines) + "\n"


def report_to_doc(report: Report) -> dict:
    return {
        "scenario": report.scenario,
        "seed": report.seed,
        "passed": report.passed,
        "steps": [
            {
                "op": step.op,
                "summary": step.summary,
                "details": step.details,
                "checks": [
                    {
                        "label": c.label,
                        "passed": c.passed,
                        "expected": c.expected,
                        "actual": c.actual,
                    }
                    for c in step.checks
                ],
            }
            for step in report.steps
        ],
    }


def render_report_json(report: Report) -> str:
    return json.dumps(report_to_doc(report), sort_keys=True, indent=2) + "\n"
