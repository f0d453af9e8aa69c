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
import math
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable

from .algebroid import (
    AlmostLieAlgebroid,
    anchor_rank_generic,
    generic_kernel_sections,
    isotropy_algebra_at,
    is_lie_algebroid,
    kernel_at,
    morphism_defect_pairs,
    singular_locus,
)
from .charts import (
    NotResolvedByChartError,
    check_debord_on_chart,
    check_ideal,
    debord_generators,
    nash_anchor_on_chart,
    pullback_anchor,
    pullback_bivector,
    tautological_frame,
)
from .documents import (
    DocumentError,
    algebroid_from_doc,
    bivector_from_doc,
    chart_from_doc,
    curve_from_doc,
    kernel_gens_from_doc,
    point_from_doc,
)
from .grassmann import PlueckerVector, Subspace
from .nash import default_arcs, limit_along, nash_fiber_sample
from .poisson import cotangent_algebroid, is_poisson
from .poly import MultiPoly, RatFunc, parse_poly, parse_rational


class ScenarioError(ValueError):
    """A scenario references something undefined or is structurally invalid."""


def corpus_names() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = resources.files("nashfol") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_corpus_scenario(name: str) -> "Scenario":
    path = resources.files("nashfol") / "scenarios" / f"{name}.json"
    with path.open(encoding="utf-8") as handle:
        return load_scenario(json.load(handle))


class EngineError(RuntimeError):
    """An engine failure, annotated with the step that triggered it."""


@dataclass
class Scenario:
    name: str
    algebroid: object | None
    bivector: object | None
    kernel_gens: list | None
    charts: dict
    curves: dict
    points: dict
    steps: list
    commentary: str | None = None


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
    renders more); ``seeded`` marks output that depends on the seed."""

    op: str
    summary: str
    details: dict
    checks: list[Check] = field(default_factory=list)
    text: str | None = None
    seeded: bool = False

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


def load_scenario(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be an object")
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
    base_vars = _base_vars(algebroid, bivector)
    kernel_gens = None
    if "kernel_gens" in doc:
        if algebroid is None:
            raise ScenarioError("kernel_gens given without an algebroid")
        kernel_gens = kernel_gens_from_doc(
            doc["kernel_gens"], base_vars, algebroid.bundle.fiber_rank
            if isinstance(algebroid, AlmostLieAlgebroid)
            else algebroid.fiber_rank,
        )
    tables = {}
    for table, from_doc in _REFERENCES.values():
        entries = doc.get(table, {})
        if not isinstance(entries, dict):
            raise ScenarioError(f"\"{table}\" must be an object")
        tables[table] = {key: from_doc(value, base_vars) for key, value in entries.items()}
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise ScenarioError("\"steps\" must be a list")
    return Scenario(
        name=name,
        algebroid=algebroid,
        bivector=bivector,
        kernel_gens=kernel_gens,
        charts=tables["charts"],
        curves=tables["curves"],
        points=tables["points"],
        steps=steps,
        commentary=doc.get("commentary"),
    )


# Step key -> (scenario table, decoder of an inline document given the base
# variables); tables are decoded in this order.
_REFERENCES: dict[str, tuple[str, Callable]] = {
    "chart": ("charts", chart_from_doc),
    "curve": ("curves", lambda doc, base_vars: curve_from_doc(doc)),
    "point": ("points", lambda doc, base_vars: point_from_doc(doc)),
}


def _base_vars(algebroid, bivector):
    if algebroid is not None:
        bundle = algebroid.bundle if isinstance(algebroid, AlmostLieAlgebroid) else algebroid
        return bundle.base_vars
    return bivector.vars


# ---------------------------------------------------------------------------
# canonical comparisons
# ---------------------------------------------------------------------------


def _norm(p: MultiPoly) -> MultiPoly:
    return MultiPoly.zero(p.vars) if p.is_zero() else p.primitive()


def _poly_set(polys) -> list[str]:
    """Sign-normalized distinct nonzero generators, sorted canonically."""
    return sorted({str(_norm(p)) for p in polys if not p.is_zero()})


def _expect_subspace(expected_rows, n: int) -> Subspace:
    rows = [[parse_rational(str(c)) for c in row] for row in expected_rows]
    return Subspace(n, rows)


def _int_row(row) -> list[int]:
    """Scale a rational basis row to its primitive integer representative."""
    scale = math.lcm(*(c.denominator for c in row)) if row else 1
    ints = [int(c * scale) for c in row]
    g = math.gcd(*ints) if any(ints) else 1
    return [c // g for c in ints]


def _basis_rows(sub: Subspace) -> list[list[int]]:
    return [_int_row(row) for row in sub.rows]


def _check(checks: list[Check], label: str, expected, actual):
    checks.append(
        Check(
            label=label,
            passed=expected == actual,
            expected=_render_value(expected),
            actual=_render_value(actual),
        )
    )


def _expectations(step, keys) -> dict:
    """The step's expect object; a key that the op never checks is refused."""
    expect = step.get("expect", {})
    for key in expect if isinstance(expect, dict) else ():
        if key not in keys:
            raise ScenarioError(
                f"step {step['op']!r} has no expectation {key!r} "
                f"(it checks {', '.join(keys)})"
            )
    return expect


def _not_computed(checks: list[Check], expect, keys) -> None:
    """A failing check for each expected key that this branch cannot compute."""
    for key in keys:
        if key in expect:
            checks.append(Check(key, False, _render_value(expect[key]), "not computed"))


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
# step execution
# ---------------------------------------------------------------------------


class _Runner:
    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        # its bundle, the sharp map, anchors every bivector step: ranked once per run
        bivector = scenario.bivector
        self.cotangent = None if bivector is None else cotangent_algebroid(bivector)

    # -- input resolution ---------------------------------------------------

    def anchor_source(self, step):
        if step.get("source") == "bivector" or self.scenario.algebroid is None:
            if self.cotangent is None:
                raise ScenarioError("step asks for the bivector; scenario has none")
            return self.cotangent.bundle
        return self.scenario.algebroid

    def bracket_source(self, step):
        s = self.scenario
        if step.get("source") != "bivector" and isinstance(s.algebroid, AlmostLieAlgebroid):
            return s.algebroid
        if self.cotangent is not None:
            return self.cotangent
        raise ScenarioError("step needs bracket data; scenario has none")

    def kernel_gens(self, algebroid):
        if self.scenario.kernel_gens is not None:
            return self.scenario.kernel_gens
        return generic_kernel_sections(algebroid)

    def resolve(self, step, key: str):
        """The step's "point", "curve" or "chart": a string names an entry of
        the scenario's table, any other value is an inline document."""
        ref = step.get(key)
        if ref is None:
            raise ScenarioError(f"step {step.get('op')!r} needs a \"{key}\"")
        table, from_doc = _REFERENCES[key]
        if isinstance(ref, str):
            entries = getattr(self.scenario, table)
            if ref not in entries:
                raise ScenarioError(f"unknown {key} {ref!r}")
            return entries[ref]
        return from_doc(ref, self.base_vars())

    def base_vars(self):
        return _base_vars(self.scenario.algebroid, self.scenario.bivector)

    # -- steps ----------------------------------------------------------------

    def run_step(self, step) -> StepResult:
        op = step.get("op")
        handler = _STEP_HANDLERS.get(op) if isinstance(op, str) else None
        if handler is None:
            raise ScenarioError(f"unknown step op {op!r}")
        return handler(self, step)

    def step_validate(self, step) -> StepResult:
        checks: list[Check] = []
        expect = _expectations(step, ("poisson", "anchor_morphism", "lie"))
        if step.get("source") == "bivector" or (
            self.scenario.algebroid is None and self.scenario.bivector is not None
        ):
            poisson = is_poisson(self.scenario.bivector)
            details = {"kind": "bivector", "poisson": poisson}
            summary = f"bivector: {'Poisson' if poisson else 'not Poisson'}"
            if "poisson" in expect:
                _check(checks, "poisson", bool(expect["poisson"]), poisson)
            _not_computed(checks, expect, ("anchor_morphism", "lie"))
            return StepResult("validate", summary, details, checks)
        a = self.scenario.algebroid
        if not isinstance(a, AlmostLieAlgebroid):
            details = {"kind": "anchored-bundle"}
            _not_computed(checks, expect, ("poisson", "anchor_morphism", "lie"))
            return StepResult("validate", "anchored bundle: no bracket data", details, checks)
        defects = morphism_defect_pairs(a)
        lie = not defects and is_lie_algebroid(a)
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
        if "anchor_morphism" in expect:
            _check(checks, "anchor_morphism", bool(expect["anchor_morphism"]), not defects)
        if "lie" in expect:
            _check(checks, "lie", bool(expect["lie"]), lie)
        _not_computed(checks, expect, ("poisson",))
        return StepResult("validate", summary, details, checks)

    def step_rank(self, step) -> StepResult:
        a = self.anchor_source(step)
        r = anchor_rank_generic(a)
        checks: list[Check] = []
        if "expect" in step:
            _check(checks, "rank", int(step["expect"]), r)
        return StepResult("rank", f"generic rank: {r}", {"rank": r}, checks)

    def step_singular_locus(self, step) -> StepResult:
        a = self.anchor_source(step)
        gens = _poly_set(singular_locus(a))
        checks: list[Check] = []
        if "expect" in step:
            vs = self.base_vars()
            expected = sorted(str(_norm(parse_poly(e, vs))) for e in step["expect"])
            _check(checks, "singular-locus", expected, gens)
        summary = "singular locus: " + (", ".join(gens) if gens else "(empty)")
        return StepResult("singular-locus", summary, {"generators": gens}, checks)

    def step_kernel_at(self, step) -> StepResult:
        a = self.anchor_source(step)
        x = self.resolve(step, "point")
        sub = kernel_at(a, x)
        checks: list[Check] = []
        if "expect" in step:
            _check(checks, "kernel-at", _expect_subspace(step["expect"], sub.n), sub)
        basis = _basis_rows(sub)
        details = {"point": [str(c) for c in x], "dim": sub.dim, "basis": basis}
        summary = f"kernel at point: {_render_value(sub)}"
        text = f"kernel basis: [{_rows_text(basis)}] (dim {sub.dim})"
        return StepResult("kernel-at", summary, details, checks, text=text)

    def step_isotropy(self, step) -> StepResult:
        expect = _expectations(step, ("dim", "abelian"))
        a = self.bracket_source(step)
        x = self.resolve(step, "point")
        iso = isotropy_algebra_at(a, self.kernel_gens(a), x)
        abelian = all(
            all(c == 0 for c in coeffs) for coeffs in iso.structure.values()
        )
        checks: list[Check] = []
        if "dim" in expect:
            _check(checks, "dim", int(expect["dim"]), iso.dim)
        if "abelian" in expect:
            _check(checks, "abelian", bool(expect["abelian"]), abelian)
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
        return StepResult("isotropy", summary, details, checks, text=text)

    def step_nash_limit(self, step) -> StepResult:
        expect = _expectations(step, ("pluecker", "basis"))
        a = self.anchor_source(step)
        curve = self.resolve(step, "curve")
        limit = limit_along(a, curve)
        pv = limit.pluecker()
        checks: list[Check] = []
        if "pluecker" in expect:
            _check(
                checks,
                "pluecker",
                PlueckerVector(pv.n, pv.k, [int(c) for c in expect["pluecker"]]),
                pv,
            )
        if "basis" in expect:
            _check(checks, "basis", _expect_subspace(expect["basis"], limit.n), limit)
        basis = _basis_rows(limit)
        details = {"dim": limit.dim, "pluecker": list(pv.coords), "basis": basis}
        text = (
            f"limit: dim {limit.dim}, basis [{_rows_text(basis)}], "
            f"pluecker ({', '.join(str(c) for c in pv.coords)})"
        )
        summary = f"limit: {_render_value(limit)}"
        return StepResult("nash-limit", summary, details, checks, text=text)

    def step_nash_fiber(self, step) -> StepResult:
        expect = _expectations(step, ("count", "plueckers"))
        a = self.anchor_source(step)
        x = self.resolve(step, "point")
        if "curves" in step:
            curves = [
                self.resolve({"op": step["op"], "curve": c}, "curve") for c in step["curves"]
            ]
        else:
            curves = default_arcs(x, self.seed)
        sample = nash_fiber_sample(a, x, curves)
        checks: list[Check] = []
        if "count" in expect:
            _check(checks, "count", int(expect["count"]), len(sample.limits))
        if "plueckers" in expect:
            actual = [rec.pluecker for rec in sample.limits]
            expected = [
                PlueckerVector(actual[0].n, actual[0].k, [int(c) for c in coords])
                if actual
                else coords
                for coords in expect["plueckers"]
            ]
            _check(checks, "plueckers", sorted(expected), list(actual))
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
            f"point: ({', '.join(details['point'])})",
            f"arcs: {ok_count} ok, {details['arcs']['singular']} in singular locus",
            f"distinct limits: {len(sample.limits)}",
        ]
        for rec in details["limits"]:
            pl = ", ".join(str(c) for c in rec["pluecker"])
            rows = _rows_text(rec["basis"])
            lines.append(f"  dim {rec['dim']}  pluecker ({pl})  basis [{rows}]")
        return StepResult(
            "nash-fiber",
            summary,
            details,
            checks,
            text="\n".join(lines),
            seeded="curves" not in step,
        )

    def step_pullback_chart(self, step) -> StepResult:
        expect = _expectations(step, ("pullbacks", "polynomial"))
        a = self.anchor_source(step)
        chart = self.resolve(step, "chart")
        bundle = a.bundle if isinstance(a, AlmostLieAlgebroid) else a
        n = bundle.fiber_rank
        pullbacks = pullback_anchor(bundle, chart)
        checks: list[Check] = []
        if "pullbacks" in expect:
            expected = [
                [RatFunc(parse_poly(c, chart.chart_vars)) for c in comps]
                for comps in expect["pullbacks"]
            ]
            actual = [list(pb.components) for pb in pullbacks]
            _check(checks, "pullbacks", expected, actual)
        if "polynomial" in expect:
            _check(
                checks,
                "polynomial",
                [bool(f) for f in expect["polynomial"]],
                [pb.polynomial_flag for pb in pullbacks],
            )
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
        summary = f"pullbacks: {flags}/{n} polynomial"
        text = "\n".join(
            f"e_{idx}: ({', '.join(pb['components'])})  ["
            + ("polynomial" if pb["polynomial"] else f"denominator {pb['denominator']}")
            + "]"
            for idx, pb in enumerate(details["pullbacks"])
        )
        return StepResult("pullback-chart", summary, details, checks, text=text)

    def step_relations(self, step) -> StepResult:
        a = self.anchor_source(step)
        chart = self.resolve(step, "chart")
        _, relations = debord_generators(a, chart)
        checks: list[Check] = []
        if "expect" in step:
            expected = [
                (
                    int(rel["index"]),
                    tuple(int(b) for b in rel["basis"]),
                    [RatFunc(parse_poly(c, chart.chart_vars)) for c in rel["coefficients"]],
                    bool(rel.get("polynomial", True)),
                )
                for rel in step["expect"]
            ]
            actual = [
                (rel.index, rel.basis, list(rel.coefficients), rel.polynomial)
                for rel in relations
            ]
            _check(checks, "relations", expected, actual)
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
        return StepResult("relations", summary, details, checks)

    def step_chart_report(self, step) -> StepResult:
        computed = ("frame", "ideal", "debord", "frame_rank", "quotient_rank")
        expect = _expectations(step, ("resolved",) + computed)
        a = self.anchor_source(step)
        chart = self.resolve(step, "chart")
        checks: list[Check] = []
        try:
            nca = nash_anchor_on_chart(_as_algebroid(a), chart)
        except NotResolvedByChartError as err:
            details = {
                "resolved": False,
                "failures": [
                    {"index": i, "denominator": str(d)} for i, d in err.failures
                ],
            }
            if "resolved" in expect:
                _check(checks, "resolved", bool(expect["resolved"]), False)
            _not_computed(checks, expect, computed)
            text = "\n".join(
                ["chart does not resolve the foliation:"]
                + [
                    f"  basis section {i} pulls back with denominator {d}"
                    for i, d in err.failures
                ]
            )
            return StepResult(
                "nash-chart-report",
                "chart does not resolve",
                details,
                checks,
                text=text,
                seeded=True,
            )
        frame = tautological_frame(nca, seed=self.seed)
        ideal_ok, ideal_report = check_ideal(frame)
        debord_ok, cert = check_debord_on_chart(frame)
        if "resolved" in expect:
            _check(checks, "resolved", bool(expect["resolved"]), True)
        if "frame" in expect:
            expected = [
                [parse_poly(c, chart.chart_vars) for c in col] for col in expect["frame"]
            ]
            _check(checks, "frame", expected, frame.columns)
        if "ideal" in expect:
            _check(checks, "ideal", bool(expect["ideal"]), ideal_ok)
        if "debord" in expect:
            _check(checks, "debord", bool(expect["debord"]), debord_ok)
        if "frame_rank" in expect:
            _check(checks, "frame_rank", int(expect["frame_rank"]), cert["frame_rank"])
        if "quotient_rank" in expect:
            _check(
                checks, "quotient_rank", int(expect["quotient_rank"]), cert["quotient_rank"]
            )
        details = {
            "resolved": True,
            "frame": [[str(p) for p in col] for col in frame.columns],
            "ideal": ideal_ok,
            "ideal_label": ideal_report.get("label"),
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
        return StepResult("nash-chart-report", summary, details, checks, text=text, seeded=True)

    def step_poisson_pullback(self, step) -> StepResult:
        expect = _expectations(step, ("pole", "entries"))
        if self.scenario.bivector is None:
            raise ScenarioError("poisson-pullback needs a bivector in the scenario")
        chart = self.resolve(step, "chart")
        matrix, pole = pullback_bivector(chart, self.scenario.bivector)
        d = chart.dim
        checks: list[Check] = []
        if "pole" in expect:
            expected_pole = (
                None
                if expect["pole"] is None
                else str(_norm(parse_poly(expect["pole"], chart.chart_vars)))
            )
            actual_pole = None if pole is None else str(_norm(pole))
            _check(checks, "pole", expected_pole, actual_pole)
        if "entries" in expect:
            for key, value in sorted(expect["entries"].items()):
                i_text, j_text = key.split(",")
                i, j = int(i_text), int(j_text)
                num = parse_poly(value[0], chart.chart_vars)
                den = parse_poly(value[1], chart.chart_vars) if len(value) > 1 else None
                _check(checks, f"entry {i},{j}", RatFunc(num, den), matrix[i][j])
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
        return StepResult("poisson-pullback", summary, details, checks, text=text)


def _as_algebroid(a) -> AlmostLieAlgebroid:
    return a if isinstance(a, AlmostLieAlgebroid) else AlmostLieAlgebroid(a, {})


_STEP_HANDLERS: dict[str, Callable] = {
    "validate": _Runner.step_validate,
    "rank": _Runner.step_rank,
    "singular-locus": _Runner.step_singular_locus,
    "kernel-at": _Runner.step_kernel_at,
    "isotropy": _Runner.step_isotropy,
    "nash-limit": _Runner.step_nash_limit,
    "nash-fiber": _Runner.step_nash_fiber,
    "pullback-chart": _Runner.step_pullback_chart,
    "relations": _Runner.step_relations,
    "nash-chart-report": _Runner.step_chart_report,
    "poisson-pullback": _Runner.step_poisson_pullback,
}


def run_single_step(scenario: Scenario, step: dict, seed: int = 0) -> StepResult:
    """Run one step outside a full report (the CLI's single-command path)."""
    return _Runner(scenario, seed).run_step(step)


def run_scenario(scenario: Scenario, seed: int = 0) -> Report:
    start = time.perf_counter()
    runner = _Runner(scenario, seed)
    steps = []
    for idx, step in enumerate(scenario.steps):
        if not isinstance(step, dict):
            raise ScenarioError(f"step {idx} is not an object")
        try:
            steps.append(runner.run_step(step))
        except (ScenarioError, DocumentError):
            raise
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
