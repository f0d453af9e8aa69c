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
from .nash import default_arcs, kernel_curve, limit_subspace, nash_fiber_sample
from .poisson import cotangent_algebroid, is_poisson, pi_sharp
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
    op: str
    summary: str
    details: dict
    checks: list[Check] = field(default_factory=list)


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
    charts = {
        cname: chart_from_doc(cdoc, base_vars)
        for cname, cdoc in doc.get("charts", {}).items()
    }
    curves = {
        cname: curve_from_doc(cdoc) for cname, cdoc in doc.get("curves", {}).items()
    }
    points = {
        pname: point_from_doc(pdoc) for pname, pdoc in doc.get("points", {}).items()
    }
    steps = doc.get("steps", [])
    if not isinstance(steps, list):
        raise ScenarioError("\"steps\" must be a list")
    return Scenario(
        name=name,
        algebroid=algebroid,
        bivector=bivector,
        kernel_gens=kernel_gens,
        charts=charts,
        curves=curves,
        points=points,
        steps=steps,
        commentary=doc.get("commentary"),
    )


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


def _render_value(value) -> str:
    if isinstance(value, Subspace):
        rows = ", ".join(
            "(" + ", ".join(str(c) for c in row) + ")" for row in _basis_rows(value)
        )
        return f"span[{rows}]"
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
        self._cotangent = None

    # -- input resolution ---------------------------------------------------

    def anchor_source(self, step):
        s = self.scenario
        if step.get("source") == "bivector":
            if s.bivector is None:
                raise ScenarioError("step asks for the bivector; scenario has none")
            return pi_sharp(s.bivector)
        if s.algebroid is not None:
            return s.algebroid
        return pi_sharp(s.bivector)

    def bracket_source(self, step):
        s = self.scenario
        if step.get("source") != "bivector" and isinstance(s.algebroid, AlmostLieAlgebroid):
            return s.algebroid
        if s.bivector is not None:
            if self._cotangent is None:
                self._cotangent = cotangent_algebroid(s.bivector)
            return self._cotangent
        raise ScenarioError("step needs bracket data; scenario has none")

    def kernel_gens(self, algebroid):
        if self.scenario.kernel_gens is not None:
            return self.scenario.kernel_gens
        return generic_kernel_sections(algebroid)

    def point(self, step):
        ref = step.get("point")
        if ref is None:
            raise ScenarioError(f"step {step.get('op')!r} needs a \"point\"")
        if isinstance(ref, str):
            if ref not in self.scenario.points:
                raise ScenarioError(f"unknown point {ref!r}")
            return self.scenario.points[ref]
        return point_from_doc(ref)

    def curve(self, step):
        ref = step.get("curve")
        if ref is None:
            raise ScenarioError(f"step {step.get('op')!r} needs a \"curve\"")
        if isinstance(ref, str):
            if ref not in self.scenario.curves:
                raise ScenarioError(f"unknown curve {ref!r}")
            return self.scenario.curves[ref]
        return curve_from_doc(ref)

    def chart(self, step):
        ref = step.get("chart")
        if ref is None:
            raise ScenarioError(f"step {step.get('op')!r} needs a \"chart\"")
        if ref not in self.scenario.charts:
            raise ScenarioError(f"unknown chart {ref!r}")
        return self.scenario.charts[ref]

    def base_vars(self):
        return _base_vars(self.scenario.algebroid, self.scenario.bivector)

    # -- steps ----------------------------------------------------------------

    def run_step(self, step) -> StepResult:
        op = step.get("op")
        handler = _STEP_HANDLERS.get(op)
        if handler is None:
            raise ScenarioError(f"unknown step op {op!r}")
        return handler(self, step)

    def step_validate(self, step) -> StepResult:
        checks: list[Check] = []
        expect = step.get("expect", {})
        if step.get("source") == "bivector" or (
            self.scenario.algebroid is None and self.scenario.bivector is not None
        ):
            poisson = is_poisson(self.scenario.bivector)
            details = {"kind": "bivector", "poisson": poisson}
            summary = f"bivector: {'Poisson' if poisson else 'not Poisson'}"
            if "poisson" in expect:
                _check(checks, "poisson", bool(expect["poisson"]), poisson)
            return StepResult("validate", summary, details, checks)
        a = self.scenario.algebroid
        if not isinstance(a, AlmostLieAlgebroid):
            details = {"kind": "anchored-bundle"}
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
        x = self.point(step)
        sub = kernel_at(a, x)
        checks: list[Check] = []
        if "expect" in step:
            _check(checks, "kernel-at", _expect_subspace(step["expect"], sub.n), sub)
        details = {
            "point": [str(c) for c in x],
            "dim": sub.dim,
            "basis": _basis_rows(sub),
        }
        return StepResult("kernel-at", f"kernel at point: {_render_value(sub)}", details, checks)

    def step_isotropy(self, step) -> StepResult:
        a = self.bracket_source(step)
        x = self.point(step)
        iso = isotropy_algebra_at(a, self.kernel_gens(a), x)
        abelian = all(
            all(c == 0 for c in coeffs) for coeffs in iso.structure.values()
        )
        checks: list[Check] = []
        expect = step.get("expect", {})
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
        return StepResult("isotropy", summary, details, checks)

    def step_nash_limit(self, step) -> StepResult:
        a = self.anchor_source(step)
        curve = self.curve(step)
        limit = limit_subspace(kernel_curve(a, curve))
        pv = limit.pluecker()
        checks: list[Check] = []
        expect = step.get("expect", {})
        if "pluecker" in expect:
            _check(
                checks,
                "pluecker",
                PlueckerVector(pv.n, pv.k, [int(c) for c in expect["pluecker"]]),
                pv,
            )
        if "basis" in expect:
            _check(checks, "basis", _expect_subspace(expect["basis"], limit.n), limit)
        details = {
            "dim": limit.dim,
            "pluecker": list(pv.coords),
            "basis": _basis_rows(limit),
        }
        return StepResult("nash-limit", f"limit: {_render_value(limit)}", details, checks)

    def step_nash_fiber(self, step) -> StepResult:
        a = self.anchor_source(step)
        x = self.point(step)
        if "curves" in step:
            curves = [self.curve({"op": step["op"], "curve": c}) for c in step["curves"]]
        else:
            curves = default_arcs(x, self.seed)
        sample = nash_fiber_sample(a, x, curves)
        checks: list[Check] = []
        expect = step.get("expect", {})
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
        return StepResult("nash-fiber", summary, details, checks)

    def step_pullback_chart(self, step) -> StepResult:
        a = self.anchor_source(step)
        chart = self.chart(step)
        bundle = a.bundle if isinstance(a, AlmostLieAlgebroid) else a
        n = bundle.fiber_rank
        pullbacks = pullback_anchor(bundle, chart)
        checks: list[Check] = []
        expect = step.get("expect", {})
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
        return StepResult("pullback-chart", summary, details, checks)

    def step_relations(self, step) -> StepResult:
        a = self.anchor_source(step)
        chart = self.chart(step)
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
        a = self.anchor_source(step)
        chart = self.chart(step)
        checks: list[Check] = []
        expect = step.get("expect", {})
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
            return StepResult(
                "nash-chart-report", "chart does not resolve", details, checks
            )
        frame = tautological_frame(nca, seed=self.seed)
        ideal_ok, ideal_report = check_ideal(nca, frame, seed=self.seed)
        debord_ok, cert = check_debord_on_chart(nca, frame)
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
        summary = (
            f"chart resolves; frame rank {cert['frame_rank']} + quotient rank "
            f"{cert['quotient_rank']} = {cert['ambient_rank']}; "
            f"ideal {'ok' if ideal_ok else 'FAILED'}, "
            f"debord {'ok' if debord_ok else 'FAILED'}"
        )
        return StepResult("nash-chart-report", summary, details, checks)

    def step_poisson_pullback(self, step) -> StepResult:
        if self.scenario.bivector is None:
            raise ScenarioError("poisson-pullback needs a bivector in the scenario")
        chart = self.chart(step)
        matrix, pole = pullback_bivector(chart, self.scenario.bivector)
        d = chart.dim
        checks: list[Check] = []
        expect = step.get("expect", {})
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
        return StepResult("poisson-pullback", summary, details, checks)


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
        except (ValueError, ArithmeticError, RuntimeError) as exc:
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
