"""Scenario runner behavior plus the shipped corpus as golden inputs.

The corpus files carry their own frozen expectations, so "every shipped
scenario passes under the runner" is itself the regression suite for the
whole engine surface.  A separate consistency test pins the embedded
algebroid and bivector documents to the model builders so the two cannot
drift apart silently.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nashfol
import nashfol.charts as charts_module
from nashfol.scenario import (
    OPS,
    EngineError,
    ScenarioError,
    load_scenario,
    render_report_json,
    render_report_text,
    report_to_doc,
    run_scenario,
    run_single_step,
)
from encoders import algebroid_to_doc, bivector_to_doc
from models import (
    corpus_names,
    linear_poisson_so3,
    load_corpus_scenario,
    matrix_action_algebroid,
    rotation_action_algebroid,
    special_linear_2_algebroid,
    sphere_generators_algebroid,
    surface_bivector,
    vanishing_order_bundle,
)

SO3_DOC = {
    "name": "inline-so3",
    "algebroid": algebroid_to_doc(sphere_generators_algebroid()),
    "steps": [{"op": "rank", "expect": 2}],
}


def test_corpus_names():
    assert corpus_names() == [
        "duval2",
        "duval3",
        "duval4",
        "f2",
        "gl2",
        "gl3",
        "sl2",
        "so3",
        "su2_so3",
    ]


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_scenario_passes(name):
    report = run_scenario(load_corpus_scenario(name), seed=0)
    failed = [
        (step.op, check.label, check.expected, check.actual)
        for step in report.steps
        for check in step.checks
        if not check.passed
    ]
    assert failed == []
    passed, total = report.check_counts
    assert passed == total > 0


def _spy_on_pullbacks(monkeypatch) -> list:
    """Record the chart of every charts.pullback_vector_field call."""
    seen = []
    original = charts_module.pullback_vector_field

    def spy(chart, field):
        seen.append(chart)
        return original(chart, field)

    monkeypatch.setattr(charts_module, "pullback_vector_field", spy)
    return seen


@pytest.mark.parametrize(
    "name, calls", [("duval2", 0), ("gl2", 4), ("gl3", 9), ("sl2", 3), ("so3", 3)]
)
def test_each_chart_is_pulled_back_once_per_run(name, calls, monkeypatch):
    """The pullback-chart, relations and nash-chart-report steps on one named
    chart share one pullback: one field per anchor column (48 calls per
    corpus pass when each step pulled the anchor back itself)."""
    seen = _spy_on_pullbacks(monkeypatch)
    assert run_scenario(load_corpus_scenario(name), seed=0).passed
    assert len(seen) == calls


def test_each_inline_chart_is_its_own_pullback(monkeypatch):
    seen = _spy_on_pullbacks(monkeypatch)
    doc = json.loads((Path(nashfol.__file__).parent / "scenarios" / "so3.json").read_text())
    steps = [dict(step, chart=doc["charts"]["x-chart"]) for step in doc["steps"]
             if step["op"] in ("pullback-chart", "relations")]
    assert run_scenario(load_scenario(dict(doc, steps=steps)), seed=0).passed
    assert len(seen) == 2 * 3


def test_unresolved_chart_fails_every_step_that_needs_its_anchor():
    doc = json.loads((Path(nashfol.__file__).parent / "scenarios" / "sl2.json").read_text())
    fold = {"chart_vars": ["x", "y"], "phi": ["x^2", "y"]}
    steps = [
        {"op": "pullback-chart", "chart": "fold", "expect": {"polynomial": [True, True, False]}},
        {"op": "nash-chart-report", "chart": "fold", "expect": {"resolved": False}},
        {"op": "relations", "chart": "fold"},
    ]
    sc = load_scenario(dict(doc, charts={"fold": fold}, steps=steps[:2]))
    report = run_scenario(sc)
    assert report.passed
    assert report.steps[0].details["pullbacks"][2]["denominator"] == "x"
    assert report.steps[1].details["failures"] == [{"index": 2, "denominator": "x"}]
    sc.steps = steps
    with pytest.raises(EngineError) as err:
        run_scenario(sc)
    assert str(err.value) == (
        "step 2 ('relations') failed: "
        "chart does not resolve the foliation: e_2 has denominator x"
    )


def test_corpus_models_agree():
    builders = {
        "sl2": ("algebroid", algebroid_to_doc(special_linear_2_algebroid())),
        "so3": ("algebroid", algebroid_to_doc(sphere_generators_algebroid())),
        "gl2": ("algebroid", algebroid_to_doc(matrix_action_algebroid(2))),
        "gl3": ("algebroid", algebroid_to_doc(matrix_action_algebroid(3))),
        "f2": ("algebroid", algebroid_to_doc(vanishing_order_bundle(2, 2))),
        "duval2": ("bivector", bivector_to_doc(surface_bivector(2))),
        "duval3": ("bivector", bivector_to_doc(surface_bivector(3))),
        "duval4": ("bivector", bivector_to_doc(surface_bivector(4))),
        "su2_so3": ("algebroid", algebroid_to_doc(rotation_action_algebroid())),
    }
    from importlib import resources

    for name, (key, expected) in builders.items():
        doc = json.loads(
            (resources.files("nashfol") / "scenarios" / f"{name}.json").read_text()
        )
        assert doc[key] == expected, name
    doc = json.loads(
        (resources.files("nashfol") / "scenarios" / "so3.json").read_text()
    )
    assert doc["bivector"] == bivector_to_doc(linear_poisson_so3())


def test_load_scenario_errors():
    with pytest.raises(ScenarioError):
        load_scenario({"steps": []})
    with pytest.raises(ScenarioError):
        load_scenario({"name": "x", "steps": []})
    with pytest.raises(ScenarioError):
        load_scenario({"name": "x", "bivector": {"vars": ["x", "y"], "pi": {}},
                       "kernel_gens": [], "steps": []})


def test_unknown_step_op():
    sc = load_scenario(dict(SO3_DOC, steps=[{"op": "frobnicate"}]))
    with pytest.raises(ScenarioError, match="frobnicate"):
        run_scenario(sc)


def test_unknown_point_name():
    sc = load_scenario(dict(SO3_DOC, steps=[{"op": "kernel-at", "point": "nowhere"}]))
    with pytest.raises(ScenarioError, match="nowhere"):
        run_scenario(sc)


def test_engine_error_carries_step_context():
    # kernel_at at a point of the wrong dimension is an engine-level failure,
    # not a scenario-format one; the wrapper should say which step blew up.
    sc = load_scenario(
        dict(SO3_DOC, steps=[{"op": "kernel-at", "point": ["1", "2"]}])
    )
    with pytest.raises(EngineError, match="kernel-at"):
        run_scenario(sc)


def test_failed_expectation_is_reported_not_raised():
    sc = load_scenario(dict(SO3_DOC, steps=[{"op": "rank", "expect": 3}]))
    report = run_scenario(sc)
    assert not report.passed
    assert report.check_counts == (0, 1)
    text = render_report_text(report)
    assert "FAIL" in text and "expected 3" in text and "actual   2" in text


def test_report_renderings_are_deterministic():
    sc = load_corpus_scenario("so3")
    first = run_scenario(sc, seed=5)
    second = run_scenario(sc, seed=5)
    assert render_report_text(first) == render_report_text(second)
    assert render_report_json(first) == render_report_json(second)
    doc = json.loads(render_report_json(first))
    assert doc["scenario"] == "so3-sphere-generators"
    assert doc["seed"] == 5
    assert "elapsed" not in json.dumps(doc)


def test_corpus_reports_identical_under_optimize():
    """Stripping asserts (python -O) must not change a single report byte."""
    child = (
        "import json, sys\n"
        "from models import corpus_names, load_corpus_scenario\n"
        "from nashfol.scenario import render_report_json, render_report_text, run_scenario\n"
        "reports = {}\n"
        "for name in corpus_names():\n"
        "    report = run_scenario(load_corpus_scenario(name), seed=0)\n"
        "    reports[name] = [render_report_text(report), render_report_json(report)]\n"
        "json.dump({'optimize': sys.flags.optimize, 'reports': reports}, sys.stdout)\n"
    )
    src = str(Path(nashfol.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, tests, inherited])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert sorted(out["reports"]) == corpus_names()
    for name in corpus_names():
        report = run_scenario(load_corpus_scenario(name), seed=0)
        assert out["reports"][name] == [render_report_text(report), render_report_json(report)]


def test_inline_chart_reports_like_named_chart():
    path = Path(nashfol.__file__).parent / "scenarios" / "so3.json"
    doc = json.loads(path.read_text())
    chart_steps = [step for step in doc["steps"] if step.get("chart") == "x-chart"]
    inline_steps = [dict(step, chart=doc["charts"]["x-chart"]) for step in chart_steps]
    named = run_scenario(load_scenario(dict(doc, steps=chart_steps)), seed=2)
    inline = run_scenario(load_scenario(dict(doc, charts={}, steps=inline_steps)), seed=2)
    assert [step.op for step in named.steps] == [
        "pullback-chart", "relations", "nash-chart-report", "poisson-pullback"
    ]
    assert named.passed
    assert render_report_text(inline) == render_report_text(named)
    assert render_report_json(inline) == render_report_json(named)


def test_report_doc_shape():
    report = run_scenario(load_scenario(SO3_DOC), seed=1)
    doc = report_to_doc(report)
    assert doc["passed"] is True
    assert doc["steps"][0]["op"] == "rank"
    assert doc["steps"][0]["checks"][0]["label"] == "rank"


def test_rank_0_bundle_has_a_chart_report():
    """A bundle with no sections pulls back to a chart with an empty anchor,
    whose kernel is empty: no relations, an empty frame and ranks 0."""
    doc = {
        "name": "rank-0",
        "algebroid": {"vars": ["x", "y"], "rank": 0, "anchor": [[], []], "brackets": {}},
        "charts": {"c": {"chart_vars": ["u", "v"], "phi": ["u", "u*v"], "exceptional": "u"}},
        "steps": [
            {"op": "rank", "expect": 0},
            {"op": "relations", "chart": "c", "expect": []},
            {"op": "pullback-chart", "chart": "c", "expect": {"pullbacks": []}},
            {
                "op": "nash-chart-report",
                "chart": "c",
                "expect": {
                    "resolved": True,
                    "frame": [],
                    "ideal": True,
                    "debord": True,
                    "frame_rank": 0,
                    "quotient_rank": 0,
                },
            },
        ],
    }
    report = run_scenario(load_scenario(doc))
    assert report.passed
    assert report.check_counts == (9, 9)


def test_run_single_step_matches_scenario_run():
    sc = load_scenario(SO3_DOC)
    result = run_single_step(sc, {"op": "rank"}, seed=0)
    assert result.summary == "generic rank: 2"
    assert result.details == {"rank": 2}


def test_no_product_of_term_dicts_has_an_empty_factor(monkeypatch):
    """The gl3 action is sparse (9 nonzero anchor entries of 27), yet the one
    term-pair loop, behind every product, `dot`, `subst` and division step,
    is never entered for a product that is zero at once."""
    import nashfol.poly as poly_module

    original, empty, runs = poly_module._add_product, [], []

    def spy(acc, left, right):
        runs.append(1)
        if not left or not right:
            empty.append((left, right))
        return original(acc, left, right)

    monkeypatch.setattr(poly_module, "_add_product", spy)
    scenario = load_corpus_scenario("gl3")
    assert run_scenario(scenario, seed=0).passed
    run_single_step(scenario, {"op": "nash-fiber", "point": "origin"}, seed=0)
    assert runs and empty == []


def test_scenario_without_expectations_passes():
    sc = load_scenario(dict(SO3_DOC, steps=[{"op": "rank"}, {"op": "singular-locus"}]))
    report = run_scenario(sc)
    assert report.passed
    assert report.check_counts == (0, 0)


def test_expectation_the_branch_cannot_compute_fails():
    # validate computes no morphism or Jacobi verdict for a bundle without
    # brackets, and a chart that does not resolve has no frame to report
    bundle = {"vars": ["x", "y"], "rank": 2, "anchor": [["x", "0"], ["0", "y"]]}
    validate = {"op": "validate", "expect": {"lie": False, "anchor_morphism": False}}
    fold = {"chart_vars": ["x", "y", "z"], "phi": ["x^2", "y", "z"]}
    chart_report = {
        "op": "nash-chart-report",
        "chart": fold,
        "expect": {"resolved": False, "ideal": True, "frame_rank": 1},
    }
    reports = [
        run_scenario(load_scenario({"name": "bundle", "algebroid": bundle, "steps": [validate]})),
        run_scenario(load_scenario(dict(SO3_DOC, steps=[chart_report]))),
    ]
    assert [[(c.label, c.passed, c.actual) for c in r.steps[0].checks] for r in reports] == [
        [("anchor_morphism", False, "not computed"), ("lie", False, "not computed")],
        [
            ("resolved", True, "false"),
            ("ideal", False, "not computed"),
            ("frame_rank", False, "not computed"),
        ],
    ]
    assert not any(r.passed for r in reports)


def test_subspace_expectations_compare_canonically():
    # Any spanning set is accepted: scaled rows and summed rows name the
    # same subspace, so none of these should fail.
    doc = dict(
        SO3_DOC,
        steps=[
            {"op": "kernel-at", "point": ["2", "1", "2"], "expect": [["2", "-1", "2"]]},
            {"op": "kernel-at", "point": ["2", "1", "2"], "expect": [["-2", "1", "-2"]]},
            {"op": "kernel-at", "point": ["2", "1", "2"], "expect": [["1", "-1/2", "1"]]},
        ],
    )
    report = run_scenario(load_scenario(doc))
    assert report.passed


def _readme_step_table() -> dict[str, list[str]]:
    """README's step-op table: op -> its row's step-key and ``expect`` cells."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| op | step keys | `expect` |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        op, keys, expect = (cell.strip() for cell in line.strip("|").split("|"))
        assert op.strip("`") not in rows, f"two rows for {op}"
        rows[op.strip("`")] = [keys, expect]
    return rows


def test_readme_library_example_runs(capsys):
    """README's Library block runs as written and prints the limit it names."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "Subspace(4, dim=2)\n"


def test_readme_step_table_matches_the_op_table():
    """Every op has one row, naming the step keys the op reads and, for an
    op that checks named keys, those keys in check order."""
    rows = _readme_step_table()
    assert list(rows) == list(OPS)
    for name, op in OPS.items():
        keys, expect = (re.findall(r"`([^`]+)`", cell) for cell in rows[name])
        assert set(keys) == {op.ref, *op.keys} - {None}, name
        if isinstance(op.expect, dict):
            assert expect == list(op.expect), name
