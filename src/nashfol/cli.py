"""Command-line front end.

Exit codes: 0 success (or all expectations pass), 1 expectation failure,
2 input or usage error, or a failed internal invariant.  Output is
deterministic for fixed input and seed; elapsed time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .documents import (
    DocumentError,
    algebroid_from_doc,
    bivector_from_doc,
    chart_from_doc,
    curve_from_doc,
    load_json,
    parse_point,
    point_to_doc,
)
from .scenario import (
    EngineError,
    Scenario,
    ScenarioError,
    _base_vars,
    load_scenario,
    render_report_json,
    render_report_text,
    run_scenario,
    run_single_step,
)

_FLAG_HELP = {
    "point": "comma-separated rational coordinates",
    "curve": "curve JSON file (or a name from a scenario input)",
    "chart": "chart JSON file (or a name from a scenario input)",
}


def _uint(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashfol",
        description=(
            "Exact kernel limits, blow-up charts, and isotropy for polynomial "
            "foliations and almost Lie algebroids"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, requires=None, seeded=False):
        """One command; ``requires`` names the flag it cannot run without and
        ``seeded`` puts the seed in its output."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--seed", type=_uint, default=0, help="RNG seed (default 0)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if requires:
            p.add_argument(f"--{requires}", help=_FLAG_HELP[requires])
        p.set_defaults(requires=requires, seeded=seeded)
        return p

    add("validate", "check bracket axioms (or Poisson condition for a bivector)")
    add("rank", "generic anchor rank")
    add("singular-locus", "generators cutting out the singular locus")
    add("kernel-at", "anchor kernel at a point", requires="point")
    add("isotropy", "isotropy Lie algebra at a point", requires="point")
    add("nash-limit", "kernel limit along one arc", requires="curve")
    add("nash-fiber", "distinct kernel limits over a point", requires="point", seeded=True)
    add("pullback-chart", "pull anchor sections back through a chart", requires="chart")
    add(
        "nash-chart-report",
        "full chart report: pullbacks, frame, quotient",
        requires="chart",
        seeded=True,
    )
    add("poisson-pullback", "pull a bivector back through a chart", requires="chart")
    add("run-scenario", "run a scenario document and report pass/fail")
    return parser


def _load_input_scenario(args) -> Scenario:
    """Wrap whatever --input holds (algebroid, bivector, or scenario doc) in a
    Scenario so single commands share the step runner."""
    doc = load_json(args.input)
    if not isinstance(doc, dict):
        raise DocumentError("input document must be a JSON object")
    if "anchor" in doc or "pi" in doc:
        algebroid = algebroid_from_doc(doc) if "anchor" in doc else None
        bivector = bivector_from_doc(doc) if "pi" in doc else None
        scenario = Scenario(
            name="cli",
            algebroid=algebroid,
            bivector=bivector,
            kernel_gens=None,
            charts={},
            curves={},
            points={},
            steps=[],
        )
    elif "algebroid" in doc or "bivector" in doc:
        scenario = load_scenario({"name": doc.get("name", "cli"), **doc})
    else:
        raise DocumentError(
            "input is neither an algebroid/bivector document nor a scenario"
        )
    base_vars = _base_vars(scenario.algebroid, scenario.bivector)
    if getattr(args, "curve", None):
        if args.curve not in scenario.curves:
            scenario.curves[args.curve] = curve_from_doc(load_json(args.curve))
    if getattr(args, "chart", None):
        if args.chart not in scenario.charts:
            scenario.charts[args.chart] = chart_from_doc(load_json(args.chart), base_vars)
    return scenario


def _single_step(args, extra: dict | None = None) -> dict:
    step = {"op": args.command}
    if getattr(args, "point", None):
        step["point"] = point_to_doc(parse_point(args.point))
    if getattr(args, "curve", None):
        step["curve"] = args.curve
    if getattr(args, "chart", None):
        step["chart"] = args.chart
    if extra:
        step.update(extra)
    return step


def _require(args):
    if args.requires and not getattr(args, args.requires):
        raise DocumentError(f"{args.command} requires --{args.requires}")


def _emit_single(args, result) -> int:
    if args.json:
        doc = dict(result.details)
        if args.seeded:
            doc["seed"] = args.seed
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    if args.seeded:
        print(f"seed: {args.seed}")
    print(_render_single_text(args.command, result))
    return 0


def _rows_text(rows) -> str:
    return ", ".join("(" + ", ".join(str(c) for c in row) + ")" for row in rows)


def _render_single_text(command: str, result) -> str:
    d = result.details
    lines: list[str] = []
    if command == "kernel-at":
        return f"kernel basis: [{_rows_text(d['basis'])}] (dim {d['dim']})"
    if command == "singular-locus":
        return result.summary
    if command == "isotropy":
        flag = "abelian" if d["abelian"] else "non-abelian"
        return (
            f"isotropy: dim {d['dim']} ({flag}); kernel dim {d['kernel_dim']}, "
            f"strong kernel dim {d['strong_kernel_dim']}"
        )
    if command == "nash-limit":
        pl = ", ".join(str(c) for c in d["pluecker"])
        return f"limit: dim {d['dim']}, basis [{_rows_text(d['basis'])}], pluecker ({pl})"
    if command == "nash-fiber":
        lines.append(f"point: ({', '.join(d['point'])})")
        lines.append(
            f"arcs: {d['arcs']['ok']} ok, {d['arcs']['singular']} in singular locus"
        )
        lines.append(f"distinct limits: {len(d['limits'])}")
        for rec in d["limits"]:
            pl = ", ".join(str(c) for c in rec["pluecker"])
            lines.append(
                f"  dim {rec['dim']}  pluecker ({pl})  basis [{_rows_text(rec['basis'])}]"
            )
        return "\n".join(lines)
    if command == "pullback-chart":
        for idx, pb in enumerate(d["pullbacks"]):
            comps = ", ".join(pb["components"])
            tag = "polynomial" if pb["polynomial"] else f"denominator {pb['denominator']}"
            lines.append(f"e_{idx}: ({comps})  [{tag}]")
        return "\n".join(lines)
    if command == "nash-chart-report":
        if not d["resolved"]:
            lines.append("chart does not resolve the foliation:")
            for f in d["failures"]:
                lines.append(
                    f"  basis section {f['index']} pulls back with denominator {f['denominator']}"
                )
            return "\n".join(lines)
        lines.append("chart resolves the foliation")
        cols = ", ".join("(" + ", ".join(col) + ")" for col in d["frame"])
        lines.append(f"frame columns: [{cols}]")
        lines.append(f"ideal check: {'ok' if d['ideal'] else 'FAILED'} ({d['ideal_label']})")
        lines.append(f"debord check: {'ok' if d['debord'] else 'FAILED'}")
        r = d["ranks"]
        lines.append(
            f"ranks: frame {r['frame']} + quotient {r['quotient']} = ambient {r['ambient']}"
        )
        return "\n".join(lines)
    if command == "poisson-pullback":
        lines.append(result.summary)
        for key, value in sorted(d["entries"].items()):
            lines.append(f"  pi[{key}] = {value}")
        return "\n".join(lines)
    return result.summary


def _cmd_run_scenario(args) -> int:
    doc = load_json(args.input)
    scenario = load_scenario(doc)
    report = run_scenario(scenario, seed=args.seed)
    if args.json:
        sys.stdout.write(render_report_json(report))
    else:
        sys.stdout.write(render_report_text(report))
    print(f"# elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    return 0 if report.passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run-scenario":
            return _cmd_run_scenario(args)
        _require(args)
        scenario = _load_input_scenario(args)
        step = _single_step(args)
        result = run_single_step(scenario, step, seed=args.seed)
        return _emit_single(args, result)
    except (DocumentError, ScenarioError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
