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

from .documents import DocumentError, json_value, load_json
from .scenario import (
    OPS,
    Scenario,
    load_scenario,
    render_report_json,
    render_report_text,
    run_scenario,
    run_single_step,
)


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
    commands = {name: (op.help, op.ref) for name, op in OPS.items()}
    commands["run-scenario"] = ("run a scenario document and report pass/fail", None)
    for name, (help_text, ref) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--seed", type=_uint, default=0, help="RNG seed (default 0)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if ref == "point":
            p.add_argument("--point", help="comma-separated rational coordinates")
        elif ref:
            p.add_argument(f"--{ref}", help=f"{ref} JSON file (or a name from a scenario input)")
    return parser


def _load_input_scenario(args) -> Scenario:
    """Read whatever --input holds (algebroid, bivector, or scenario doc) as a
    Scenario so single commands share the step runner."""
    doc = json_value(dict, load_json(args.input), "input document")
    if "anchor" in doc or "pi" in doc:
        doc = {"algebroid" if "anchor" in doc else "bivector": doc}
    elif "algebroid" not in doc and "bivector" not in doc:
        raise DocumentError(
            "input is neither an algebroid/bivector document nor a scenario"
        )
    return load_scenario({"name": doc.get("name", "cli"), **doc})


def _single_step(args, scenario: Scenario) -> dict:
    """The step a single command runs; a --curve or --chart value that names
    no entry of the input scenario is read as a file and given inline."""
    step = {"op": args.command}
    key = OPS[args.command].ref
    if key == "point":
        step["point"] = args.point.split(",")
    elif key:
        ref = getattr(args, key)
        if ref not in {"curve": scenario.curves, "chart": scenario.charts}[key]:
            ref = load_json(ref)
            if not isinstance(ref, dict):  # not to be read as a name or left out
                raise DocumentError(f"{key} document must be an object")
        step[key] = ref
    return step


def _emit_single(args, result) -> int:
    if args.json:
        doc = dict(result.details)
        if result.seeded:
            doc["seed"] = args.seed
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    if result.seeded:
        print(f"seed: {args.seed}")
    print(result.text)
    return 0


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
        ref = OPS[args.command].ref
        if ref and not getattr(args, ref):
            raise DocumentError(f"{args.command} requires --{ref}")
        scenario = _load_input_scenario(args)
        result = run_single_step(scenario, _single_step(args, scenario), seed=args.seed)
        return _emit_single(args, result)
    # DocumentError and ScenarioError are ValueErrors, EngineError a RuntimeError
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
