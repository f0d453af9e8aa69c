"""The benchmark's workloads: inputs made from a seed, one CLI-equivalent call
per item, and output checks whose references do not come from the code
under test.

Every item starts from in-memory JSON documents and rebuilds its engine
objects (scenario, algebroid, charts, curves) inside the timed call, the way
each ``nashfol`` process does, so no engine object outlives an item and a
cache inside the package cannot carry work from one pass to the next.

Workloads:

- ``corpus``: every shipped scenario through load_scenario -> run_scenario
  -> render_report_text and render_report_json, the CLI's run-scenario path.
  It is the regression suite users run; the algebroid (Lie validation,
  isotropy) and charts (chart report, ideal check) layers do most of its
  work and the Nash-limit code little.
- ``fiber-singular``: default-budget nash-fiber at the ``origin`` point of
  every scenario through run_single_step, like ``nashfol nash-fiber``.  All
  arcs have positive t-valuation, so the Pluecker-minor limit
  (nash -> linalg.minors/det -> grassmann) does almost all the work and
  the algebroid and charts layers almost none.

Each workload is the other's control: a change to the chart and algebroid
layers should move ``corpus`` and leave ``fiber-singular`` unchanged, and a
change to the Nash limit the reverse.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = SRC / "nashfol" / "scenarios"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

NAMES = ("corpus", "fiber-singular")


class SourceMissing(RuntimeError):
    """The checkout has no nashfol sources to benchmark."""


def import_engine() -> None:
    """Put the checkout's ``src`` first on sys.path and import nashfol from it."""
    if not (SRC / "nashfol" / "__init__.py").is_file() or not SCENARIO_DIR.is_dir():
        raise SourceMissing(f"no nashfol package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nashfol

    if Path(nashfol.__file__).resolve().parent != SRC / "nashfol":
        raise SourceMissing(f"nashfol was imported from {nashfol.__file__}, not {SRC}")


@dataclass(frozen=True)
class Item:
    """One CLI-equivalent call: a scenario document plus, for the fiber
    workloads, the nash-fiber step that runs on it."""

    label: str
    scenario: str
    doc: dict
    step: dict | None = None


def read_documents() -> dict[str, dict]:
    """The shipped scenario documents by name, each parsed once by the
    engine the way a CLI call parses its input before computing."""
    from nashfol.scenario import load_scenario

    docs = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        with path.open(encoding="utf-8") as handle:
            docs[path.stem] = json.load(handle)
        load_scenario(docs[path.stem])
    return docs


def load(workload: str) -> list[Item]:
    """Read and parse the documents and build the workload's items.  The
    seed is the other input: every item runs with it as its CLI seed."""
    docs = read_documents()
    if workload == "corpus":
        return [Item(name, name, doc) for name, doc in docs.items()]
    if workload == "fiber-singular":
        step = {"op": "nash-fiber", "point": "origin"}
        return [Item(f"{name}@origin", name, doc, step) for name, doc in docs.items()]
    raise ValueError(f"unknown workload {workload!r}")


def anchor_bundle(doc: dict):
    """The anchored bundle whose kernels a scenario's fiber steps limit:
    its algebroid's, else the bivector's sharp map."""
    from nashfol.algebroid import AlmostLieAlgebroid
    from nashfol.poisson import pi_sharp
    from nashfol.scenario import load_scenario

    sc = load_scenario(doc)
    if isinstance(sc.algebroid, AlmostLieAlgebroid):
        return sc.algebroid.bundle
    if sc.algebroid is not None:
        return sc.algebroid
    return pi_sharp(sc.bivector)


# ---------------------------------------------------------------------------
# one item = one CLI call
# ---------------------------------------------------------------------------


def run_item(workload: str, item: Item, seed: int) -> str:
    """Run one item from its documents and return the bytes a user would
    read: both report renderings for corpus, nash-fiber --json otherwise."""
    from nashfol.scenario import (
        load_scenario,
        render_report_json,
        render_report_text,
        run_scenario,
        run_single_step,
    )

    scenario = load_scenario(item.doc)
    if workload == "corpus":
        report = run_scenario(scenario, seed=seed)
        return render_report_text(report) + render_report_json(report)
    result = run_single_step(scenario, item.step, seed=seed)
    doc = dict(result.details)
    doc["seed"] = seed
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_key(workload: str, item: Item, output: str) -> str:
    """What the goldens pin: the whole report bytes for corpus, the sorted
    Pluecker list for fiber-singular."""
    if workload == "corpus":
        return digest(output)
    limits = json.loads(output)["limits"]
    return digest(json.dumps([rec["pluecker"] for rec in limits]))


def read_goldens() -> dict:
    with GOLDENS.open(encoding="utf-8") as handle:
        return json.load(handle)


def check_item(workload: str, item: Item, output: str, seed: int, goldens: dict) -> str | None:
    """None when the output is right, else the reason it is not."""
    if workload == "corpus":
        problem = _check_corpus(output)
    else:
        problem = _check_singular(item, output)
    if problem is None:
        expected = goldens.get(workload, {}).get(str(seed), {}).get(item.label)
        if expected is not None and expected != golden_key(workload, item, output):
            problem = f"output differs from the golden captured at seed {seed}"
    return problem


def _check_corpus(output: str) -> str | None:
    split = output.index("\n{") + 1
    text, doc = output[:split], json.loads(output[split:])
    failed = [
        f"step {idx} {check['label']}"
        for idx, step in enumerate(doc["steps"], start=1)
        for check in step["checks"]
        if not check["passed"]
    ]
    if failed or not doc["passed"]:
        return "expectations failed: " + ", ".join(failed)
    if not text.splitlines()[-1].startswith("result: PASS"):
        return "text report does not end in a PASS verdict"
    return None


def _limits(item: Item, output: str, arcs: int):
    """The point, the anchor bundle and each reported limit rebuilt as a
    Subspace from its basis; raises ValueError on a malformed record."""
    from fractions import Fraction

    from nashfol.grassmann import Subspace

    doc = json.loads(output)
    if doc["arcs"]["ok"] + doc["arcs"]["singular"] != arcs:
        raise ValueError(f"{doc['arcs']} does not account for {arcs} arcs")
    bundle = anchor_bundle(item.doc)
    limits = []
    for rec in doc["limits"]:
        sub = Subspace(bundle.fiber_rank, [[Fraction(c) for c in row] for row in rec["basis"]])
        if sub.dim != rec["dim"] or list(sub.pluecker().coords) != rec["pluecker"]:
            raise ValueError(f"limit {rec['pluecker']} does not match its basis")
        limits.append(sub)
    return [Fraction(c) for c in doc["point"]], bundle, limits


def _check_singular(item: Item, output: str) -> str | None:
    from nashfol.algebroid import generic_kernel_sections
    from nashfol.nash import check_flag
    from nashfol.scenario import load_scenario

    gens = load_scenario(item.doc).kernel_gens
    d = len(json.loads(output)["point"])
    try:
        x, bundle, limits = _limits(item, output, arcs=2 * d + 16 + 8)
    except ValueError as exc:
        return str(exc)
    if not limits:
        return "no limits"
    if gens is None:
        gens = generic_kernel_sections(bundle)
    for sub in limits:
        if not check_flag(bundle, gens, sub, x):
            return f"limit {sub.pluecker()} breaks strong kernel <= limit <= kernel"
    return None
