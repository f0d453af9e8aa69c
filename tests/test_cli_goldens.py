"""Every command's bytes on the shipped scenarios, pinned by digest.

Each run is one in-process ``nashfol`` call: every command on every point,
curve and chart the 9 shipped scenarios declare, plus ``run-scenario``, in
text and ``--json``, at seed 0; ``nash-fiber``, ``nash-chart-report`` and
``run-scenario`` also at seed 3.  gl3 ``nash-fiber`` is left out: the
benchmark's fiber-singular goldens pin it.  A run is pinned by the SHA-256 of
its stdout, of its stderr without the ``# elapsed`` line, and its exit code.

Rewrite the goldens only on a commit whose outputs are trusted:

    PYTHONPATH=src python3 tests/test_cli_goldens.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from nashfol.cli import main
from nashfol.scenario import OPS

GOLDENS = Path(__file__).resolve().parent / "cli_goldens.json"
SEEDED = ("nash-fiber", "nash-chart-report", "run-scenario")
SKIPPED = {("gl3", "nash-fiber")}
TABLES = {"point": "points", "curve": "curves", "chart": "charts"}


def _scenarios() -> dict[str, Path]:
    root = resources.files("nashfol") / "scenarios"
    return {path.stem: Path(str(path)) for path in sorted(Path(str(root)).glob("*.json"))}


def runs() -> dict[str, list[str]]:
    """Label -> argv of every pinned run; the label names the input by its
    scenario so it does not depend on where the package lives."""
    out = {}
    for name, path in _scenarios().items():
        doc = json.loads(path.read_text(encoding="utf-8"))
        commands = []
        for command, op in OPS.items():
            if (name, command) in SKIPPED:
                continue
            if op.ref is None:
                commands.append([command])
                continue
            # a point is given by its coordinates, a curve or chart by its name
            for key, value in doc.get(TABLES[op.ref], {}).items():
                arg = ",".join(value) if op.ref == "point" else key
                commands.append([command, f"--{op.ref}", arg])
        commands.append(["run-scenario"])
        for argv in commands:
            seeds = (0, 3) if argv[0] in SEEDED else (0,)
            for seed in seeds:
                for fmt in ([], ["--json"]):
                    tail = argv[1:] + ["--seed", str(seed)] + fmt
                    out[" ".join([name, argv[0]] + tail)] = [
                        argv[0], "--input", str(path), *tail
                    ]
    return out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def capture(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = "".join(
        line for line in stderr.getvalue().splitlines(keepends=True)
        if not line.startswith("# elapsed")
    )
    return {"exit": code, "stdout": _digest(stdout.getvalue()), "stderr": _digest(err)}


RUNS = runs()


@functools.cache
def goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def test_goldens_name_every_run():
    assert sorted(goldens()) == sorted(RUNS)


@pytest.mark.parametrize("label", list(RUNS))
def test_cli_bytes_match_golden(label):
    assert capture(RUNS[label]) == goldens()[label]


if __name__ == "__main__":
    pinned = {label: capture(argv) for label, argv in RUNS.items()}
    GOLDENS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(pinned)} runs pinned in {GOLDENS}", file=sys.stderr)
