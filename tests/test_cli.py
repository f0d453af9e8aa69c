"""End-to-end checks of the command-line front end."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import nashfol
import nashfol.linalg as linalg
from nashfol.cli import main
from nashfol.poly import MultiPoly
from nashfol.scenario import corpus_names


def corpus_path(name: str) -> str:
    return str(resources.files("nashfol") / "scenarios" / f"{name}.json")


@pytest.fixture()
def so3_pi_file(tmp_path):
    doc = {
        "vars": ["x", "y", "z"],
        "pi": {"0,1": "-z", "0,2": "y", "1,2": "-x"},
    }
    path = tmp_path / "so3_pi.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_rank_output(so3_pi_file, capsys):
    assert main(["rank", "--input", so3_pi_file]) == 0
    assert capsys.readouterr().out == "generic rank: 2\n"


def test_kernel_at_duval2(capsys):
    assert main(["kernel-at", "--input", corpus_path("duval2"), "--point", "1,2,1"]) == 0
    assert capsys.readouterr().out == "kernel basis: [(2, 1, -1)] (dim 1)\n"


def test_validate_text_and_json(so3_pi_file, capsys):
    assert main(["validate", "--input", so3_pi_file]) == 0
    assert "Poisson" in capsys.readouterr().out
    assert main(["validate", "--input", so3_pi_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "bivector", "poisson": True}


def test_isotropy_command(so3_pi_file, capsys):
    assert main(["isotropy", "--input", so3_pi_file, "--point", "0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "dim 3" in out and "non-abelian" in out


def test_nash_limit_with_curve_file(so3_pi_file, tmp_path, capsys):
    curve = tmp_path / "ray.json"
    curve.write_text(
        json.dumps({"target": ["0", "0", "0"], "components": ["t", "2*t", "3*t"]})
    )
    assert main(["nash-limit", "--input", so3_pi_file, "--curve", str(curve)]) == 0
    out = capsys.readouterr().out
    assert "basis [(1, 2, 3)]" in out


def test_nash_fiber_seed_in_header_and_determinism(so3_pi_file, capsys):
    args = ["nash-fiber", "--input", so3_pi_file, "--point", "0,0,0", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert first.startswith("seed: 9\n")
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert main(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 9
    assert doc["limits"]


def test_chart_commands_accept_scenario_chart_names(capsys):
    path = corpus_path("so3")
    assert main(["pullback-chart", "--input", path, "--chart", "x-chart"]) == 0
    out = capsys.readouterr().out
    assert "e_0: (0, z, -y)  [polynomial]" in out
    assert main(["nash-chart-report", "--input", path, "--chart", "x-chart"]) == 0
    out = capsys.readouterr().out
    assert "frame columns: [(1, -y, z)]" in out
    assert "ranks: frame 1 + quotient 2 = ambient 3" in out
    assert main(["poisson-pullback", "--input", path, "--chart", "x-chart"]) == 0
    out = capsys.readouterr().out
    assert "pullback pole: x" in out
    assert "pi[1,2] = (-y^2 - z^2 - 1) / (x)" in out


def test_chart_command_with_chart_file(so3_pi_file, tmp_path, capsys):
    chart = tmp_path / "chart.json"
    chart.write_text(
        json.dumps(
            {"chart_vars": ["x", "y", "z"], "phi": ["x", "x*y", "x*z"],
             "exceptional": "x"}
        )
    )
    assert main(["poisson-pullback", "--input", so3_pi_file, "--chart", str(chart)]) == 0
    assert "pullback pole: x" in capsys.readouterr().out


@pytest.mark.parametrize("name", corpus_names())
def test_run_scenario_corpus(name, capsys):
    assert main(["run-scenario", "--input", corpus_path(name)]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("expectations)\n")
    assert "FAIL" not in captured.out
    assert captured.err.startswith("# elapsed:")
    assert "elapsed" not in captured.out


def test_run_scenario_failure_exit_code(tmp_path, capsys):
    doc = json.loads(open(corpus_path("duval2")).read())
    doc["steps"] = [{"op": "rank", "expect": 7}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["run-scenario", "--input", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_run_scenario_json_deterministic(capsys):
    assert main(["run-scenario", "--input", corpus_path("gl2"), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["run-scenario", "--input", corpus_path("gl2"), "--json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert doc["passed"] is True


def test_usage_errors_exit_2(so3_pi_file, capsys):
    assert main(["kernel-at", "--input", so3_pi_file]) == 2
    assert "requires --point" in capsys.readouterr().err
    assert main(["rank", "--input", "/nonexistent.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["kernel-at", "--input", so3_pi_file, "--point", "1,2"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        ("kernel-at", "point"),
        ("isotropy", "point"),
        ("nash-fiber", "point"),
        ("nash-limit", "curve"),
        ("pullback-chart", "chart"),
        ("nash-chart-report", "chart"),
        ("poisson-pullback", "chart"),
    ],
)
def test_missing_required_flag_exits_2(command, flag, capsys):
    assert main([command, "--input", corpus_path("sl2")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command} requires --{flag}\n"


def test_non_document_input_rejected(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"vars": ["x"]}))
    assert main(["rank", "--input", str(path)]) == 2
    assert "neither" in capsys.readouterr().err


def test_console_script_installed():
    """Run the ``nashfol`` console script declared in ``pyproject.toml``.

    The child process does what pip's generated wrapper does, so the
    declared target is checked with the real ``sys.argv`` and exit code
    without the package being installed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["nashfol"]
    module, attr = entry.split(":")
    wrapper = (
        "import importlib, sys\n"
        "sys.argv[0] = 'nashfol'\n"
        f"sys.exit(getattr(importlib.import_module({module!r}), {attr!r})())\n"
    )
    src = str(Path(nashfol.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "run-scenario", "--input", corpus_path("sl2")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.rstrip().endswith("expectations)")
    assert proc.stderr.startswith("# elapsed:")


# Both tests make kernel_basis see a nonzero residual, so its invariant
# "M * v = 0" fails on valid input, as it would after an engine bug.
_ISOTROPY_ARGS = ["isotropy", "--point", "0,0", "--input"]


def test_internal_invariant_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(
        linalg, "poly_mat_vec", lambda m, v: [MultiPoly.constant(v[0].vars, 1)]
    )
    assert main(_ISOTROPY_ARGS + [corpus_path("sl2")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kernel vector fails M*v = 0\n"


def test_internal_invariant_fires_under_optimize():
    child = (
        "import sys\n"
        "import nashfol.linalg as linalg\n"
        "from nashfol.cli import main\n"
        "from nashfol.poly import MultiPoly\n"
        "if sys.flags.optimize != 1:\n"
        "    sys.exit('child is not running under -O')\n"
        "linalg.poly_mat_vec = lambda m, v: [MultiPoly.constant(v[0].vars, 1)]\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(nashfol.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child, *_ISOTROPY_ARGS, corpus_path("sl2")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: kernel vector fails M*v = 0\n"
