"""End-to-end checks of the command-line front end."""

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import nashfol
import nashfol.charts as charts
import nashfol.linalg as linalg
from nashfol.cli import _build_parser, main
from nashfol.poly import MultiPoly, RatFunc
from nashfol.scenario import OPS
from models import corpus_names


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


def test_nash_limit_of_full_rank_anchor_is_zero_subspace(tmp_path, capsys):
    bundle = tmp_path / "full_rank.json"
    bundle.write_text(json.dumps({"vars": ["x"], "rank": 1, "anchor": [["x"]]}))
    curve = tmp_path / "ray.json"
    curve.write_text(json.dumps({"target": ["0"], "components": ["t"]}))
    limit_args = ["nash-limit", "--input", str(bundle), "--curve", str(curve)]
    assert main(limit_args) == 0
    assert capsys.readouterr().out == "limit: dim 0, basis [], pluecker (1)\n"
    assert main(limit_args + ["--json"]) == 0
    limit = json.loads(capsys.readouterr().out)
    assert main(["nash-fiber", "--input", str(bundle), "--point", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["limits"] == [limit]


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


@pytest.mark.parametrize("content", ['"x-chart"', "null", "[]"])
def test_chart_file_must_hold_an_object(content, tmp_path, capsys):
    chart = tmp_path / "chart.json"
    chart.write_text(content)
    args = ["pullback-chart", "--input", corpus_path("so3"), "--chart", str(chart)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: chart document must be an object\n"


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


@pytest.mark.parametrize("exponent, code", [(64, 0), (65, 2)])
def test_term_list_exponent_cap_exits_2(exponent, code, tmp_path, capsys):
    term = {"vars": ["x"], "terms": [{"coeff": "1", "exps": [exponent]}]}
    path = tmp_path / "power.json"
    path.write_text(json.dumps({"vars": ["x"], "rank": 1, "anchor": [[term]]}))
    assert main(["rank", "--input", str(path)]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out == "generic rank: 1\n"
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "exponent above 64" in captured.err


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
        ("relations", "chart"),
    ],
)
def test_missing_required_flag_exits_2(command, flag, capsys):
    assert main([command, "--input", corpus_path("sl2")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {command} requires --{flag}\n"


_SO3_FIBER_LIMITS = [
    (0, 0, 1), (0, 1, 0), (1, -5, 1), (1, 0, 0), (1, 4, -10), (1, 6, 4), (2, -6, -3),
    (2, -5, -1), (2, -4, 1), (2, 3, 1), (2, 3, 12), (2, 6, -1), (3, -3, -2), (3, -3, -1),
    (3, 1, 6), (3, 10, -3), (5, -3, 10), (5, 1, -2), (5, 15, 6), (6, -3, 5), (6, -2, -5),
    (6, 3, -8), (9, 1, -6), (9, 6, -1), (12, -8, -15),
]


# Exact single-command stdout on so3.json with its named curve and chart
# (the point is the origin).
_SO3_TEXT = [
    (["validate"], "algebroid: anchor morphism holds, Jacobi holds\n"),
    (["rank"], "generic rank: 2\n"),
    (["singular-locus"], "singular locus: x*y, x*z, x^2, y*z, y^2, z^2\n"),
    (
        ["kernel-at", "--point", "0,0,0"],
        "kernel basis: [(1, 0, 0), (0, 1, 0), (0, 0, 1)] (dim 3)\n",
    ),
    (
        ["isotropy", "--point", "0,0,0"],
        "isotropy: dim 3 (non-abelian); kernel dim 3, strong kernel dim 0\n",
    ),
    (
        ["nash-limit", "--curve", "skew-ray"],
        "limit: dim 1, basis [(1, -2, 3)], pluecker (1, -2, 3)\n",
    ),
    (
        ["nash-fiber", "--point", "0,0,0"],
        "seed: 0\npoint: (0, 0, 0)\narcs: 30 ok, 0 in singular locus\n"
        "distinct limits: 25\n"
        + "".join(
            f"  dim 1  pluecker ({', '.join(map(str, pl))})  "
            f"basis [({', '.join(map(str, pl))})]\n"
            for pl in _SO3_FIBER_LIMITS
        ),
    ),
    (
        ["pullback-chart", "--chart", "x-chart"],
        "e_0: (0, z, -y)  [polynomial]\n"
        "e_1: (x*z, -y*z, -z^2 - 1)  [polynomial]\n"
        "e_2: (x*y, -y^2 - 1, -y*z)  [polynomial]\n",
    ),
    (
        ["nash-chart-report", "--chart", "x-chart"],
        "seed: 0\nchart resolves the foliation\nframe columns: [(1, -y, z)]\n"
        "ideal check: ok (generic + sampled)\ndebord check: ok\n"
        "ranks: frame 1 + quotient 2 = ambient 3\n",
    ),
    (
        ["poisson-pullback", "--chart", "x-chart"],
        "pullback pole: x\n  pi[0,1] = -z\n  pi[0,2] = y\n"
        "  pi[1,2] = (-y^2 - z^2 - 1) / (x)\n",
    ),
]


@pytest.mark.parametrize("args, expected", _SO3_TEXT, ids=[args[0] for args, _ in _SO3_TEXT])
def test_single_command_text_on_so3(args, expected, capsys):
    assert main([args[0], "--input", corpus_path("so3"), *args[1:]]) == 0
    assert capsys.readouterr().out == expected


def test_commands_are_the_step_ops():
    (commands,) = [
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(commands) == set(OPS) | {"run-scenario"}


def test_relations_command_on_gl2(capsys):
    args = ["relations", "--input", corpus_path("gl2"), "--chart", "chart-1"]
    assert main(args) == 0
    assert capsys.readouterr().out == "relations: 2\n"
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "relations": [
            {"index": 2, "basis": [0, 1], "coefficients": ["y2", "0"], "polynomial": True},
            {"index": 3, "basis": [0, 1], "coefficients": ["0", "y2"], "polynomial": True},
        ]
    }


def test_singular_locus_over_the_minor_cap_exits_2(tmp_path, monkeypatch, capsys):
    # generic rank 6, so the locus asks for C(6, 6) * C(24, 6) = 134 596 minors
    names = [f"x{i}" for i in range(6)]
    anchor = [[name if j == i else "0" for j in range(24)] for i, name in enumerate(names)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"vars": names, "rank": 24, "anchor": anchor}))
    monkeypatch.setattr(linalg, "det", lambda m: pytest.fail("a minor was expanded"))
    assert main(["singular-locus", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: 134596 6x6 minors of a 6x24 matrix exceed {linalg.MAX_MINORS}\n"
    )


def _spy_on_det_from_minors(monkeypatch) -> list[int]:
    """Record the size of every determinant that `linalg.minors` takes."""
    sizes = []
    original = linalg.det

    def spy(m):
        if sys._getframe(1).f_code is linalg.minors.__code__:
            sizes.append(len(m))
        return original(m)

    monkeypatch.setattr(linalg, "det", spy)
    return sizes


def test_gl3_fiber_takes_every_minor_from_the_table(monkeypatch, capsys):
    sizes = _spy_on_det_from_minors(monkeypatch)
    assert main(["nash-fiber", "--input", corpus_path("gl3"), "--point", "0,0,0"]) == 0
    assert "distinct limits: 25\n" in capsys.readouterr().out
    assert sizes == []


def test_nash_limit_of_a_near_square_basis_takes_one_det_per_minor(
    tmp_path, monkeypatch, capsys
):
    # a rank-1 anchor with 24 columns has a 23x24 kernel basis, whose table
    # would hold about 2^24 sub-minors; the 24 maximal minors are 24 dets
    bundle = tmp_path / "rank1.json"
    row = [f"x^{j % 3 + 1}" for j in range(24)]
    bundle.write_text(json.dumps({"vars": ["x"], "rank": 24, "anchor": [row]}))
    curve = tmp_path / "ray.json"
    curve.write_text(json.dumps({"target": ["0"], "components": ["t"]}))
    sizes = _spy_on_det_from_minors(monkeypatch)
    assert main(["nash-limit", "--input", str(bundle), "--curve", str(curve)]) == 0
    assert sizes == [23] * 24
    # the limit is the hyperplane where the x-linear columns sum to zero
    rows = []
    for i in range(24):
        if i != 21:
            rows.append([1 if j == i else -1 if j == 21 and i % 3 == 0 else 0 for j in range(24)])
    coords = [(-1) ** (i // 3) if i % 3 == 2 else 0 for i in range(24)]
    basis = ", ".join("(" + ", ".join(map(str, r)) + ")" for r in rows)
    assert capsys.readouterr().out == (
        f"limit: dim 23, basis [{basis}], pluecker ({', '.join(map(str, coords))})\n"
    )


def test_chart_report_text_when_chart_does_not_resolve(tmp_path, capsys):
    chart = tmp_path / "fold.json"
    chart.write_text(json.dumps({"chart_vars": ["x", "y"], "phi": ["x^2", "y"]}))
    args = ["nash-chart-report", "--input", corpus_path("sl2"), "--chart", str(chart)]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        "seed: 0\nchart does not resolve the foliation:\n"
        "  basis section 2 pulls back with denominator x\n"
    )


def _chart_report_args(tmp_path, bundle, chart, seed):
    paths = []
    for name, doc in (("bundle", bundle), ("chart", chart)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return ["nash-chart-report", "--input", paths[0], "--chart", paths[1], "--seed", str(seed)]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize(
    "bundle, chart, frame, ideal, ranks",
    [
        # the kernel (-1, u, 0), (-1, 0, u) is parallel at u = 0, so the
        # frame is repaired: their difference divided by u replaces the second
        (
            {"vars": ["x", "y"], "rank": 3, "anchor": [["x^2", "x", "x"], ["x*y", "y", "y"]]},
            {"chart_vars": ["u", "v"], "phi": ["u", "u*v"]},
            [["-1", "u", "0"], ["0", "-1", "1"]],
            False,
            {"ambient": 3, "frame": 2, "quotient": 1},
        ),
        # an injective anchor has an empty frame
        (
            {"vars": ["x", "y"], "rank": 1, "anchor": [["x"], ["y"]]},
            {"chart_vars": ["x", "y"], "phi": ["x", "x*y"]},
            [],
            True,
            {"ambient": 1, "frame": 0, "quotient": 1},
        ),
    ],
    ids=["repaired", "empty"],
)
def test_chart_report_frames(bundle, chart, frame, ideal, ranks, seed, tmp_path, capsys):
    args = _chart_report_args(tmp_path, bundle, chart, seed)
    assert main(args) == 0
    rows = ", ".join("(" + ", ".join(col) + ")" for col in frame)
    assert capsys.readouterr().out == (
        f"seed: {seed}\nchart resolves the foliation\nframe columns: [{rows}]\n"
        f"ideal check: {'ok' if ideal else 'FAILED'} (generic + sampled)\n"
        f"debord check: ok\nranks: frame {ranks['frame']} + quotient {ranks['quotient']} "
        f"= ambient {ranks['ambient']}\n"
    )
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "debord": True,
        "frame": frame,
        "ideal": ideal,
        "ideal_label": "generic + sampled",
        "ranks": ranks,
        "resolved": True,
        "seed": seed,
    }


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_chart_report_exits_2_when_the_frame_repair_fails(seed, json_flag, tmp_path, capsys):
    bundle = {"vars": ["x1", "x2"], "rank": 2, "anchor": [["x1^2", "-x2"], ["0", "0"]]}
    chart = {"chart_vars": ["y1", "y2"], "phi": ["y1", "y1*y2"]}
    assert main(_chart_report_args(tmp_path, bundle, chart, seed) + json_flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: frame stays rank-deficient at (0, 0): either no polynomial frame "
        "exists on this chart, or the column-reduction heuristic failed to find one\n"
    )


def test_pullback_chart_prints_polynomial_components_reduced(tmp_path, capsys):
    """det J = v + 1 is not a monomial: a component flagged polynomial must
    print as its polynomial, not as (u*v + u) / (v + 1)."""
    bundle = {"vars": ["x", "y"], "rank": 2, "anchor": [["x", "y"], ["0", "x"]]}
    chart = {"chart_vars": ["u", "v"], "phi": ["u + u*v", "v"]}
    paths = [tmp_path / "bundle.json", tmp_path / "chart.json"]
    for path, doc in zip(paths, (bundle, chart)):
        path.write_text(json.dumps(doc))
    args = ["pullback-chart", "--input", str(paths[0]), "--chart", str(paths[1])]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        "e_0: (u, 0)  [polynomial]\n"
        "e_1: ((-u^2*v - u^2 + v) / (v + 1), u*v + u)  [denominator v + 1]\n"
    )
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "pullbacks": [
            {"components": ["u", "0"], "denominator": None, "polynomial": True},
            {
                "components": ["(-u^2*v - u^2 + v) / (v + 1)", "u*v + u"],
                "denominator": "v + 1",
                "polynomial": False,
            },
        ]
    }


def test_poisson_pullback_prints_polynomial_entries_reduced(tmp_path, capsys):
    """det J = v + 1 is not a monomial: the entry x * det(J) / det(J)^2 of
    pi = x d/dx ^ d/dy is the polynomial u and must print as u, not as
    (u*v^2 + 2*u*v + u) / (v^2 + 2*v + 1)."""
    bivector = {"vars": ["x", "y"], "pi": {"0,1": "x"}}
    chart = {"chart_vars": ["u", "v"], "phi": ["u + u*v", "v"]}
    paths = [tmp_path / "bivector.json", tmp_path / "chart.json"]
    for path, doc in zip(paths, (bivector, chart)):
        path.write_text(json.dumps(doc))
    args = ["poisson-pullback", "--input", str(paths[0]), "--chart", str(paths[1])]
    assert main(args) == 0
    assert capsys.readouterr().out == "pullback pole: none (polynomial)\n  pi[0,1] = u\n"
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"entries": {"0,1": "u"}, "pole": None}


def test_poisson_pullback_cancels_det_j_from_rational_entries(tmp_path, capsys):
    """The entry y * det(J) / det(J)^2 of pi = y d/dx ^ d/dy through
    det J = v + 1 is v / (v + 1): det J is cancelled once, and the pole is
    v + 1, not (v + 1)^2."""
    bivector = {"vars": ["x", "y"], "pi": {"0,1": "y"}}
    chart = {"chart_vars": ["u", "v"], "phi": ["u + u*v", "v"]}
    paths = [tmp_path / "bivector.json", tmp_path / "chart.json"]
    for path, doc in zip(paths, (bivector, chart)):
        path.write_text(json.dumps(doc))
    args = ["poisson-pullback", "--input", str(paths[0]), "--chart", str(paths[1])]
    assert main(args) == 0
    assert capsys.readouterr().out == "pullback pole: v + 1\n  pi[0,1] = (v) / (v + 1)\n"
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "entries": {"0,1": "(v) / (v + 1)"},
        "pole": "v + 1",
    }


def test_poisson_pullback_cancels_a_single_factor_of_det_j(tmp_path, capsys):
    """Through det J = (v + 1)(v + 2) the entry of pi = (y + 1) d/dx ^ d/dy
    is (v + 1) / ((v + 1)(v + 2)) once det J is cancelled, and their gcd
    v + 1 goes too."""
    bivector = {"vars": ["x", "y"], "pi": {"0,1": "y + 1"}}
    chart = {"chart_vars": ["u", "v"], "phi": ["u*(1 + v)*(2 + v)", "v"]}
    paths = [tmp_path / "bivector.json", tmp_path / "chart.json"]
    for path, doc in zip(paths, (bivector, chart)):
        path.write_text(json.dumps(doc))
    args = ["poisson-pullback", "--input", str(paths[0]), "--chart", str(paths[1])]
    assert main(args) == 0
    assert capsys.readouterr().out == "pullback pole: v + 2\n  pi[0,1] = (1) / (v + 2)\n"
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "entries": {"0,1": "(1) / (v + 2)"},
        "pole": "v + 2",
    }


def test_poisson_pullback_cancels_a_factor_of_det_j_in_two_variables(tmp_path, capsys):
    """Through det J = (v + 1)(2u + 1) the entry of pi = (y + 1) d/dx ^ d/dy
    is (v + 1) / ((v + 1)(2u + 1)) once det J is cancelled: the gcd v + 1
    goes although the denominator involves both chart variables."""
    bivector = {"vars": ["x", "y"], "pi": {"0,1": "y + 1"}}
    chart = {"chart_vars": ["u", "v"], "phi": ["(1 + v)*(u + u^2)", "v"]}
    paths = [tmp_path / "bivector.json", tmp_path / "chart.json"]
    for path, doc in zip(paths, (bivector, chart)):
        path.write_text(json.dumps(doc))
    args = ["poisson-pullback", "--input", str(paths[0]), "--chart", str(paths[1])]
    assert main(args) == 0
    assert capsys.readouterr().out == "pullback pole: 2*u + 1\n  pi[0,1] = (1) / (2*u + 1)\n"
    assert main(args + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "entries": {"0,1": "(1) / (2*u + 1)"},
        "pole": "2*u + 1",
    }


_SO3_ANCHOR = [["0", "z", "y"], ["z", "0", "-x"], ["-y", "-x", "0"]]
_SO3_CHART = {"chart_vars": ["x", "y", "z"], "phi": ["x", "x*y", "x*z"], "exceptional": "x"}
# no anchor rows: the bundle would read fiber rank 0 whatever "rank" says
_NO_VARS = {"vars": [], "rank": 3, "anchor": []}


def _expected_entries(entries):
    """A step that checks so3's x-chart pullback against ``entries``."""
    step = {"op": "poisson-pullback", "chart": "x-chart", "expect": {"entries": entries}}
    return {"steps": [step]}


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"steps": [{"op": ["rank"]}]}, "['rank']"),
        ({"steps": [{"op": "isotropy", "point": "origin", "expect": {"dim": [1]}}]}, "'dim'"),
        ({"steps": [{"op": "isotropy", "point": "origin", "expect": "dim"}]}, '"expect"'),
        (
            {"steps": [{"op": "isotropy", "point": "origin", "expect": {"dimension": 99}}]},
            "'dimension'",
        ),
        (
            {"steps": [{"op": "relations", "chart": "x-chart", "expect": [{"basis": [1, 2]}]}]},
            "'index'",
        ),
        ({"charts": [1, 2]}, '"charts"'),
        ({"curves": [1]}, '"curves"'),
        ({"points": "origin"}, '"points"'),
        ({"steps": [{"op": "rank", "expect": 2.9}]}, "not 2.9"),
        ({"steps": [{"op": "isotropy", "point": "origin", "expect": {"dim": 3.7}}]}, "not 3.7"),
        ({"steps": [{"op": "validate", "expect": {"lie": "false"}}]}, 'not "false"'),
        ({"steps": [{"op": "rank", "expct": 3}]}, "'expct'"),
        ({"steps": [{"op": "rank", "source": "bivectr", "expect": 2}]}, "'bivectr'"),
        (
            {
                "algebroid": {"vars": ["x", "y", "z"], "rank": 3, "anchor": _SO3_ANCHOR},
                "steps": [{"op": "isotropy", "point": "origin", "source": "algebroid"}],
            },
            "algebroid's brackets",
        ),
        (
            {"steps": [{"op": "relations", "chart": "x-chart", "expect": [{
                "index": 0, "basis": [1, 2], "coefficients": ["y", "-z"], "polynomal": False,
            }]}]},
            "'polynomal'",
        ),
        (
            {
                "bivector": {"vars": ["u", "v", "w"], "pi": {"0,1": "-w", "0,2": "v", "1,2": "-u"}},
                "steps": [{"op": "singular-locus", "source": "bivector", "expect": ["u", "v", "w"]}],
            },
            "over ('x', 'y', 'z') and the bivector over ('u', 'v', 'w')",
        ),
        ({"stepz": []}, "'stepz'"),
        ({"charts": {"x-chart": dict(_SO3_CHART, exceptonal="x^5 + 123")}}, "'exceptonal'"),
        (_expected_entries({"0,1": ["-z", "1", "junk"]}), '"junk"'),
        (_expected_entries({"0,1": "yx"}), '"yx"'),
        (_expected_entries({"0,1": ["-z"], "0, 1": ["-z"]}), "'0,1' and '0, 1'"),
        ({"commentary": ["x"]}, '"commentary"'),
        (
            {"charts": {"x-chart": dict(_SO3_CHART, exceptional="0")}},
            "exceptional polynomial 0 does not divide",
        ),
        ({"algebroid": _NO_VARS}, '"vars" must name'),
        ({"algebroid": dict(_NO_VARS, brackets={"0,1": ["0", "0", "1"]})}, '"vars" must name'),
    ],
    ids=[
        "op-list", "expect-dim-list", "expect-string", "expect-unknown-key", "expect-missing-key",
        "charts-list", "curves-list", "points-string", "expect-rank-float", "expect-dim-float",
        "expect-lie-string", "step-unknown-key", "source-misspelt", "source-without-brackets",
        "relation-key-misspelt", "bivector-other-base", "scenario-key-misspelt",
        "chart-key-misspelt", "entry-three-items", "entry-text", "entry-pair-twice",
        "commentary-list", "exceptional-zero", "algebroid-no-vars", "algebroid-no-vars-brackets",
    ],
)
def test_malformed_scenario_exits_2(changes, named, tmp_path, capsys):
    doc = json.loads(Path(corpus_path("so3")).read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(doc, **changes)))
    assert main(["run-scenario", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name, source", [("duval2", "algebroid"), ("sl2", "bivector")])
def test_explicit_source_the_scenario_lacks_exits_2(name, source, tmp_path, capsys):
    """A step naming a source its scenario lacks fails closed instead of
    falling back to the other source."""
    doc = json.loads(Path(corpus_path(name)).read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(doc, steps=[{"op": "rank", "source": source, "expect": 2}])))
    assert main(["run-scenario", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"step asks for the {source}; scenario has none"
    assert captured.err == f"error: step 0 ('rank'): {message}\n"


def test_bivector_step_reads_the_bivectors_kernel_sections(tmp_path, capsys):
    """kernel_gens belong to the algebroid: a bivector step reads the cotangent
    algebroid's anchor, brackets and generic kernel sections, so it reports
    what the bivector alone gives."""
    doc = json.loads(Path(corpus_path("so3")).read_text())
    step = {"op": "isotropy", "point": "origin", "source": "bivector"}
    both = dict(doc, kernel_gens=[["x", "-y", "z"]], steps=[step])
    alone = {key: doc[key] for key in ("name", "bivector", "points")}
    outputs = []
    for scenario in (both, dict(alone, steps=[step])):
        path = tmp_path / "iso.json"
        path.write_text(json.dumps(scenario))
        assert main(["run-scenario", "--json", "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["steps"][0]["summary"] == "isotropy: dim 3"


def test_bivector_chart_report_reads_the_cotangent_brackets(tmp_path, capsys):
    """A bivector step's chart report brackets with the cotangent algebroid:
    on so3's x-chart its frame is an ideal, as the algebroid's is."""
    doc = json.loads(Path(corpus_path("so3")).read_text())
    expect = {"ideal": True, "debord": True}
    step = {"op": "nash-chart-report", "chart": "x-chart", "source": "bivector", "expect": expect}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(dict(doc, steps=[step])))
    assert main(["run-scenario", "--input", str(path)]) == 0
    assert "ideal: PASS" in capsys.readouterr().out


_BUNDLE = {"vars": ["x", "y"], "rank": 2, "anchor": [["x", "0"], ["0", "y"]]}


def _term_list(exps, coeff="1"):
    """A one-term polynomial document over x, y."""
    return {"vars": ["x", "y"], "terms": [{"exps": exps, "coeff": coeff}]}


@pytest.mark.parametrize(
    "doc, point",
    [
        (dict(_BUNDLE, brackets=[]), "1,2"),
        (dict(_BUNDLE, anchor=5), "1,2"),
        (dict(_BUNDLE, brackets={"0,1": 5}), "1,2"),
        ({"vars": ["x", "y"], "pi": []}, "1,2"),
        (dict(_BUNDLE, vars=5), "1,2"),
        ({"algebroid": _BUNDLE, "kernel_gens": 5}, "1,2"),
        ({"algebroid": _BUNDLE, "kernel_gens": [5]}, "1,2"),
        (_BUNDLE, "1,,2"),
        (_BUNDLE, "1,2,"),
        (dict(_BUNDLE, rank=2.7), "1,2"),
        ({"vars": ["x", "y"], "rank": True, "anchor": [["x"], ["y"]]}, "1,2"),
        ({"vars": ["x", "y"], "rank": "3", "anchor": [["x", "0", "0"], ["0", "y", "0"]]}, "1,2"),
        (dict(_BUNDLE, rank=-1), "1,2"),
        ({"vars": ["x", "x"], "rank": 1, "anchor": [["x"], ["x"]]}, "1,2"),
        ({"vars": ["x", 1], "rank": 1, "anchor": [["x"], ["x"]]}, "1,2"),
        ({"vars": ["x", "x"], "pi": {"0,1": "x"}}, "1,2"),
        ({"algebroid": _BUNDLE, "charts": {"c": {"chart_vars": ["u", "u"], "phi": ["u", "u"]}}}, "1,2"),
        (dict(_BUNDLE, anchor=[[True, "0"], ["0", "y"]]), "1,2"),
        (dict(_BUNDLE, anchor=[[_term_list([1.7, 0]), "0"], ["0", "y"]]), "1,2"),
        (dict(_BUNDLE, anchor=[[_term_list([True, 0]), "0"], ["0", "y"]]), "1,2"),
        (dict(_BUNDLE, anchor=[[_term_list([-1, 0]), "0"], ["0", "y"]]), "1,2"),
        (dict(_BUNDLE, anchor=[[_term_list([1, 0], coeff=2.5), "0"], ["0", "y"]]), "1,2"),
        (
            {"vars": ["x", "y", "z"], "pi": {"0,1": "-z", "0, 1": "7", "0,2": "y", "1,2": "-x"}},
            "1,2,3",
        ),
    ],
    ids=[
        "brackets-list", "anchor-int", "bracket-section-int", "pi-list", "vars-int",
        "kernel-gens-int", "kernel-gen-int", "point-inner-blank", "point-trailing-comma",
        "rank-float", "rank-bool", "rank-string", "rank-negative", "vars-repeated",
        "vars-not-string", "bivector-vars-repeated", "chart-vars-repeated", "entry-bool",
        "exponent-float", "exponent-bool", "exponent-negative", "coeff-float", "pi-pair-twice",
    ],
)
def test_wrongly_shaped_input_exits_2(doc, point, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["kernel-at", "--input", str(path), "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


_AXIS_CURVES = {
    "axis": {"target": ["0", "0"], "components": ["t", "0"]},
    "off": {"target": ["1", "0"], "components": ["1 + t", "t"]},
}
_FIBER_STEP = "step 0 ('nash-fiber') failed: "


@pytest.mark.parametrize(
    "curves, message",
    [
        (["axis"], _FIBER_STEP + "all 1 arcs stayed in the singular locus at (0, 0)"),
        (["off"], _FIBER_STEP + "curve targets (1, 0), sampling at (0, 0)"),
        ([], "step 0 ('nash-fiber'): \"curves\" must name at least one curve"),
    ],
    ids=["all-singular", "other-target", "no-curves"],
)
def test_nash_fiber_curve_errors_print_points_as_reports_do(curves, message, tmp_path, capsys):
    doc = {
        "name": "axes",
        "algebroid": _BUNDLE,
        "curves": _AXIS_CURVES,
        "steps": [{"op": "nash-fiber", "point": ["0", "0"], "curves": curves}],
    }
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps(doc))
    assert main(["run-scenario", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "step, message",
    [
        ({"op": "kernel-at", "point": "nowhere"}, "unknown point 'nowhere'"),
        (
            {"op": "nash-fiber", "point": ["0", "0"], "curves": 5},
            '"curves" must be a JSON list, not 5',
        ),
    ],
    ids=["scenario-error", "document-error"],
)
def test_a_malformed_later_step_names_its_index(step, message, tmp_path, capsys):
    """A scenario or document error inside a step names the step, as an
    engine error does, and still exits 2."""
    doc = {"name": "axes", "algebroid": _BUNDLE, "steps": [{"op": "rank", "expect": 2}, step]}
    path = tmp_path / "steps.json"
    path.write_text(json.dumps(doc))
    assert main(["run-scenario", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: step 1 ({step['op']!r}): {message}\n"


@pytest.mark.parametrize("command", ["kernel-at", "nash-fiber"])
def test_point_of_the_wrong_arity_exits_2(command, tmp_path, capsys):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(_BUNDLE))
    assert main([command, "--input", str(path), "--point", "0,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: point has 3 coordinates, expected 2\n"


@pytest.mark.parametrize("coordinate", ["\u0663/\u0664", "1_000", "0.5", "1e100000000"])
def test_point_outside_the_rational_grammar_exits_2_at_once(coordinate, capsys):
    """Fraction() would read these, and expand 1e100000000 for minutes."""
    point = f"{coordinate},0,0"
    assert main(["kernel-at", "--input", corpus_path("gl3"), "--point", point]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a coordinate: malformed rational {coordinate!r}\n"


def test_isotropy_names_the_generic_kernel_sections(capsys):
    """gl3 gives no kernel_gens, so the step used the generic kernel sections,
    a basis over the fraction field that misses the kernel at (0, 1, 0)."""
    assert main(["isotropy", "--input", corpus_path("gl3"), "--point", "0,1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: [Sker, ker] leaves Sker at (0, 1, 0); the kernel generator set is "
        "incomplete or wrong: these are the generic kernel sections, a basis over "
        'the fraction field; a scenario\'s "kernel_gens" can supply a generating set\n'
    )


def test_pullback_chart_exits_2_when_the_pullback_fails_its_identity(monkeypatch, capsys):
    original = charts.solve

    def perturbed(m, b):
        return [RatFunc(c.num + c.den, c.den) for c in original(m, b)]

    monkeypatch.setattr(charts, "solve", perturbed)
    assert main(["pullback-chart", "--input", corpus_path("so3"), "--chart", "x-chart"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pullback does not satisfy its defining equation" in captured.err
    assert "Traceback" not in captured.err


_KERNEL_Q3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize(
    "name, changes, argv, number",
    [
        (
            "so3",
            {
                "points": {"p": ["NUMBER", 0, 0]},
                "steps": [
                    {"op": "kernel-at", "point": "p", "source": "bivector", "expect": _KERNEL_Q3}
                ],
            },
            ["run-scenario"],
            "1e-400",
        ),
        (
            "so3",
            {"curves": {"c": {"target": ["NUMBER", 0, 0], "components": ["t", "0", "0"]}}},
            ["nash-limit", "--curve", "c"],
            "1e-400",
        ),
        (
            "duval2",
            {"steps": [{"op": "kernel-at", "point": "probe", "expect": [[2, 1, "NUMBER"]]}]},
            ["run-scenario"],
            "-1.0000000000000000001",
        ),
    ],
    ids=["point", "curve-target", "kernel-row"],
)
def test_json_float_where_a_rational_is_read_exits_2(
    name, changes, argv, number, tmp_path, capsys
):
    """A coordinate, a curve target or an expected kernel row is a JSON
    integer or rational text: 1e-400 would read as 0 and
    -1.0000000000000000001 as -1."""
    doc = dict(json.loads(Path(corpus_path(name)).read_text()), **changes)
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc).replace('"NUMBER"', number))
    assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "must be a JSON integer or rational text, not" in captured.err


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


@pytest.mark.parametrize("gens", [[], [["0", "1", "0"]]], ids=["no-generators", "e1"])
def test_bracket_leaving_the_kernel_exits_2(gens, tmp_path, capsys):
    # anchor (x, 0, 1) with c_01 = e_2 fails the morphism axiom, so at x = 0
    # the bracket of the kernel vectors e_0 and e_1 is e_2, outside the kernel
    doc = {
        "algebroid": {
            "vars": ["x"],
            "rank": 3,
            "anchor": [["x", "0", "1"]],
            "brackets": {"0,1": ["0", "0", "1"]},
        },
        "kernel_gens": gens,
    }
    path = tmp_path / "escape.json"
    path.write_text(json.dumps(doc))
    assert main(["isotropy", "--input", str(path), "--point", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pointwise bracket left the kernel\n"


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
