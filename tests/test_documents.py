"""Round-trips and error paths for the JSON document codecs."""

import json
from fractions import Fraction
from functools import partial

import pytest

from nashfol.documents import (
    DocumentError,
    algebroid_from_doc,
    bivector_from_doc,
    chart_from_doc,
    curve_from_doc,
    load_json,
    point_from_doc,
    poly_from_doc,
)
from nashfol.algebroid import AlmostLieAlgebroid, AnchoredBundle
from encoders import algebroid_to_doc, bivector_to_doc, curve_to_doc
from models import (
    matrix_action_algebroid,
    sphere_generators_algebroid,
    surface_bivector,
    vanishing_order_bundle,
)


def test_point_parsing():
    assert point_from_doc("1,2,1".split(",")) == (1, 2, 1)
    assert point_from_doc("1/2, -3".split(",")) == (Fraction(1, 2), -3)
    with pytest.raises(DocumentError):
        point_from_doc("1,two".split(","))
    assert point_from_doc(["1/2", 3]) == (Fraction(1, 2), 3)


def test_algebroid_roundtrip_with_brackets():
    a = sphere_generators_algebroid()
    doc = algebroid_to_doc(a)
    back = algebroid_from_doc(doc)
    assert isinstance(back, AlmostLieAlgebroid)
    assert algebroid_to_doc(back) == doc


def test_bundle_roundtrip_without_brackets():
    b = vanishing_order_bundle(2, 2)
    doc = algebroid_to_doc(b)
    assert "brackets" not in doc
    back = algebroid_from_doc(doc)
    assert isinstance(back, AnchoredBundle)
    assert back.anchor == b.anchor


def test_algebroid_doc_errors():
    good = algebroid_to_doc(matrix_action_algebroid(2))
    bad = dict(good, anchor=good["anchor"][:1])
    with pytest.raises(DocumentError):
        algebroid_from_doc(bad)
    bad = dict(good, brackets={"0,0": ["0", "0", "0", "0"]})
    with pytest.raises(DocumentError):
        algebroid_from_doc(bad)
    bad = dict(good, brackets={"0,7": ["0", "0", "0", "0"]})
    with pytest.raises(DocumentError):
        algebroid_from_doc(bad)
    with pytest.raises(DocumentError):
        algebroid_from_doc({"vars": ["x"], "rank": 1})


def test_bivector_roundtrip_and_key_validation():
    pi = surface_bivector(3)
    doc = bivector_to_doc(pi)
    assert bivector_to_doc(bivector_from_doc(doc)) == doc
    with pytest.raises(DocumentError):
        bivector_from_doc({"vars": ["x", "y"], "pi": {"1,0": "x"}})


def test_curve_roundtrip_and_target_check():
    doc = {"target": ["0", "0"], "components": ["t", "t^2 - t"]}
    c = curve_from_doc(doc)
    assert curve_to_doc(c) == doc
    with pytest.raises(DocumentError):
        curve_from_doc({"target": ["0"], "components": ["t", "t"]})


def test_chart_doc():
    chart = chart_from_doc(
        {"chart_vars": ["u", "v"], "phi": ["u", "u*v"], "exceptional": "u"},
        ("x", "y"),
    )
    assert chart.chart_vars == ("u", "v")
    assert str(chart.exceptional_poly()) == "u"
    with pytest.raises(DocumentError):
        chart_from_doc({"chart_vars": ["u"], "phi": ["u", "u"]}, ("x", "y"))


def test_load_json_errors(tmp_path):
    with pytest.raises(DocumentError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DocumentError):
        load_json(str(bad))


@pytest.mark.parametrize("entry, value", [(True, "True"), (False, "False")])
def test_boolean_polynomial_is_refused(entry, value):
    """A JSON boolean is not read as the integer 1 or 0."""
    doc = {"vars": ["x", "y"], "rank": 2, "anchor": [[entry, "0"], ["0", "y"]]}
    with pytest.raises(DocumentError) as exc:
        algebroid_from_doc(doc)
    assert str(exc.value).endswith(f"not {value}")


@pytest.mark.parametrize("exponent", [1.7, 1.0, True, -1, "1"], ids=repr)
def test_term_list_exponent_must_be_a_non_negative_integer(exponent):
    """No exponent is truncated or coerced: 1.7 and true are not read as 1."""
    term_list = {"vars": ["x", "y"], "terms": [{"exps": [exponent, 0], "coeff": "1"}]}
    doc = {"vars": ["x", "y"], "rank": 2, "anchor": [[term_list, "0"], ["0", "y"]]}
    with pytest.raises(DocumentError) as exc:
        algebroid_from_doc(doc)
    assert str(exc.value).endswith(f"not {json.dumps(exponent)}")


_TERM = {"coeff": "1", "exps": [1, 0]}


@pytest.mark.parametrize(
    "read, doc, key",
    [
        (
            algebroid_from_doc,
            {"vars": ["x"], "rank": 1, "anchor": [["x"]], "bracket": {}},
            "bracket",
        ),
        (bivector_from_doc, {"vars": ["x", "y"], "pi": {}, "pie": {}}, "pie"),
        (curve_from_doc, {"target": ["0"], "components": ["t"], "start": ["0"]}, "start"),
        (
            partial(chart_from_doc, target_vars=("x",)),
            {"chart_vars": ["u"], "phi": ["u"], "exceptonal": "u"},
            "exceptonal",
        ),
        (
            partial(poly_from_doc, variables=("x", "y")),
            {"vars": ["x", "y"], "terms": [_TERM], "term": []},
            "term",
        ),
        (
            partial(poly_from_doc, variables=("x", "y")),
            {"vars": ["x", "y"], "terms": [dict(_TERM, coef="2")]},
            "coef",
        ),
    ],
    ids=["algebroid", "bivector", "curve", "chart", "term-list", "term"],
)
def test_unknown_key_is_refused(read, doc, key):
    with pytest.raises(DocumentError, match=f"has no key {key!r}"):
        read(doc)


@pytest.mark.parametrize(
    "read, doc",
    [
        (
            algebroid_from_doc,
            {
                "vars": ["x", "y"], "rank": 2, "anchor": [["x", "0"], ["0", "y"]],
                "brackets": {"0,1": ["0", "0"], "0, 1": ["1", "0"]},
            },
        ),
        (bivector_from_doc, {"vars": ["x", "y", "z"], "pi": {"0,1": "-z", "0, 1": "7"}}),
    ],
    ids=["brackets", "pi"],
)
def test_pair_named_twice_is_refused(read, doc):
    """"0,1" and "0, 1" name one pair: neither silently wins."""
    with pytest.raises(DocumentError, match="pair 0,1 twice: '0,1' and '0, 1'"):
        read(doc)


@pytest.mark.parametrize("number", ["1e-400", "0.5", "true"])
def test_a_coordinate_is_an_integer_or_rational_text(number):
    """A JSON number other than an integer is not read as a rational: 1e-400
    would be 0."""
    doc = json.loads(f'{{"target": [{number}], "components": ["t"]}}')
    with pytest.raises(DocumentError, match="a target coordinate must be a JSON integer"):
        curve_from_doc(doc)
    with pytest.raises(DocumentError, match="a coordinate must be a JSON integer"):
        point_from_doc(doc["target"])
