"""Round-trips and error paths for the JSON document codecs."""

from fractions import Fraction

import pytest

from nashfol.documents import (
    DocumentError,
    algebroid_from_doc,
    bivector_from_doc,
    chart_from_doc,
    curve_from_doc,
    load_json,
    parse_point,
    point_from_doc,
    point_to_doc,
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
    assert parse_point("1,2,1") == (1, 2, 1)
    assert parse_point("1/2, -3") == (Fraction(1, 2), -3)
    with pytest.raises(DocumentError):
        parse_point("1,two")
    assert point_from_doc(point_to_doc([Fraction(1, 2), 3])) == (Fraction(1, 2), 3)


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
    assert str(exc.value).endswith(f"not {exponent!r}")
