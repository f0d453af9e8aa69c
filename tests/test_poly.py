from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashfol.poly import (
    ArityMismatchError,
    MAX_TERMS,
    ExactDivisionError,
    MultiPoly,
    PolySyntaxError,
    RatFunc,
    UnknownVariableError,
    divides,
    exact_div,
    parse_poly,
    parse_rational,
)
from nashfol.documents import poly_from_doc
from encoders import poly_to_doc
from oracles import ratfunc_product, ratfunc_sum

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, variables=XY):
    return parse_poly(text, variables)


def test_binomial_square_identity():
    # oracle: (x+y)^2 - x^2 - y^2 == 2xy, computed by hand
    p = P("(x + y)^2 - x^2 - y^2")
    assert p == P("2*x*y")


def test_arithmetic_against_expanded_forms():
    assert P("(x - y)*(x + y)") == P("x^2 - y^2")
    assert P("(x + 2*y)^3") == P("x^3 + 6*x^2*y + 12*x*y^2 + 8*y^3")
    assert P("x") - P("x") == MultiPoly.zero(XY)


def test_rational_coefficients():
    p = P("1/2*x + 1/3*y")
    assert p.eval([Fraction(2), Fraction(3)]) == Fraction(2)
    assert str(p) == "1/2*x + 1/3*y"


def test_printer_is_grlex_descending():
    p = P("y + x^2*y + x + x*y^2 + 1")
    # degree 3 terms first (x^2*y before x*y^2), then degree 1 (x before y)
    assert str(p) == "x^2*y + x*y^2 + x + y + 1"


def test_print_parse_fixed_point_on_known_polys():
    for text in ["0", "-x", "x - y", "2*x*y", "x^2 - 2*x*y + y^2 - 1/7"]:
        p = P(text)
        assert parse_poly(str(p), XY) == p


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
        st.fractions(max_denominator=40).filter(lambda f: f != 0),
        max_size=8,
    )
)
def test_print_parse_roundtrip(terms):
    p = MultiPoly(XYZ, terms)
    assert parse_poly(str(p), XYZ) == p


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(max_denominator=12),
            max_size=4,
        ),
        min_size=3,
        max_size=3,
    )
)
def test_ring_axioms(triple):
    a, b, c = (MultiPoly(XY, t) for t in triple)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a


def test_signed_literal_inside_term():
    assert P("x * -3") == P("-3*x")
    assert P("2 * -1/2 * y") == P("-y")
    with pytest.raises(PolySyntaxError):
        P("x * -y")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.fractions(max_denominator=12),
            max_size=4,
        ),
        min_size=2,
        max_size=2,
    ),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
def test_derivative_leibniz_and_eval_morphism(pair, pt):
    a, b = (MultiPoly(XY, t) for t in pair)
    prod = a * b
    assert prod.diff("x") == a * b.diff("x") + b * a.diff("x")
    point = [Fraction(pt[0]), Fraction(pt[1])]
    assert prod.eval(point) == a.eval(point) * b.eval(point)


def test_syntax_error_carries_byte_offset():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x + * y", XY)
    assert exc.value.offset == 4
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x + y)", XY)
    assert exc.value.offset == 5
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x @ y", XY)
    assert exc.value.offset == 2


@pytest.mark.parametrize("text, offset", [("3/4^2", 3), ("-3/4^2", 4)])
def test_power_right_after_a_fraction_is_refused(text, offset):
    # the usual reading is 3/(4^2) = 3/16; the grammar's would be (3/4)^2
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(text, ("x",))
    assert exc.value.offset == offset
    assert parse_poly("(3/4)^2", ("x",)) == MultiPoly.constant(("x",), Fraction(9, 16))


def test_exponent_cap():
    assert parse_poly("x^64", XY) == MultiPoly(XY, {(64, 0): Fraction(1)})
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x^65", XY)
    assert exc.value.offset == 2
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("(x + y)^100", XY)
    assert exc.value.offset == 8


def test_term_cap(monkeypatch):
    largest = []
    multiply = MultiPoly.__mul__

    def spy(self, other):
        product = multiply(self, other)
        largest.append(len(product.terms))
        return product

    monkeypatch.setattr(MultiPoly, "__mul__", spy)
    ten = tuple("abcdefghij")
    linear = "(" + " + ".join(ten) + ")"
    assert len(parse_poly(linear + "^6", ten).terms) == 5005
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(linear + "^7", ten)  # bound C(16, 7) = 11440
    assert exc.value.offset == len(linear)
    hundred = "(" + " + ".join(f"x^{i}*y^{j}" for i in range(10) for j in range(10)) + ")"
    assert len(parse_poly(f"{hundred} * {hundred}", XYZ).terms) == 19 * 19  # bound 10000
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(f"{hundred} * ({hundred[1:-1]} + z)", XYZ)  # bound 100 * 101
    assert exc.value.offset == len(hundred) + 1
    assert max(largest) <= MAX_TERMS


def test_unknown_variable_error():
    with pytest.raises(UnknownVariableError) as exc:
        parse_poly("x + w", XY)
    assert exc.value.name == "w"
    assert exc.value.offset == 4


def test_variable_mismatch_is_refused():
    with pytest.raises(ArityMismatchError):
        P("x") + parse_poly("x", XYZ)


def test_eval_diff_subst():
    p = P("x^2*y - 3*y")
    assert p.eval([2, 5]) == 20 - 15
    assert p.diff("x") == P("2*x*y")
    assert p.diff("y") == P("x^2 - 3")
    u, v = ("u", "v")
    q = p.subst((u, v), [parse_poly("u*v", (u, v)), parse_poly("v", (u, v))])
    assert q == parse_poly("u^2*v^3 - 3*v", (u, v))


def test_exact_division():
    p = P("x^3 - y^3")
    q = P("x - y")
    assert exact_div(p, q) == P("x^2 + x*y + y^2")
    assert divides(q, p)
    assert not divides(P("x + y"), p + 1)
    with pytest.raises(ExactDivisionError):
        exact_div(P("x^2 + 1"), P("x + y"))


def test_content_and_primitive():
    p = P("4*x^2 - 6*y")
    assert p.content() == 2
    assert p.primitive() == P("2*x^2 - 3*y")
    assert (-p).content() == -2
    assert (-p).primitive() == P("2*x^2 - 3*y")
    half = P("1/2*x - 1/4*y")
    assert half.primitive() == P("2*x - y")


def test_ratfunc_reduction_and_equality():
    x2y = P("x^2*y")
    xy = P("x*y")
    r = RatFunc(x2y, xy)
    assert r.is_polynomial()
    assert r.as_poly() == P("x")
    # the gcd x - y is cancelled, so the fraction is the polynomial x + y
    a = RatFunc(P("x^2 - y^2"), P("x - y"))
    b = RatFunc(P("x + y"))
    assert a == b
    assert (a.num, a.den) == (P("x + y"), P("1"))
    assert a != RatFunc(P("x - y"))


def test_ratfunc_univariate_gcd_reduction():
    X = ("x",)
    num = parse_poly("x^2 - 1", X)
    den = parse_poly("x^2 + 2*x + 1", X)
    r = RatFunc(num, den)
    assert r.num == parse_poly("x - 1", X)
    assert r.den == parse_poly("x + 1", X)


def test_ratfunc_denominator_is_primitive_positive():
    r = RatFunc(P("x"), P("-2*y"))
    assert r.den == P("y")
    assert r.num == P("-1/2*x")
    assert r == RatFunc(P("-x"), P("2*y"))


def test_ratfunc_arithmetic():
    x_over_y, y_over_x = RatFunc(P("x"), P("y")), RatFunc(P("y"), P("x"))
    assert ratfunc_sum(x_over_y, y_over_x) == RatFunc(P("x^2 + y^2"), P("x*y"))
    assert ratfunc_product(x_over_y, y_over_x) == RatFunc(P("1"))
    minus_one = RatFunc(P("-1"))
    assert ratfunc_sum(x_over_y, ratfunc_product(x_over_y, minus_one)) == RatFunc(P("0"))
    with pytest.raises(ZeroDivisionError):
        RatFunc(P("x"), P("y - y"))


def test_ratfunc_is_a_value_without_arithmetic():
    """A RatFunc is constructed, compared and printed: it neither adds nor
    multiplies, and it equals only another RatFunc."""
    one = RatFunc(P("1"))
    for op in ("__add__", "__radd__", "__mul__", "__rmul__", "_coerce"):
        assert not hasattr(RatFunc, op)
    with pytest.raises(TypeError):
        one + one
    assert one != P("1") and one != 1


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == 7
    with pytest.raises(ValueError):
        parse_rational("3/4/5")


def test_json_document_roundtrip():
    p = P("x^2 - 1/3*x*y + 5")
    doc = poly_to_doc(p)
    assert doc["vars"] == ["x", "y"]
    assert doc["terms"][0] == {"coeff": "1", "exps": [2, 0]}
    assert poly_from_doc(doc, XY) == p
    assert poly_from_doc("x^2 - 1/3*x*y + 5", XY) == p


def test_term_list_exponent_cap():
    def doc(exps):
        return {"vars": ["x", "y"], "terms": [{"coeff": "1", "exps": exps}]}

    assert poly_from_doc(doc([64, 0]), XY) == MultiPoly(XY, {(64, 0): Fraction(1)})
    for exps in ([65, 0], [0, 65], [100000, 0]):
        with pytest.raises(ValueError, match="exponent above 64"):
            poly_from_doc(doc(exps), XY)


def test_pow_edge_cases():
    p = P("x + 1")
    assert p**0 == MultiPoly.constant(XY, 1)
    assert p**1 == p
    assert p**4 == P("x^4 + 4*x^3 + 6*x^2 + 4*x + 1")
    with pytest.raises(ValueError):
        p ** (-1)
