from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashfol.poly import (
    ArityMismatchError,
    ExactDivisionError,
    MultiPoly,
    PolySyntaxError,
    RatFunc,
    UnknownVariableError,
    divides,
    exact_div,
    parse_poly,
    parse_rational,
    poly_from_doc,
    poly_to_doc,
)

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


def test_exponent_cap():
    assert parse_poly("x^64", XY) == MultiPoly(XY, {(64, 0): Fraction(1)})
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x^65", XY)
    assert exc.value.offset == 2
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("(x + y)^100", XY)
    assert exc.value.offset == 8


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
    # cross-multiplicative equality sees through unreduced forms
    a = RatFunc(P("x^2 - y^2"), P("x - y"))
    b = RatFunc(P("x + y"))
    assert a == b
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
    x = RatFunc(P("x"))
    y = RatFunc(P("y"))
    assert (x / y + y / x) == RatFunc(P("x^2 + y^2"), P("x*y"))
    assert (x / y) * (y / x) == 1
    assert x - x == 0
    with pytest.raises(ZeroDivisionError):
        x / (y - y)


def test_ratfunc_eval_pole():
    r = RatFunc(P("x + y"), P("x"))
    assert r.eval([2, 3]) == Fraction(5, 2)
    with pytest.raises(ZeroDivisionError):
        r.eval([0, 1])


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
    assert poly_from_doc(doc) == p
    assert poly_from_doc("x^2 - 1/3*x*y + 5", XY) == p


def test_pow_edge_cases():
    p = P("x + 1")
    assert p**0 == MultiPoly.constant(XY, 1)
    assert p**1 == p
    assert p**4 == P("x^4 + 4*x^3 + 6*x^2 + 4*x + 1")
    with pytest.raises(ValueError):
        p ** (-1)
