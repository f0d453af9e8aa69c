import operator
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


@pytest.mark.parametrize("text, offset", [("x^\u00b2", 2), ("\u0663*x", 0), ("x + 1\u0663", 5)])
def test_digits_are_ascii(text, offset):
    """str.isdigit also accepts superscripts and other scripts' digits: the
    superscript two then reached int() as a bare ValueError, and the Arabic-
    Indic three parsed as 3."""
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(text, XY)
    assert exc.value.offset == offset


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


# Term dicts over XY, the zero polynomial half the time.
_TERMS = st.one_of(
    st.just({}),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(max_denominator=6),
        max_size=4,
    ),
)
_SCALARS = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4))
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _dict_path(op: str, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The general path, zero operands included: every pair of terms, summed
    in a dict and normalized by the validating constructor."""
    if op == "*":
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(map(operator.add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
    else:
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, 0) + (c if op == "+" else -c)
    return MultiPoly(a.vars, terms)


def _form(p: MultiPoly) -> list:
    """Variables and terms, each coefficient with its type: 3 and Fraction(3)
    compare equal, but only the int is in coefficient form."""
    return [p.vars, sorted((e, type(c).__name__, c) for e, c in p.terms.items())]


@settings(max_examples=300, deadline=None)
@given(_TERMS, st.one_of(_TERMS, _SCALARS), st.sampled_from(sorted(_OPS)))
def test_arithmetic_matches_the_dict_path(a_terms, b, op):
    """+, - and * equal the general dict path on zero and nonzero polynomials
    and int or Fraction scalars, on either side, and a zero operand over
    another variable tuple is refused like any other."""
    a = MultiPoly(XY, a_terms)
    if isinstance(b, dict):
        b_poly = operand = MultiPoly(XY, b)
        other = MultiPoly(("x", "z"), b)
        for left, right in ((a, other), (other, a)):
            with pytest.raises(ArityMismatchError) as exc:
                _OPS[op](left, right)
            assert str(exc.value) == f"variable mismatch: {left.vars} vs {right.vars}"
    else:
        b_poly, operand = MultiPoly.constant(XY, b), b
    assert _form(_OPS[op](a, operand)) == _form(_dict_path(op, a, b_poly))
    if op != "-":  # a scalar on the left goes through __radd__ and __rmul__
        assert _form(_OPS[op](operand, a)) == _form(_dict_path(op, b_poly, a))


def test_a_zero_operand_is_returned_as_it_is():
    """A polynomial is never mutated, so a sum with zero is the other operand
    and a product with zero is the zero operand."""
    p, zero = P("x - 1/2*y"), MultiPoly.zero(XY)
    assert p + zero is p and zero + p is p and p - zero is p
    assert p * zero is zero and zero * p is zero


def test_subst_of_a_zero_image():
    t = ("t",)
    zero, var = MultiPoly.zero(t), MultiPoly.variable(t, "t")
    assert P("x^2*y + 3*y - x + 2").subst(t, [zero, var]) == parse_poly("3*t + 2", t)
    assert P("x*y").subst(t, [zero, var]).is_zero()


_ST = ("s", "t")
# Images over (s, t), the zero polynomial half the time, and polynomials
# over XYZ with powers up to 7, repeated across terms.
_IMAGES = st.one_of(
    st.just({}),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4)),
        max_size=3,
    ),
)
_XYZ_TERMS = st.dictionaries(
    st.tuples(*[st.sampled_from([0, 1, 2, 3, 7])] * 3),
    st.fractions(max_denominator=3),
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(_XYZ_TERMS, st.tuples(_IMAGES, _IMAGES, _IMAGES))
def test_subst_is_the_sum_of_products_of_image_powers(terms, images):
    """Substitution, with its power table and its first powers taken as the
    images themselves, equals expanding every term by repeated products."""
    images = [MultiPoly(_ST, image) for image in images]
    p = MultiPoly(XYZ, terms)
    expanded = MultiPoly.zero(_ST)
    for exps, c in p.terms.items():
        term = MultiPoly.constant(_ST, c)
        for image, e in zip(images, exps):
            term = term * image**e
        expanded = expanded + term
    assert _form(p.subst(_ST, images)) == _form(expanded)


def test_zero_variable_products_and_quotients():
    """Exponent vectors in a ring without variables are empty tuples."""
    six, four = MultiPoly.constant((), 6), MultiPoly.constant((), 4)
    assert (six * four).terms == {(): 24}
    assert exact_div(six, four) == MultiPoly.constant((), Fraction(3, 2))
    assert divides(four, six)
    assert six.shift_down(()) == six


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
    assert p == p.primitive() * 2
    assert p.primitive() == P("2*x^2 - 3*y")
    assert -p == (-p).primitive() * -2
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
    # defining __eq__ leaves the class unhashable: no dict or set keys on one
    with pytest.raises(TypeError):
        hash(one)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational(" 7 ") == 7
    with pytest.raises(ValueError):
        parse_rational("3/4/5")


@pytest.mark.parametrize(
    "text",
    ["\u0663/\u0664", "1_000", "0.5", "1e100000000", "+3", "3/-4", "3/0", "- 3", "", "/4"],
)
def test_parse_rational_takes_only_the_grammar(text):
    """Only -?[0-9]+(/[0-9]+)? with a nonzero denominator: Fraction() would
    read non-ASCII digits, underscores and decimals, and expand an exponent."""
    with pytest.raises(ValueError, match="malformed rational"):
        parse_rational(text)


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
