"""Polynomial division, gcd, substitution and parsing, and the
determinants, ranks and kernels of polynomial matrices, against sympy, on
generated inputs.

Every polynomial an operation returns is also checked for the coefficient
form: each coefficient a nonzero int, or a Fraction that is not an integer,
and never a float or a bool.  Arithmetic builds its results without the
public constructor's validation, so each result must also come back
unchanged through ``MultiPoly(p.vars, p.terms)``.

sympy is a test-time oracle only; the module is skipped when it is absent.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashfol.linalg import det, kernel_basis, rank
from nashfol.poly import (
    ExactDivisionError,
    MultiPoly,
    RatFunc,
    divides,
    exact_div,
    parse_poly,
    _recursive_gcd,
    poly_gcd,
)

from oracles import (
    clear_denominators,
    gcd_by_euclid,
    ratfunc_difference,
    ratfunc_product,
    ratfunc_quotient,
    ratfunc_sum,
)

sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

XY = ("x", "y")
T = ("t",)


# Small rationals, half of them integers, so that sums and products of
# Fractions often come out integral.
_COEFFS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 1, 2, 3]))


def _polys(variables, max_exponent, max_size):
    exps = st.tuples(*[st.integers(0, max_exponent) for _ in variables])
    return st.dictionaries(exps, _COEFFS, max_size=max_size).map(
        lambda terms: MultiPoly(variables, terms)
    )


def _to_sympy(p: MultiPoly):
    symbols = sympy.symbols(p.vars)
    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[s**e for s, e in zip(symbols, exps)])
            for exps, c in p.terms.items()
        ]
    )


def _sympy_poly(p: MultiPoly):
    return sympy.Poly(_to_sympy(p), *sympy.symbols(p.vars), domain="QQ")


def _assert_form(p: MultiPoly) -> None:
    """Every coefficient is a nonzero int or a non-integral Fraction, and the
    polynomial passes the public constructor's validation unchanged."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
        assert c != 0
    assert p == MultiPoly(p.vars, p.terms)


def _agrees(p: MultiPoly, expected) -> None:
    """``p`` has the coefficient form and equals the sympy expression."""
    _assert_form(p)
    assert _sympy_poly(p) == sympy.Poly(expected, *sympy.symbols(p.vars), domain="QQ")


@settings(max_examples=150, deadline=None)
@given(
    _polys(XY, 2, 4).filter(bool),
    _polys(XY, 2, 4),
    _polys(XY, 3, 5),
    st.booleans(),
)
def test_division_matches_sympy(q, f, noise, divisible):
    p = q * f if divisible else q * f + noise
    quotient, remainder = _sympy_poly(p).div(_sympy_poly(q))
    assert divides(q, p) == remainder.is_zero
    if remainder.is_zero:
        _agrees(exact_div(p, q), quotient.as_expr())
    else:
        with pytest.raises(ExactDivisionError):
            exact_div(p, q)


@settings(max_examples=150, deadline=None)
@given(_polys(T, 3, 3), _polys(T, 3, 3), _polys(T, 3, 3))
def test_univariate_gcd_matches_sympy_up_to_a_rational_factor(g, f1, f2):
    a, b = g * f1, g * f2
    gcd = poly_gcd(a, b)
    _assert_form(gcd)
    ours = _sympy_poly(gcd)
    theirs = sympy.gcd(_sympy_poly(a), _sympy_poly(b))
    if theirs.is_zero:
        assert ours.is_zero
    else:
        assert ours.monic() == theirs.monic()


_ZERO_T = MultiPoly.zero(T)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_polys(T, 3, 3), _polys(T, 0, 1)),
    st.one_of(_polys(T, 3, 3), _polys(T, 0, 1)),
    _polys(T, 3, 3),
)
@example(_ZERO_T, _ZERO_T, _ZERO_T)
@example(MultiPoly(T, {(0,): Fraction(-2, 3)}), _ZERO_T, MultiPoly(T, {(2,): 2, (0,): -4}))
def test_univariate_gcd_is_the_euclid_gcd(f1, f2, g):
    """The primitive PRS returns exactly Euclid's primitive gcd over Q, with
    Fraction coefficients, a shared factor g, constants and zero inputs."""
    for a, b in [(g * f1, g * f2), (f1, f2), (g * f1, _ZERO_T), (_ZERO_T, f2), (-f1, g)]:
        got = poly_gcd(a, b)
        _assert_form(got)
        assert got == gcd_by_euclid(a, b)
        assert str(got) == str(gcd_by_euclid(b, a))


XYZ = ("x", "y", "z")


def _assert_gcd(got: MultiPoly, a: MultiPoly, b: MultiPoly) -> None:
    """``got`` is primitive with positive leading coefficient, and equals
    sympy's gcd up to a rational factor."""
    _assert_form(got)
    if got:
        assert got == got.primitive()
    theirs = sympy.gcd(_sympy_poly(a), _sympy_poly(b))
    if theirs.is_zero:
        assert not got
    else:
        assert _sympy_poly(got).monic() == theirs.monic()


@st.composite
def _gcd_operands(draw):
    """Two polynomials in two or three variables with Fraction coefficients:
    a shared factor raised to high multiplicities, two independent (mostly
    coprime) polynomials, or a constant or zero operand."""
    variables = draw(st.sampled_from([XY, XYZ]))
    g = draw(_polys(variables, 1, 3))
    f1, f2 = draw(_polys(variables, 2, 3)), draw(_polys(variables, 2, 3))
    kind = draw(st.sampled_from(["shared", "coprime", "constant"]))
    if kind == "shared":
        return g ** draw(st.integers(1, 4)) * f1, g ** draw(st.integers(1, 3)) * f2
    if kind == "coprime":
        return f1, f2
    return draw(_polys(variables, 0, 1)), g * f1


@settings(max_examples=100, deadline=None)
@given(_gcd_operands())
@example((parse_poly("(x + 1)^3*(y - 2)", XY), parse_poly("(x + 1)^2*(y - 2)^2*(x - y)", XY)))
@example((MultiPoly.zero(XYZ), MultiPoly.zero(XYZ)))
# the first evaluation point, y = 33, maps both to x + 66, whose digits
# rebuild x + 2*y: only the division test refuses it
@example((parse_poly("x + y + 33", XY), parse_poly("x + 2*y", XY)))
def test_gcd_matches_sympy_in_several_variables(operands):
    a, b = operands
    for p, q in [(a, b), (b, a), (-a, b), (a, MultiPoly.zero(a.vars))]:
        _assert_gcd(poly_gcd(p, q), p, q)


@settings(max_examples=30, deadline=None)
@given(_gcd_operands().filter(lambda ab: ab[0] and ab[1]))
def test_recursive_gcd_fallback_matches_sympy(operands):
    """The exact fallback, which the heuristic gcd almost never reaches,
    called directly."""
    a, b = operands
    _assert_gcd(_recursive_gcd(a, b), a, b)


# Matrices up to 4x4 over Q[x,y] with entries of total degree at most 2.  A
# product B*C with C an integer matrix keeps that degree and caps the rank at
# the inner size, so rank-deficient matrices come up as often as full ones.
_DEGREE_2 = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
_entries = st.dictionaries(
    st.sampled_from(_DEGREE_2), st.integers(-3, 3).filter(bool).map(Fraction), max_size=3
).map(lambda terms: MultiPoly(XY, terms))


@st.composite
def _matrices(draw, square=False):
    d = draw(st.integers(1, 4))
    n = d if square else draw(st.integers(1, 4))
    k = draw(st.integers(1, min(d, n)))
    if draw(st.booleans()):
        return [[draw(_entries) for _ in range(n)] for _ in range(d)]
    b = [[draw(_entries) for _ in range(k)] for _ in range(d)]
    c = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(k)]
    return [[sum((b[i][a] * c[a][j] for a in range(k)), MultiPoly.zero(XY)) for j in range(n)]
            for i in range(d)]


def _sympy_matrix(rows):
    return sympy.Matrix([[_to_sympy(e) for e in row] for row in rows])


def _field_rank(matrix) -> int:
    """Rank over Q(x, y), by sympy's own elimination."""
    if not matrix.rows:
        return 0
    return DomainMatrix.from_Matrix(matrix).to_field().rank()


@settings(max_examples=40, deadline=None)
@given(_matrices(square=True))
def test_det_matches_sympy(m):
    theirs = DomainMatrix.from_Matrix(_sympy_matrix(m))
    expected = theirs.domain.to_sympy(theirs.det())
    assert _sympy_poly(det(m)) == sympy.Poly(expected, *sympy.symbols(XY), domain="QQ")


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_rank_matches_sympy(m):
    assert rank(m) == _field_rank(_sympy_matrix(m))


@settings(max_examples=40, deadline=None)
@given(_matrices())
def test_kernel_basis_spans_the_sympy_nullspace(m):
    basis = kernel_basis(m)
    ours = _sympy_matrix(basis) if basis else sympy.zeros(0, len(m[0]))
    theirs = DomainMatrix.from_Matrix(_sympy_matrix(m)).to_field().nullspace().to_Matrix()
    assert ours.rows == theirs.rows == len(m[0]) - _field_rank(_sympy_matrix(m))
    assert _field_rank(ours) == _field_rank(ours.col_join(theirs)) == ours.rows


@settings(max_examples=100, deadline=None)
@given(_polys(XY, 2, 4), _polys(XY, 2, 3), _polys(XY, 2, 3))
def test_subst_matches_sympy(p, fx, fy):
    """Simultaneous substitution: x -> fx and y -> fy at once, so an image
    mentioning x is not substituted again."""
    x, y = sympy.symbols(XY)
    expected = _to_sympy(p).subs({x: _to_sympy(fx), y: _to_sympy(fy)}, simultaneous=True)
    _agrees(p.subst(XY, [fx, fy]), expected)


@settings(max_examples=150, deadline=None)
@given(_polys(XY, 2, 4), _polys(XY, 2, 4), st.integers(0, 3))
def test_ring_operations_keep_the_coefficient_form(p, q, n):
    x, y = sympy.symbols(XY)
    sp, sq = _to_sympy(p), _to_sympy(q)
    _agrees(p + q, sp + sq)
    _agrees(p - q, sp - sq)
    _agrees(p + 1, sp + 1)
    _agrees(-p, -sp)
    _agrees(p * q, sp * sq)
    _agrees(p * Fraction(3, 2), sp * sympy.Rational(3, 2))
    _agrees(p**n, sp**n)
    _agrees(p.diff("x"), sympy.diff(sp, x))
    _agrees((p * parse_poly("x*y^2", XY)).shift_down((1, 2)), sp)
    primitive = p.primitive()
    c = next((Fraction(v, primitive.terms[e]) for e, v in p.terms.items()), Fraction(1))
    _agrees(primitive, sp / sympy.Rational(c.numerator, c.denominator))
    assert all(type(v) is int for v in primitive.terms.values())


def test_integral_sums_and_products_of_fractions_are_ints():
    half_x = MultiPoly(XY, {(1, 0): Fraction(1, 2)})
    assert (half_x + half_x).terms == {(1, 0): 1}
    assert type((half_x + half_x).terms[(1, 0)]) is int
    assert type((half_x * 2).terms[(1, 0)]) is int
    assert type((half_x * half_x * 4).terms[(2, 0)]) is int
    assert type(exact_div(half_x, half_x).terms[(0, 0)]) is int
    assert (half_x - half_x).terms == {}


def test_as_poly_by_an_int_that_does_not_divide_the_numerator():
    """int / int is a float in Python; the quotient must be the Fraction 1/2."""
    x = parse_poly("x", XY)
    p = RatFunc(x, MultiPoly.constant(XY, 2)).as_poly()
    assert p.terms == {(1, 0): Fraction(1, 2)}
    assert type(p.terms[(1, 0)]) is Fraction
    _assert_form(p)


@st.composite
def _ratfunc_operands(draw):
    """Two fractions over one variable tuple, (x, y) or (t,)."""
    variables = draw(st.sampled_from([XY, T]))
    a, c = draw(_polys(variables, 2, 3)), draw(_polys(variables, 2, 3))
    b, d = draw(_polys(variables, 2, 3).filter(bool)), draw(_polys(variables, 2, 3).filter(bool))
    return a, b, c, d


def _assert_fraction(r: RatFunc, expected) -> None:
    _assert_form(r.num)
    _assert_form(r.den)
    assert sympy.cancel(_to_sympy(r.num) / _to_sympy(r.den) - expected) == 0


@settings(max_examples=60, deadline=None)
@given(_ratfunc_operands())
def test_ratfunc_arithmetic_keeps_the_coefficient_form(operands):
    a, b, c, d = operands
    r, s = RatFunc(a, b), RatFunc(c, d)
    sr, ss = _to_sympy(a) / _to_sympy(b), _to_sympy(c) / _to_sympy(d)
    _assert_fraction(r, sr)
    _assert_fraction(ratfunc_sum(r, s), sr + ss)
    _assert_fraction(ratfunc_difference(r, s), sr - ss)
    _assert_fraction(ratfunc_product(r, s), sr * ss)
    if c:
        _assert_fraction(ratfunc_quotient(r, s), sr / ss)
    _agrees(RatFunc(a * b, b).as_poly(), _to_sympy(a))
    _agrees(RatFunc(a, MultiPoly.constant(a.vars, 3)).as_poly(), _to_sympy(a) / 3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_polys(XY, 2, 3), _polys(XY, 1, 2).filter(bool)), min_size=1, max_size=3))
def test_clear_denominators_gives_a_primitive_integer_multiple(pairs):
    entries = [RatFunc(n, d) for n, d in pairs]
    polys = clear_denominators(entries)
    for p in polys:
        _assert_form(p)
    values = [_to_sympy(n) / _to_sympy(d) for n, d in pairs]
    live = [k for k, e in enumerate(entries) if not e.is_zero()]
    if not live:
        assert not any(polys)
        return
    coeffs = [c for p in polys for c in p.terms.values()]
    assert all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1
    ratio = _to_sympy(polys[live[0]]) / values[live[0]]
    assert all(sympy.cancel(_to_sympy(p) - ratio * v) == 0 for p, v in zip(polys, values))


# Expression trees rendered with the fewest parentheses the grammar needs, so
# precedence is exercised: (text, level) with 1 a sum or negation, 2 a product
# or a rational literal, 3 a power and 4 an atom.
_leaves = st.one_of(
    st.sampled_from(["x", "y"]).map(lambda v: (v, 4)),
    st.integers(0, 5).map(lambda k: (str(k), 4)),
    st.tuples(st.integers(0, 5), st.integers(1, 5)).map(lambda pq: (f"{pq[0]}/{pq[1]}", 2)),
)


def _wrap(node, level):
    text, own = node
    return text if own >= level else f"({text})"


def _grow(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: (f"{_wrap(ab[0], 1)} + {_wrap(ab[1], 1)}", 1)),
        st.tuples(children, children).map(lambda ab: (f"{_wrap(ab[0], 1)} - {_wrap(ab[1], 2)}", 1)),
        st.tuples(children, children).map(lambda ab: (f"{_wrap(ab[0], 2)}*{_wrap(ab[1], 2)}", 2)),
        st.tuples(children, st.integers(0, 3)).map(lambda be: (f"{_wrap(be[0], 4)}^{be[1]}", 3)),
        children.map(lambda a: (f"-{_wrap(a, 2)}", 1)),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_leaves, _grow, max_leaves=8))
def test_parse_poly_matches_sympy(tree):
    text = tree[0]
    expected = sympy.sympify(text.replace("^", "**"))
    assert _sympy_poly(parse_poly(text, XY)) == sympy.Poly(expected, *sympy.symbols(XY), domain="QQ")
