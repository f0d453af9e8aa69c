"""Polynomial division, univariate gcd, substitution and parsing, and the
determinants, ranks and kernels of polynomial matrices, against sympy, on
generated inputs.

sympy is a test-time oracle only; the module is skipped when it is absent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashfol.linalg import det, kernel_basis, rank
from nashfol.poly import (
    ExactDivisionError,
    MultiPoly,
    divides,
    exact_div,
    parse_poly,
    poly_gcd_univariate,
)

sympy = pytest.importorskip("sympy")
DomainMatrix = pytest.importorskip("sympy.polys.matrices").DomainMatrix

XY = ("x", "y")
T = ("t",)


def _polys(variables, max_exponent, max_size):
    exps = st.tuples(*[st.integers(0, max_exponent) for _ in variables])
    coeffs = st.integers(-4, 4).filter(bool).map(Fraction)
    return st.dictionaries(exps, coeffs, max_size=max_size).map(
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
        assert _sympy_poly(exact_div(p, q)) == quotient
    else:
        with pytest.raises(ExactDivisionError):
            exact_div(p, q)


@settings(max_examples=150, deadline=None)
@given(_polys(T, 3, 3), _polys(T, 3, 3), _polys(T, 3, 3))
def test_univariate_gcd_matches_sympy_up_to_a_rational_factor(g, f1, f2):
    a, b = g * f1, g * f2
    ours = _sympy_poly(poly_gcd_univariate(a, b))
    theirs = sympy.gcd(_sympy_poly(a), _sympy_poly(b))
    if theirs.is_zero:
        assert ours.is_zero
    else:
        assert ours.monic() == theirs.monic()


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
    assert _sympy_poly(p.subst(XY, [fx, fy])) == sympy.Poly(expected, x, y, domain="QQ")


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
