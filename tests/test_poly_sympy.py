"""Polynomial division and univariate gcd against sympy, on generated inputs.

sympy is a test-time oracle only; the module is skipped when it is absent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashfol.poly import ExactDivisionError, MultiPoly, divides, exact_div, poly_gcd_univariate

sympy = pytest.importorskip("sympy")

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
