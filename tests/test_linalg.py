from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashfol.linalg import (
    RowEchelon,
    SizeError,
    adjugate,
    det,
    eval_matrix,
    frac_det,
    frac_kernel,
    frac_rank,
    frac_rref,
    kernel_basis,
    minors,
    poly_mat_mul,
    poly_mat_vec,
    rank,
    ratfunc_solve,
    rref,
    solve,
)
from nashfol.poly import MultiPoly, parse_poly

XYZ = ("x", "y", "z")
X12 = ("x1", "x2")


def M(rows, variables=XYZ):
    return [[parse_poly(e, variables) for e in row] for row in rows]


def test_det_small():
    assert det(M([["x", "y"], ["y", "x"]])) == parse_poly("x^2 - y^2", XYZ)
    d = det(M([["1", "2", "3"], ["4", "5", "6"], ["7", "8", "10"]]))
    assert d == parse_poly("-3", XYZ)
    assert det(M([["x", "y"], ["2*x", "2*y"]])).is_zero()


def test_rank_generic_vs_pointwise():
    anchor = M([["x", "0", "y"], ["-y", "x", "0"]])
    assert rank(anchor) == 2
    at_origin = eval_matrix(anchor, [0, 0, 0])
    assert frac_rank(at_origin) == 0
    assert frac_rank(eval_matrix(anchor, [1, 0, 0])) == 2


def test_minors_of_plane_anchor():
    # frozen: the three 2x2 minors of [[x,0,y],[-y,x,0]] in column-pair order
    anchor = M([["x", "0", "y"], ["-y", "x", "0"]])
    got = minors(anchor, 2)
    assert got == [
        parse_poly("x^2", XYZ),
        parse_poly("y^2", XYZ),
        parse_poly("-x*y", XYZ),
    ]


def test_kernel_of_rotation_generator_matrix():
    # frozen oracle: the radial-times-sign line, primitive with positive free slot
    rot = M([["0", "z", "y"], ["z", "0", "-x"], ["-y", "-x", "0"]])
    assert kernel_basis(rot) == [
        [parse_poly("x", XYZ), parse_poly("-y", XYZ), parse_poly("z", XYZ)]
    ]


def test_kernel_of_scaling_anchor():
    anchor = M([["x1", "0", "x2", "0"], ["0", "x1", "0", "x2"]], X12)
    ker = kernel_basis(anchor)
    assert ker == [
        [parse_poly(e, X12) for e in ("-x2", "0", "x1", "0")],
        [parse_poly(e, X12) for e in ("0", "-x2", "0", "x1")],
    ]
    # membership check: anchor annihilates each kernel vector
    for vec in ker:
        assert all(p.is_zero() for p in poly_mat_vec(anchor, vec))


def test_kernel_vectors_are_primitive():
    m = M([["2*x", "2*y", "0"]])
    ker = kernel_basis(m)
    for vec in ker:
        assert all(p.content().denominator == 1 for p in vec if not p.is_zero())
    assert ker[0] == [parse_poly("-y", XYZ), parse_poly("x", XYZ), MultiPoly.zero(XYZ)]


def test_solve_cramer():
    a = M([["x", "0"], ["0", "y"]])
    b = [parse_poly("x^2", XYZ), parse_poly("x*y", XYZ)]
    sol = solve(a, b)
    assert sol[0].as_poly() == parse_poly("x", XYZ)
    assert sol[1].as_poly() == parse_poly("x", XYZ)
    with pytest.raises(ValueError):
        solve(M([["x", "y"], ["x", "y"]]), b)


def test_poly_mat_mul():
    a = M([["x", "y"], ["0", "z"]])
    b = M([["1", "0"], ["x", "1"]])
    assert poly_mat_mul(a, b) == M([["x + x*y", "y"], ["x*z", "z"]])


def test_minors_size_error():
    anchor = M([["x", "0", "y"], ["-y", "x", "0"]])
    with pytest.raises(SizeError):
        minors(anchor, 3)
    with pytest.raises(SizeError):
        minors(anchor, 0)


def test_rref_rank_triple():
    rows, pivots = rref(M([["x", "y"], ["2*x", "2*y"]]))
    r = len(pivots)
    assert r == 1
    assert pivots == [0]
    assert rows[0][1] == rows[0][1]  # well-formed RatFunc row
    _, pivots = rref(M([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    r = len(pivots)
    assert (pivots, r) == ([0, 1, 2], 3)


def test_rank_matches_fraction_gaussian_on_constant_matrices():
    import random

    rng = random.Random(1138)
    for _ in range(25):
        nrows = rng.randrange(1, 5)
        ncols = rng.randrange(1, 5)
        entries = [[rng.randrange(-3, 4) for _ in range(ncols)] for _ in range(nrows)]
        as_polys = M([[str(e) for e in row] for row in entries])
        as_fracs = [[Fraction(e) for e in row] for row in entries]
        assert rank(as_polys) == frac_rank(as_fracs)
        if nrows == ncols:
            assert det(as_polys).constant_value() == frac_det(as_fracs)


def test_frac_rref_is_canonical():
    rows1 = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(0), Fraction(1), Fraction(1)]]
    rows2 = [[Fraction(2), Fraction(5), Fraction(7)], [Fraction(1), Fraction(3), Fraction(4)]]
    assert frac_rref(rows1) == frac_rref(rows2)


def test_frac_kernel():
    ker = frac_kernel([[Fraction(1), Fraction(2), Fraction(3)]])
    assert ker == [
        [Fraction(-2), Fraction(1), Fraction(0)],
        [Fraction(-3), Fraction(0), Fraction(1)],
    ]


def test_adjugate_identity():
    m = M([["x", "y", "1"], ["0", "z", "x"], ["1", "0", "y"]])
    adj = adjugate(m)
    d = det(m)
    prod = poly_mat_mul(m, adj)
    for i in range(3):
        for j in range(3):
            expected = d if i == j else MultiPoly.zero(XYZ)
            assert prod[i][j] == expected
    single = M([["x*y"]])
    assert adjugate(single)[0][0].constant_value() == 1


def test_ratfunc_solve():
    cols = [
        [parse_poly("x1", X12), parse_poly("0", X12)],
        [parse_poly("0", X12), parse_poly("x1", X12)],
    ]
    target = [parse_poly("x2", X12), parse_poly("x1^2", X12)]
    coeffs = ratfunc_solve(cols, target)
    assert [str(c) for c in coeffs] == ["(x2) / (x1)", "x1"]
    outside = ratfunc_solve([cols[0]], target)
    assert outside is None


UV = ("u", "v")


def _in_span_by_stacked_rank(columns, v):
    """Oracle: v is in the column span iff appending it keeps the rank."""
    n = len(v)
    matrix = [[col[i] for col in columns] for i in range(n)]
    return rank([row + [v[i]] for i, row in enumerate(matrix)]) == rank(matrix)


_uv_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).map(Fraction),
    max_size=3,
).map(lambda terms: MultiPoly(UV, terms))


@st.composite
def _frame_and_vector(draw):
    """Small frames over Q[u,v] with dependent and zero columns, plus a vector
    drawn inside their span or (usually) outside it."""
    n = draw(st.integers(1, 4))
    vec = st.lists(_uv_poly, min_size=n, max_size=n)
    columns = draw(st.lists(vec, min_size=1, max_size=3))
    zero = [MultiPoly.zero(UV)] * n
    for kind in draw(st.lists(st.sampled_from(["zero", "dependent"]), max_size=2)):
        if kind == "zero":
            columns.append(list(zero))
        else:
            a, b = draw(_uv_poly), draw(_uv_poly)
            columns.append([a * x + b * y for x, y in zip(columns[0], columns[-1])])
    if draw(st.booleans()):
        coeffs = [draw(_uv_poly) for _ in columns]
        v = list(zero)
        for c, col in zip(coeffs, columns):
            v = [acc + c * x for acc, x in zip(v, col)]
        return columns, v, True
    return columns, draw(vec), False


@settings(max_examples=150, deadline=None)
@given(_frame_and_vector())
def test_row_echelon_contains_matches_stacked_rank(case):
    columns, v, inside = case
    got = RowEchelon(columns).contains(v)
    assert got == _in_span_by_stacked_rank(columns, v)
    if inside:
        assert got


def test_row_echelon_reduces_against_skipped_columns():
    # the first column has no pivot, so the bracket row would take it
    span = RowEchelon([[parse_poly(e, UV) for e in ("0", "u", "v")]])
    assert span.contains([parse_poly(e, UV) for e in ("0", "u*v", "v^2")])
    assert not span.contains([parse_poly(e, UV) for e in ("1", "u*v", "v^2")])
    assert not span.contains([parse_poly(e, UV) for e in ("0", "u", "u")])
    with pytest.raises(ValueError):
        span.contains([parse_poly("u", UV)])
