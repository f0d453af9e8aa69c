import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nashfol.linalg as linalg
from nashfol.linalg import (
    SizeError,
    adjugate,
    det,
    eval_matrix,
    frac_kernel,
    frac_rank,
    frac_rref,
    kernel_basis,
    minors,
    poly_mat_mul,
    poly_mat_vec,
    rank,
    solve,
)
from nashfol.nash import limit_subspace
from nashfol.poly import (
    ArityMismatchError,
    MultiPoly,
    RatFunc,
    exact_quotients,
    integer_polys,
    integer_row,
    parse_poly,
    poly_gcd,
)
from oracles import (
    adjugate_by_cofactors,
    frac_det,
    kernel_basis_by_rref,
    ratfunc_solve,
    rref,
    solve_by_cramer,
)

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


def test_independent_rows_skip_rows_dependent_on_those_before():
    # row 1 is x times row 0, and row 3 is row 0 plus row 2
    rows = M([["x", "y", "0"], ["x^2", "x*y", "0"], ["0", "z", "1"], ["x", "y + z", "1"]])
    assert linalg.independent_rows(rows) == [0, 2]
    assert linalg.independent_rows(rows[1:]) == [0, 1]
    assert linalg.independent_rows(M([["0", "0"], ["x", "0"]])) == [1]
    assert linalg.independent_rows([]) == []
    assert linalg.independent_rows([[], []]) == []


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


def test_kernel_of_a_matrix_without_columns_is_empty():
    # a rank-0 bundle's anchor: one row per base variable, no columns
    assert kernel_basis([[], []]) == []
    with pytest.raises(ValueError, match="kernel of an empty matrix"):
        kernel_basis([])


def test_kernel_vectors_are_primitive():
    m = M([["2*x", "2*y", "0"]])
    ker = kernel_basis(m)
    for vec in ker:
        assert all(Fraction(c).denominator == 1 for p in vec for c in p.terms.values())
    assert ker[0] == [parse_poly("-y", XYZ), parse_poly("x", XYZ), MultiPoly.zero(XYZ)]


T = ("t",)
XY = ("x", "y")
# (t+1)(t+2) and (t+1)(t+3) share t + 1: clearing the denominators of the
# rref kernel over Q(t) kept it in every entry; over Q(x, y) the product of
# the distinct denominators keeps x + 1 the same way
SHARED_FACTOR = M([["(t+1)*(t+2)", "0", "-1"], ["0", "(t+1)*(t+3)", "-1"]], T)
SHARED_FACTOR_XY = M([["(x+1)*(x+2)", "0", "-1"], ["0", "(x+1)*(y+3)", "-1"]], XY)


def test_one_variable_kernel_vector_is_primitive():
    assert kernel_basis(SHARED_FACTOR) == [
        [parse_poly(e, T) for e in ("t + 3", "t + 2", "t^3 + 6*t^2 + 11*t + 6")]
    ]


def test_two_variable_kernel_vector_is_primitive():
    assert kernel_basis(SHARED_FACTOR_XY) == [
        [
            parse_poly(e, XY)
            for e in ("y + 3", "x + 2", "x^2*y + 3*x^2 + 3*x*y + 9*x + 2*y + 6")
        ]
    ]


def test_one_variable_kernel_builds_no_ratfunc(monkeypatch):
    built = []
    init = RatFunc.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", spy)
    rank_one = M([["t", "t^2", "0", "1 - t"], ["2*t", "2*t^2", "0", "2 - 2*t"]], T)
    assert len(kernel_basis(rank_one)) == 3
    assert len(kernel_basis(SHARED_FACTOR)) == 1
    assert kernel_basis(M([["0", "0"]], T)) == [M([["1", "0"]], T)[0], M([["0", "1"]], T)[0]]
    assert built == []


def _fraction_polys(variables):
    """Up to three terms of degree at most 2 in each variable, with
    coefficients whose denominators are 2 and 3, so that the kernel scales
    rows to integer coefficients before eliminating."""
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(variables)),
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
        max_size=3,
    ).map(lambda terms: MultiPoly(variables, terms))


@st.composite
def _shared_factor_matrix(draw, variables, factors, max_rows, max_cols):
    """A polynomial matrix whose entries often share a factor, the case
    where the rref kernel was not primitive."""
    nrows, ncols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    shared = parse_poly(draw(st.sampled_from(factors)), variables)
    entry = _fraction_polys(variables)
    return [
        [draw(entry) * (shared if draw(st.booleans()) else 1) for _ in range(ncols)]
        for _ in range(nrows)
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        _shared_factor_matrix(T, ["1", "t + 1", "t^2 - 2"], 4, 6),
        _shared_factor_matrix(XY, ["1", "x + 1", "x*y - 2"], 3, 4),
    )
)
@example(SHARED_FACTOR)
@example(SHARED_FACTOR_XY)
def test_one_variable_kernel_is_the_primitive_rref_kernel(m):
    """The kernel is the rref kernel divided by the gcd of its entries, in
    one variable and in two."""
    got = kernel_basis(m)
    want = kernel_basis_by_rref(m)
    assert len(got) == len(want)
    for vec, old in zip(got, want):
        g = MultiPoly.zero(m[0][0].vars)
        for p in old:
            g = poly_gcd(g, p)
        assert vec == exact_quotients(old, g)
        if g.is_constant():
            assert vec == old
    if got and m[0][0].vars == T:
        assert limit_subspace(got) == limit_subspace(want)


@pytest.mark.parametrize(
    "values, expected",
    [
        ([Fraction(-4), Fraction(6), Fraction(0), Fraction(10)], [-2, 3, 0, 5]),
        ([Fraction(-1, 2), Fraction(1, 3), Fraction(5, 6)], [-3, 2, 5]),
        ([Fraction(2, 3), Fraction(-4, 9)], [3, -2]),
        ([Fraction(0), Fraction(0)], [0, 0]),
        ([], []),
    ],
)
def test_integer_row(values, expected):
    """Denominators cleared by their lcm, then the gcd divided out; the
    sign is kept, and a zero or empty vector stays as it is."""
    assert integer_row(values) == expected


def _is_primitive_multiple(got, values) -> bool:
    """The Fraction oracle of the content normal form: ``got`` holds coprime
    ints, one positive rational times ``values`` (all zeros for a zero
    vector)."""
    if not all(type(c) is int for c in got) or len(got) != len(values):
        return False
    if not any(values):
        return not any(got)
    ratios = {Fraction(c) / v if v else Fraction(0) for c, v in zip(got, values) if c or v}
    return len(ratios) == 1 and ratios.pop() > 0 and math.gcd(*got) == 1


_rational = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=12))


@settings(max_examples=200, deadline=None)
@given(st.lists(_rational, max_size=6))
@example([Fraction(-4), 6, 0, 10])
@example([Fraction(2, 3), Fraction(-4, 9), 5])
def test_integer_row_matches_the_fraction_oracle(values):
    """int and Fraction entries alike reach the primitive integer multiple,
    and the sign of every entry is kept."""
    assert _is_primitive_multiple(integer_row(values), values)
    assert integer_row(iter(values)) == integer_row(values)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.lists(_fraction_polys(T), min_size=1, max_size=5),
        st.lists(_fraction_polys(XY), min_size=1, max_size=4),
    )
)
def test_integer_coefficients_is_a_positive_rational_multiple(row):
    """The row that kernel_basis eliminates, and checks its vectors against,
    is one positive rational times the given row, with coprime int
    coefficients: a wrong scaling of the row would change the kernel that
    is checked."""
    scaled = integer_polys(row)
    assert [p.terms.keys() for p in scaled] == [p.terms.keys() for p in row]
    coeffs = [p.terms[e] for p in row for e in p.terms]
    assert _is_primitive_multiple([q.terms[e] for q in scaled for e in q.terms], coeffs)


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


def test_poly_mat_vec_multiplies_only_nonzero_pairs(monkeypatch):
    """One product per pair of nonzero factors; a zero entry of the matrix or
    of the vector over another variable tuple is still refused."""
    m = M([["x", "0", "y"], ["0", "0", "z"], ["2", "x*y", "0"]])
    v = M([["1", "x", "0"]])[0]
    expected = M([["x", "0", "x^2*y + 2"]])[0]
    products = []
    original = MultiPoly.__mul__

    def spy(a, b):
        products.append((str(a), str(b)))
        return original(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", spy)
    assert poly_mat_vec(m, v) == expected
    assert products == [("x", "1"), ("2", "1"), ("x*y", "x")]
    zero_xy = MultiPoly.zero(("x", "y"))
    with pytest.raises(ArityMismatchError):
        poly_mat_vec([[m[0][0], zero_xy, m[0][2]]], v)
    with pytest.raises(ArityMismatchError):
        poly_mat_vec(m, [v[0], v[1], zero_xy])


def test_minors_size_error():
    anchor = M([["x", "0", "y"], ["-y", "x", "0"]])
    with pytest.raises(SizeError):
        minors(anchor, 3)
    with pytest.raises(SizeError):
        minors(anchor, 0)


@pytest.mark.parametrize("nrows, ncols", [(100, 100), (73, 137)], ids=["at-cap", "over-cap"])
def test_minors_count_cap(nrows, ncols, monkeypatch):
    # C(nrows, 1) * C(ncols, 1) minors: 10 000 is allowed, 10 001 is refused
    # before any determinant is taken
    zero = MultiPoly.zero(XYZ)
    m = [[zero] * ncols for _ in range(nrows)]
    if nrows * ncols <= linalg.MAX_MINORS:
        assert len(minors(m, 1)) == linalg.MAX_MINORS
        return
    monkeypatch.setattr(linalg, "det", lambda m: pytest.fail("a minor was expanded"))
    with pytest.raises(SizeError, match="10001 1x1 minors"):
        minors(m, 1)


# (nrows, ncols, size) that the benchmark workloads reach: kernel bases along
# arcs and the RREF rows of their limits, and anchors' generic-rank minors
# (3x3 at size 2 for a singular locus)
WORKLOAD_SHAPES = [(1, 3, 1), (2, 3, 2), (2, 4, 2), (2, 6, 2), (3, 3, 2), (4, 6, 4), (6, 9, 6)]


@pytest.mark.parametrize("nrows, ncols, size", WORKLOAD_SHAPES)
def test_workload_shapes_take_the_laplace_table(nrows, ncols, size):
    assert linalg._laplace_pays(nrows, ncols, size)


@pytest.mark.parametrize("nrows, ncols, size", [(7, 7, 7), (23, 24, 23)])
def test_near_square_shapes_take_one_det_per_minor(nrows, ncols, size):
    assert not linalg._laplace_pays(nrows, ncols, size)


_xy_poly = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), st.integers(-3, 3), max_size=3
).map(lambda terms: MultiPoly(("x", "y"), terms))


@st.composite
def _matrix_and_size(draw):
    """A sparse polynomial matrix and a minor size, both sides of the shape
    rule: up to 4x6 at any size (the table), or 7x7 at size 7 (the loop)."""
    if draw(st.booleans()):
        nrows, ncols, size = 7, 7, 7
    else:
        nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
        size = draw(st.integers(1, min(nrows, ncols)))
    m = [[draw(_xy_poly) for _ in range(ncols)] for _ in range(nrows)]
    return m, size


@settings(max_examples=100, deadline=None)
@given(_matrix_and_size())
@example((M([["x", "0", "y"], ["-y", "x", "0"], ["0", "y", "x"]], ("x", "y")), 2))
def test_minors_match_one_det_per_minor(case):
    m, size = case
    nrows, ncols = len(m), len(m[0])
    want = [
        det([[m[i][j] for j in cset] for i in rset])
        for rset in combinations(range(nrows), size)
        for cset in combinations(range(ncols), size)
    ]
    assert minors(m, size) == want
    assert linalg._laplace_minors(m, size, MultiPoly.zero(("x", "y"))) == want


def _laplace_caches():
    return linalg._column_subsets, linalg._laplace_faces


@st.composite
def _shape_sequence(draw):
    """Several matrices in a row, of the workload shapes and of small random
    ones, each with int or polynomial entries (mostly zero in the 6x9 one,
    so that its polynomial determinants stay cheap)."""
    cases = []
    for _ in range(draw(st.integers(2, 5))):
        if draw(st.booleans()):
            nrows, ncols, size = draw(st.sampled_from(WORKLOAD_SHAPES))
        else:
            nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
            size = draw(st.integers(1, min(nrows, ncols)))
        if draw(st.booleans()):
            entry = st.integers(-3, 3)
        elif ncols > 6:
            entry = st.one_of(st.just(MultiPoly.zero(("x", "y"))), _xy_poly)
        else:
            entry = _xy_poly
        cases.append(([[draw(entry) for _ in range(ncols)] for _ in range(nrows)], size))
    return cases


@settings(max_examples=60, deadline=None)
@given(_shape_sequence())
def test_laplace_minors_across_interleaved_shapes(cases):
    """The index built for one shape is never read for another: each call,
    whatever shapes the calls before it built, gives one det per minor."""
    for m, size in cases:
        nrows, ncols = len(m), len(m[0])
        subs = [
            [[m[i][j] for j in cset] for i in rset]
            for rset in combinations(range(nrows), size)
            for cset in combinations(range(ncols), size)
        ]
        if isinstance(m[0][0], int):
            want = [frac_det(sub) for sub in subs]
            zero = 0
        else:
            want = [det(sub) for sub in subs]
            zero = MultiPoly.zero(("x", "y"))
        assert linalg._laplace_minors(m, size, zero) == want


def test_laplace_index_cache_is_bounded():
    for cache in _laplace_caches():
        assert cache.cache_info().maxsize == linalg.LAPLACE_SHAPES
    linalg._column_subsets.cache_clear()
    for ncols in range(linalg.LAPLACE_SHAPES + 5):
        linalg._column_subsets(ncols, 1)
    assert linalg._column_subsets.cache_info().currsize == linalg.LAPLACE_SHAPES


def test_refused_shapes_add_no_cache_entry():
    """A shape refused by MAX_MINORS or by `_laplace_pays` builds no index,
    so inputs of any size leave the caches as they were.  Only `minors`
    refuses shapes: every Pluecker vector fits the table."""
    for cache in _laplace_caches():
        cache.cache_clear()
    zero = MultiPoly.zero(XYZ)
    with pytest.raises(SizeError):
        minors([[zero] * 150 for _ in range(2)], 2)
    assert not linalg._laplace_pays(7, 7, 7)
    assert minors([[zero] * 7 for _ in range(7)], 7) == [zero]
    for cache in _laplace_caches():
        assert cache.cache_info().currsize == 0


def test_laplace_index_is_not_built_at_import():
    child = (
        "import nashfol.cli, nashfol.linalg as linalg\n"
        "print(linalg._column_subsets.cache_info().currsize,"
        " linalg._laplace_faces.cache_info().currsize)\n"
    )
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "0 0\n"


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
            assert det(as_polys) == MultiPoly.constant(XYZ, frac_det(as_fracs))


def test_frac_rref_is_canonical():
    rows1 = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(0), Fraction(1), Fraction(1)]]
    rows2 = [[Fraction(2), Fraction(5), Fraction(7)], [Fraction(1), Fraction(3), Fraction(4)]]
    assert frac_rref(rows1) == frac_rref(rows2)


def test_frac_kernel():
    ker = frac_kernel([[Fraction(1), Fraction(2), Fraction(3)]], 3)
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
    assert adjugate(single)[0][0] == MultiPoly.constant(XYZ, 1)


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


def _small_polys(variables):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 1)] * len(variables)), st.integers(-3, 3), max_size=2
    ).map(lambda terms: MultiPoly(variables, terms))


@st.composite
def _square_system(draw):
    """A square polynomial matrix of size 1-4 in one or two variables, and a
    right-hand side.  Half the matrices are made singular: one row becomes a
    polynomial multiple of another, or zero."""
    entry = _small_polys(draw(st.sampled_from([("x",), ("x", "y")])))
    n = draw(st.integers(1, 4))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        factor = draw(entry) if i != j else MultiPoly.zero(m[0][0].vars)
        m[i] = [factor * p for p in m[j]]
    return m, [draw(entry) for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(_square_system())
def test_adjugate_matches_one_det_per_cofactor(case):
    m, _ = case
    assert adjugate(m) == adjugate_by_cofactors(m)


@settings(max_examples=100, deadline=None)
@given(_square_system())
def test_solve_matches_one_det_per_column(case):
    m, b = case
    if det(m).is_zero():
        for solver in (solve, solve_by_cramer):
            with pytest.raises(ValueError, match="^coefficient matrix is singular over"):
                solver(m, b)
    else:
        assert solve(m, b) == solve_by_cramer(m, b)


@pytest.mark.parametrize(
    "m, text",
    [
        ([], "determinant of an empty matrix"),
        (M([["x", "y"]]), "determinant needs a square matrix"),
        (M([["x"], ["y"]]), "determinant needs a square matrix"),
    ],
)
def test_solve_and_adjugate_refuse_empty_and_non_square_input(m, text):
    b = [parse_poly("x", XYZ)] * len(m)
    for solver in (solve, solve_by_cramer):
        with pytest.raises(ValueError, match=f"^{text}$"):
            solver(m, b)
    with pytest.raises(ValueError, match=f"^{text}$"):
        adjugate(m)
