"""Fast paths against the slow code they replaced (kept in oracles.py), on
generated inputs."""

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nashfol.algebroid as algebroid_module
import nashfol.nash as nash_module
from nashfol.algebroid import (
    AnchoredBundle,
    IsotropyAlgebra,
    _quotient_basis,
    anchor_rank_generic,
    anchor_row_basis,
)
from nashfol.charts import ChartPullback, debord_generators
from nashfol.grassmann import Subspace, unpluecker
from nashfol.linalg import rank
from nashfol.nash import (
    CurveGerm,
    CurveInSingularLocusError,
    default_arcs,
    kernel_curve,
    limit_along,
    limit_subspace,
    nash_fiber_sample,
)
from nashfol.poly import MultiPoly, parse_poly
from models import corpus_names, identity_chart, load_corpus_scenario, reparametrize
from oracles import (
    frac_solve,
    greedy_representatives,
    kernel_curve_by_rank,
    rational_default_arcs,
    relations_by_solve,
    span_limit_by_minors,
)

_ENTRY = st.integers(-3, 3)


def _vectors(n, max_size):
    return st.lists(st.lists(_ENTRY, min_size=n, max_size=n), max_size=max_size)


def _combination(coeffs, rows):
    n = len(rows[0])
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]


@st.composite
def _nested_subspaces(draw):
    """A kernel K in Q^n and a strong kernel S inside it, spanned by integer
    combinations of K's rows."""
    n = draw(st.integers(1, 5))
    ker = Subspace(n, draw(_vectors(n, n)))
    combos = draw(_vectors(ker.dim, ker.dim)) if ker.dim else []
    return Subspace(n, [_combination(c, ker.rows) for c in combos]), ker


@settings(max_examples=200, deadline=None)
@given(_nested_subspaces())
def test_quotient_representatives_match_greedy_rank_loop(spaces):
    sker, ker = spaces
    reps, _ = _quotient_basis(sker, ker)
    assert list(reps) == greedy_representatives(sker.rows, ker.rows)
    assert len(reps) == ker.dim - sker.dim


@settings(max_examples=200, deadline=None)
@given(_nested_subspaces(), st.data())
def test_quotient_coordinates_match_per_target_solve(spaces, data):
    sker, ker = spaces
    reps, row_coordinates = _quotient_basis(sker, ker)
    iso = IsotropyAlgebra(len(reps), reps, {}, ker, sker, row_coordinates)
    targets = data.draw(_vectors(ker.n, 4))  # mostly outside the kernel
    if ker.dim:
        combos = data.draw(_vectors(ker.dim, 4))
        targets += [_combination(c, ker.rows) for c in combos]
    columns = [list(r) for r in sker.rows] + [list(r) for r in reps]
    for target in targets:
        expected = frac_solve(columns, target)
        if expected is not None:
            expected = tuple(expected[sker.dim :])
        assert iso.coordinates(target) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: _vectors(n, n).map(lambda rows: (n, rows))))
def test_round_trip_keeps_a_correct_pluecker_vector(case):
    n, rows = case
    pv = Subspace(n, rows).pluecker()
    assert unpluecker(pv).pluecker() == pv


_XY = ("x", "y")
_LINEAR = st.tuples(_ENTRY, _ENTRY, _ENTRY).map(
    lambda c: MultiPoly(_XY, dict(zip([(0, 0), (1, 0), (0, 1)], map(Fraction, c))))
)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(_LINEAR, min_size=n, max_size=n), min_size=2, max_size=2)
    ),
    st.tuples(_ENTRY, _ENTRY).filter(any),
)
def test_limit_along_returns_a_correct_pluecker_vector(anchor, direction):
    bundle = AnchoredBundle(_XY, anchor)
    ray = CurveGerm.polynomial([Fraction(0)] * 2, [Fraction(v) for v in direction])
    try:
        pv = limit_along(bundle, ray)
    except CurveInSingularLocusError:
        return
    assert pv.k == bundle.fiber_rank - anchor_rank_generic(bundle)
    assert unpluecker(pv).pluecker() == pv


_UNIT = st.integers(-1, 1)
# a*x + b*y: every anchor vanishes at the origin, so arcs that stay there or
# run along an axis often keep the rank below the generic one
_HOMOGENEOUS = st.tuples(_UNIT, _UNIT).map(
    lambda c: MultiPoly(_XY, dict(zip([(1, 0), (0, 1)], map(Fraction, c))))
)


@st.composite
def _two_row_anchors(draw):
    """Anchors over (x, y) with 1-3 columns: fresh columns are mostly
    independent, a multiple of the first column makes the anchor
    rank-deficient, and three columns always are."""
    first = [draw(_HOMOGENEOUS), draw(_HOMOGENEOUS)]
    columns = [first]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            factor = draw(_LINEAR)
            columns.append([factor * p for p in first])
        else:
            columns.append([draw(_HOMOGENEOUS), draw(_HOMOGENEOUS)])
    return AnchoredBundle(_XY, [[col[i] for col in columns] for i in range(2)])


def _kernel_curve_verdicts(bundle, ray):
    """kernel_curve and its two-elimination oracle on one arc: the same
    basis, or both find the arc in the singular locus."""
    outcomes = []
    for method in (kernel_curve, kernel_curve_by_rank):
        try:
            outcomes.append(method(bundle, ray))
        except CurveInSingularLocusError:
            outcomes.append("singular")
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


# Rays through small points with directions of denominator 1, 2 or 3, as the
# default arcs have; a zero direction is a constant arc and a zero component
# keeps the arc inside a coordinate hyperplane.
_SLOPE = st.builds(Fraction, _UNIT, st.sampled_from([1, 2, 3]))
_RAYS = st.tuples(st.tuples(st.integers(0, 1), _UNIT), st.tuples(_SLOPE, _SLOPE)).map(
    lambda pd: CurveGerm.polynomial([Fraction(c) for c in pd[0]], list(pd[1]))
)


@settings(max_examples=150, deadline=None)
@given(_two_row_anchors(), _RAYS)
def test_kernel_curve_matches_the_rank_then_kernel_oracle(bundle, ray):
    _kernel_curve_verdicts(bundle, ray)


def test_kernel_curve_finds_singular_arcs_on_both_branches():
    x, y = (MultiPoly.variable(_XY, v) for v in _XY)
    zero = MultiPoly.zero(_XY)
    full_rank = AnchoredBundle(_XY, [[x, zero], [zero, y]])
    deficient = AnchoredBundle(_XY, [[x, x * y], [x, x * y]])
    inside_x_axis = CurveGerm.polynomial([Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)])
    constant = CurveGerm.polynomial([Fraction(0), Fraction(2)], [Fraction(0), Fraction(0)])
    regular = CurveGerm.polynomial([Fraction(0), Fraction(0)], [Fraction(1), Fraction(1)])
    assert _kernel_curve_verdicts(full_rank, inside_x_axis) == "singular"
    assert _kernel_curve_verdicts(deficient, constant) == "singular"
    assert _kernel_curve_verdicts(full_rank, regular) == []
    assert len(_kernel_curve_verdicts(deficient, regular)) == 1


@st.composite
def _full_row_rank_anchors(draw):
    """Anchors over (x, y) with two rows, 2-4 columns and generic rank 2;
    homogeneous entries vanish at the origin, so arcs through it are often
    singular."""
    entries = st.one_of(_HOMOGENEOUS, _LINEAR)
    rows = [[draw(entries) for _ in range(draw(st.integers(2, 4)))]]
    rows.append([draw(entries) for _ in rows[0]])
    bundle = AnchoredBundle(_XY, rows)
    assume(anchor_rank_generic(bundle) == 2)
    return bundle


_QUADRATICS = st.tuples(
    st.tuples(st.integers(0, 1), _UNIT), st.tuples(_SLOPE, _SLOPE), st.tuples(_SLOPE, _SLOPE)
).map(lambda pd: CurveGerm.polynomial([Fraction(c) for c in pd[0]], list(pd[1]), list(pd[2])))


_XYZ = ("x", "y", "z")
_SMALL = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    _ENTRY.filter(bool).map(Fraction),
    max_size=3,
).map(lambda terms: MultiPoly(_XYZ, terms))


def _row_space_verdicts(bundle, arc):
    """limit_along, which limits the span of the anchor's pivot rows, and the
    kernel's own limit by its polynomial minors (`span_limit_by_minors`):
    the same Pluecker vector of a subspace, or both find the arc in the
    singular locus."""
    try:
        limit = limit_along(bundle, arc)
    except CurveInSingularLocusError:
        limit = "singular"
    try:
        basis = kernel_curve(bundle, arc)
        want = span_limit_by_minors(basis) if basis else Subspace(bundle.fiber_rank, []).pluecker()
    except CurveInSingularLocusError:
        want = "singular"
    assert limit == want
    if want != "singular":
        assert unpluecker(limit).pluecker() == limit
    return limit


_X, _Y = (MultiPoly.variable(_XY, v) for v in _XY)
_ZERO = MultiPoly.zero(_XY)
# rank 1 on the y-axis, rank 0 at the origin
_Y_AXIS_DROP = AnchoredBundle(_XY, [[_X, _ZERO, _Y], [_ZERO, _X, _ZERO]])
_ON_Y_AXIS = CurveGerm.polynomial([Fraction(0)] * 2, [0, 1], [0, Fraction(-1, 2)])


@settings(max_examples=150, deadline=None)
@given(_full_row_rank_anchors(), st.one_of(_RAYS, _QUADRATICS))
@example(_Y_AXIS_DROP, _ON_Y_AXIS)
def test_row_space_limit_matches_the_kernel_limit(bundle, arc):
    _row_space_verdicts(bundle, arc)


def test_row_space_limit_finds_singular_arcs():
    constant = CurveGerm.polynomial([Fraction(0)] * 2, [0, 0])
    crossing = CurveGerm.polynomial([Fraction(0)] * 2, [1, 0], [0, 1])
    assert _row_space_verdicts(_Y_AXIS_DROP, _ON_Y_AXIS) == "singular"
    assert _row_space_verdicts(_Y_AXIS_DROP, constant) == "singular"
    assert _row_space_verdicts(_Y_AXIS_DROP, crossing).k == 1


_ZERO_XYZ = MultiPoly.zero(_XYZ)
_HOMOGENEOUS_XYZ = st.tuples(_UNIT, _UNIT, _UNIT).map(
    lambda c: MultiPoly(_XYZ, dict(zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], map(Fraction, c))))
)


@st.composite
def _dependent_row_anchors(draw):
    """Anchors over (x, y, z) with three rows, 1-4 columns and generic rank
    below three: past the first, each row is fresh, a repeat of an earlier
    row or a Q[x, y, z]-combination of the earlier rows, and at least one is
    not fresh.  The rows are then shuffled, so a skipped row may come before
    a kept one.  Homogeneous entries vanish at the origin, so arcs through
    it, and arcs inside a coordinate plane, often leave the pivot rows
    dependent."""
    n = draw(st.integers(1, 4))
    rows = [[draw(_HOMOGENEOUS_XYZ) for _ in range(n)]]
    kinds = draw(
        st.lists(st.sampled_from(["fresh", "repeat", "combination"]), min_size=2, max_size=2)
    )
    assume(kinds != ["fresh", "fresh"])
    for kind in kinds:
        if kind == "fresh":
            rows.append([draw(_HOMOGENEOUS_XYZ) for _ in range(n)])
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            factors = [draw(_SMALL) for _ in rows]
            rows.append(
                [sum((f * row[j] for f, row in zip(factors, rows)), _ZERO_XYZ) for j in range(n)]
            )
    return AnchoredBundle(_XYZ, draw(st.permutations(rows)))


_STEP = st.tuples(_SLOPE, _SLOPE, _SLOPE)
# rays and quadratics through the origin, where every homogeneous anchor
# vanishes, or other small points of Q^3; a zero slope keeps the arc inside a
# coordinate plane
_ARCS_XYZ = st.tuples(
    st.one_of(st.just((0, 0, 0)), st.tuples(_UNIT, _UNIT, _UNIT)),
    _STEP,
    st.one_of(st.none(), _STEP),
).map(
    lambda pdq: CurveGerm.polynomial(
        [Fraction(c) for c in pdq[0]], *[list(v) for v in pdq[1:] if v is not None]
    )
)
# generic rank 1 < d = 2: the pivot row [x, 0] vanishes along the y-axis, the
# fallback runs, and the kernel there is the line through (0, 1)
_X_THEN_Y = AnchoredBundle(_XY, [[_X, _ZERO], [_Y, _ZERO]])
_ALONG_Y = CurveGerm.polynomial([Fraction(0)] * 2, [0, 1])
_ALONG_X = CurveGerm.polynomial([Fraction(0)] * 2, [1, 0])
_NO_ANCHOR = AnchoredBundle(_XY, [[_ZERO, _ZERO], [_ZERO, _ZERO]])
_ONE_COLUMN = AnchoredBundle(_XY, [[_X], [_Y]])
_CONSTANT = CurveGerm.polynomial([Fraction(0)] * 2, [0, 0])


@settings(max_examples=100, deadline=None)
@given(st.one_of(_dependent_row_anchors(), _full_row_rank_anchors()))
def test_pivot_rows_are_the_first_rows_independent_of_those_before(bundle):
    eliminations = []
    independent_rows = algebroid_module.independent_rows

    def counting(m):
        eliminations.append(m)
        return independent_rows(m)

    with mock.patch.object(algebroid_module, "independent_rows", counting):
        kept = anchor_row_basis(bundle)
        assert anchor_row_basis(bundle) is kept
    assert len(eliminations) == 1
    rows = bundle.anchor
    assert rank([rows[i] for i in kept]) == len(kept) == anchor_rank_generic(bundle)
    for i in sorted(set(range(len(rows))) - set(kept)):
        assert rank(rows[: i + 1]) == rank(rows[:i])


@settings(max_examples=200, deadline=None)
@given(_dependent_row_anchors(), _ARCS_XYZ)
@example(_X_THEN_Y, _ALONG_Y)
@example(_NO_ANCHOR, _ALONG_X)
@example(_ONE_COLUMN, _ALONG_X)
@example(_ONE_COLUMN, _ALONG_Y)
@example(_X_THEN_Y, _CONSTANT)
def test_pivot_row_limit_matches_the_kernel_limit_on_dependent_rows(bundle, arc):
    _row_space_verdicts(bundle, arc)


def test_pivot_row_limits_on_dependent_rows(monkeypatch):
    fallbacks = []
    kernel_curve = nash_module.kernel_curve
    monkeypatch.setattr(
        nash_module, "kernel_curve", lambda *args: fallbacks.append(args) or kernel_curve(*args)
    )
    assert anchor_row_basis(_X_THEN_Y) == (0,)
    assert _row_space_verdicts(_X_THEN_Y, _ALONG_X) == Subspace(2, [[0, 1]]).pluecker()
    assert fallbacks == []
    assert _row_space_verdicts(_X_THEN_Y, _ALONG_Y) == Subspace(2, [[0, 1]]).pluecker()
    assert fallbacks == [(_X_THEN_Y, _ALONG_Y)]
    assert anchor_row_basis(_NO_ANCHOR) == ()
    assert _row_space_verdicts(_NO_ANCHOR, _ALONG_X) == Subspace(2, [[1, 0], [0, 1]]).pluecker()
    for axis in (_ALONG_X, _ALONG_Y):
        assert _row_space_verdicts(_ONE_COLUMN, axis) == Subspace(1, []).pluecker()
    assert _row_space_verdicts(_X_THEN_Y, _CONSTANT) == "singular"


_DEGREES = st.sampled_from([e for e in product(range(3), repeat=3) if 1 <= sum(e) <= 2])
# zero, or one monomial of degree 1 or 2: sparse rows of mixed order, whose
# lowest-order terms along a ray through the origin often drop rank
_MONOMIAL = st.builds(
    lambda c, e: MultiPoly(_XYZ, {e: Fraction(c)} if c else {}), _ENTRY, _DEGREES
)


@st.composite
def _mixed_order_anchors(draw):
    """Anchors over (x, y, z) with three columns and three rows: two of
    sparse mixed-order entries, and a third that is fresh too or a
    Q[x, y, z]-combination of the first two, in any order."""
    rows = [[draw(_MONOMIAL) for _ in range(3)] for _ in range(2)]
    if draw(st.booleans()):
        rows.append([draw(_MONOMIAL) for _ in range(3)])
    else:
        factors = [draw(_SMALL) for _ in rows]
        rows.append([factors[0] * a + factors[1] * b for a, b in zip(*rows)])
    return AnchoredBundle(_XYZ, draw(st.permutations(rows)))


# the origin, or rational points with non-integer coordinates, at which the
# rows' lowest-order terms are rationals
_COORD = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3)])
_ARCS_Q3 = st.tuples(
    st.one_of(st.just((0, 0, 0)), st.tuples(_COORD, _COORD, _COORD)),
    _STEP,
    st.one_of(st.none(), _STEP),
).map(
    lambda pdq: CurveGerm.polynomial(
        [Fraction(c) for c in pdq[0]], *[list(v) for v in pdq[1:] if v is not None]
    )
)


def _lowest_order_rank(bundle, arc):
    """The rank of the substituted pivot rows' lowest-order terms, each row
    read at its own lowest power of t; None when a row vanishes."""
    lowest = []
    for i in anchor_row_basis(bundle):
        row = [p.subst(("t",), list(arc.components)) for p in bundle.anchor[i]]
        powers = [e for p in row for (e,) in p.terms]
        if not powers:
            return None
        lowest.append([p.terms.get((min(powers),), 0) for p in row])
    return Subspace(bundle.fiber_rank, lowest).dim


_X3, _Y3, _Z3 = (MultiPoly.variable(_XYZ, v) for v in _XYZ)
_RAY_123 = CurveGerm.polynomial([Fraction(0)] * 3, [1, 2, 3])
# along (t, t, t) the rows are t^2 (1, 0, 0) and t (1, 1, 0) + t^2 (0, 0, 1):
# their own lowest orders 2 and 1 give the limit span(e0, e1), one common
# order 2 would read span(e0, e2)
_MIXED_ORDERS = AnchoredBundle(
    _XYZ, [[_X3 * _X3, _ZERO_XYZ, _ZERO_XYZ], [_X3, _Y3, _Z3 * _Z3], [_ZERO_XYZ] * 3]
)
_ALONG_DIAGONAL = CurveGerm.polynomial([Fraction(0)] * 3, [1, 1, 1])
# duval2's sharp map: along (a, b, c) t its pivot rows (0, -c^2 t^2, -a t)
# and (c^2 t^2, 0, b t) stay independent while their lowest-order terms
# (0, 0, -a) and (0, 0, b) do not
_DUVAL2 = AnchoredBundle(
    _XYZ, [[_ZERO_XYZ, -_Z3 * _Z3, -_X3], [_Z3 * _Z3, _ZERO_XYZ, _Y3], [_X3, -_Y3, _ZERO_XYZ]]
)
# generic rank 2 with pivot rows 0 and 2; along (0, t, t) row 0 vanishes and
# the kernel is the line through e1
_VANISHING_ROW = AnchoredBundle(
    _XYZ, [[_X3, _ZERO_XYZ, _ZERO_XYZ], [_Y3, _ZERO_XYZ, _ZERO_XYZ], [_ZERO_XYZ, _ZERO_XYZ, _Z3]]
)
_ALONG_YZ = CurveGerm.polynomial([Fraction(0)] * 3, [0, 1, 1])
# at (1/2, -1/3, 0) the rows' lowest-order terms are rational
_RATIONAL_RAY = CurveGerm.polynomial([Fraction(1, 2), Fraction(-1, 3), Fraction(0)], [0, 0, 1])


@contextmanager
def _limit_paths():
    """The names of the steps off the leading path that limit_along takes,
    the polynomial minors (`minors`) and the kernel (`kernel_curve`),
    recorded in order while the block runs."""
    calls = []

    def spy(name):
        original = getattr(nash_module, name)
        return lambda *args: calls.append(name) or original(*args)

    names = ("minors", "kernel_curve")
    with mock.patch.multiple(nash_module, **{name: spy(name) for name in names}):
        yield calls


@settings(max_examples=200, deadline=None)
@given(_mixed_order_anchors(), _ARCS_Q3)
@example(_MIXED_ORDERS, _ALONG_DIAGONAL)
@example(_DUVAL2, _RAY_123)
@example(_VANISHING_ROW, _ALONG_YZ)
@example(_MIXED_ORDERS, _RATIONAL_RAY)
def test_lowest_order_limit_matches_the_kernel_limit(bundle, arc):
    """limit_along against the kernel's limit; it takes the polynomial
    minors only where the rows' lowest-order terms drop rank, and the
    kernel only where a row vanishes or the polynomial minors all do."""
    with _limit_paths() as calls:
        _row_space_verdicts(bundle, arc)
    order_rank = _lowest_order_rank(bundle, arc)
    if order_rank is None:
        assert calls[:1] == ["kernel_curve"]
    elif order_rank == len(anchor_row_basis(bundle)):
        assert calls == []
    else:
        assert calls[:1] == ["minors"]


def test_lowest_order_limits_of_the_pinned_arcs():
    with _limit_paths() as calls:
        limit = _row_space_verdicts(_MIXED_ORDERS, _ALONG_DIAGONAL)
        assert limit == Subspace(3, [[0, 0, 1]]).pluecker()
        assert calls == []
        assert _row_space_verdicts(_DUVAL2, _RAY_123) == Subspace(3, [[2, 1, 0]]).pluecker()
        assert calls == ["minors"]
        calls.clear()
        limit = _row_space_verdicts(_VANISHING_ROW, _ALONG_YZ)
        assert limit == Subspace(3, [[0, 1, 0]]).pluecker()
        assert calls == ["kernel_curve"]
        calls.clear()
        assert _row_space_verdicts(_MIXED_ORDERS, _RATIONAL_RAY).k == 1
        assert calls == []


_T = ("t",)
_RATIONAL = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]).map(Fraction)
_POLY_T = st.dictionaries(st.integers(0, 2).map(lambda e: (e,)), _RATIONAL, max_size=2).map(
    lambda terms: MultiPoly(_T, terms)
)


def _t_rows(*rows):
    return [[parse_poly(p, _T) for p in row] for row in rows]


@st.composite
def _rows_over_t(draw):
    """k rows of n entries over Q[t], k <= n + 1, each multiplied by its
    own power of t, so the rows' valuations differ, and shuffled.  Past the
    first, a row is fresh; c r + t f for an earlier row r, a constant c and
    a fresh f, whose lowest-order terms are often c times r's while the
    rows stay independent; a Q[t]-combination of the rows before it; or
    zero."""
    n = draw(st.integers(1, 4))
    t = MultiPoly.variable(_T, "t")
    kinds = ["fresh", "perturbed", "perturbed", "combination", "zero"]
    rows = []
    for _ in range(draw(st.integers(1, min(n + 1, 3)))):
        kind = draw(st.sampled_from(kinds)) if rows else "fresh"
        fresh = [draw(_POLY_T) for _ in range(n)]
        if kind == "fresh":
            rows.append(fresh)
        elif kind == "perturbed":
            c = MultiPoly.constant(_T, draw(_RATIONAL))
            rows.append([c * p + t * f for p, f in zip(draw(st.sampled_from(rows)), fresh)])
        elif kind == "combination":
            factors = [draw(_POLY_T) for _ in rows]
            zero = MultiPoly.zero(_T)
            rows.append(
                [sum((f * row[j] for f, row in zip(factors, rows)), zero) for j in range(n)]
            )
        else:
            rows.append([MultiPoly.zero(_T)] * n)
    powers = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    rows = [[p * t**v for p in row] for row, v in zip(rows, powers)]
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_rows_over_t())
# valuations 2 and 1: the limit is span(e0, e1), one common order would
# read span(e0, e2)
@example(_t_rows(["t^2", "0", "0"], ["t", "t", "t^2"]))
# duval2 along (1, 2, 3) t: independent rows whose lowest-order terms
# (0, 0, -1) and (0, 0, 2) drop rank
@example(_t_rows(["0", "-9*t^2", "-t"], ["9*t^2", "0", "2*t"]))
# dependent over Q(t), and a zero row: None
@example(_t_rows(["t", "t^2", "1"], ["2*t^2", "2*t^3", "2*t"]))
@example(_t_rows(["0", "0"], ["1", "t"]))
# rational coefficients
@example(_t_rows(["1/2 + 1/3*t", "2/3*t", "0"], ["-1/3*t", "0", "5/2*t^2"]))
# k = n, and k > n
@example(_t_rows(["t", "1"], ["1", "t"]))
@example(_t_rows(["t"], ["1"]))
def test_span_limit_matches_the_polynomial_minors(rows):
    assert limit_subspace(rows) == span_limit_by_minors(rows)


def _limit_or_singular(bundle, arc):
    try:
        return limit_along(bundle, arc)
    except CurveInSingularLocusError:
        return "singular"


# two equal rows: generic rank 1 < d = 2, so limit_along substitutes the
# first row alone; _Y_AXIS_DROP has generic rank 2 = d, and both rows are
# pivot rows
_EQUAL_ROWS = AnchoredBundle(_XY, [[_X, _X * _Y], [_X, _X * _Y]])
_NONZERO_SCALE = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_two_row_anchors(), _full_row_rank_anchors()),
    st.one_of(_RAYS, _QUADRATICS),
    _NONZERO_SCALE,
)
@example(_Y_AXIS_DROP, CurveGerm.polynomial([Fraction(0)] * 2, [1, 0], [0, 1]), Fraction(-2))
@example(_Y_AXIS_DROP, _ON_Y_AXIS, Fraction(3, 2))
@example(_EQUAL_ROWS, CurveGerm.polynomial([Fraction(0)] * 2, [1, 1]), Fraction(-1, 3))
@example(_EQUAL_ROWS, CurveGerm.polynomial([Fraction(0), Fraction(2)], [0, 0]), Fraction(-4))
def test_limit_along_is_unchanged_by_rescaling_t(bundle, arc, scale):
    """gamma(scale * t) has the limit of gamma(t), and is singular exactly
    when gamma is: the reparametrization default_arcs applies."""
    assert _limit_or_singular(bundle, reparametrize(arc, scale)) == _limit_or_singular(
        bundle, arc
    )


def _drawn_scale(drawn: CurveGerm) -> int:
    """L, the lcm of the denominators of an arc's drawn coefficients (of t^m
    for m >= 1; the target's own denominators are not drawn)."""
    return math.lcm(
        *(c.denominator for comp in drawn.components for (m,), c in comp.terms.items() if m)
    )


def test_integer_default_arcs_give_the_rational_arcs_limits():
    """At every declared point of every shipped scenario, for seeds 0-3, the
    integer default arcs give the per-arc verdicts and the limits that the
    rational arcs they replaced give."""
    for name in corpus_names():
        scenario = load_corpus_scenario(name)
        for x in scenario.points.values():
            for seed in range(4):
                arcs, rational = default_arcs(x, seed), rational_default_arcs(x, seed)
                for arc, drawn in zip(arcs, rational, strict=True):
                    for comp in arc.components:
                        assert all(type(c) is int for c in comp.terms.values()), (name, arc)
                    # t -> L t, L the lcm of the drawn coefficients' denominators
                    assert arc == reparametrize(drawn, Fraction(_drawn_scale(drawn))), (name, arc)
                for source in scenario.sources.values():
                    got = nash_fiber_sample(source.bundle, x, arcs)
                    want = nash_fiber_sample(source.bundle, x, rational)
                    assert got.curve_status == want.curve_status, (name, x, seed)
                    assert [rec.pluecker for rec in got.limits] == [
                        rec.pluecker for rec in want.limits
                    ], (name, x, seed)


_POINT_COORDS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9).flatmap(lambda d: st.lists(_POINT_COORDS, min_size=d, max_size=d)),
    st.integers(0, 2**20),
)
@example([Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)], 0)
@example([Fraction(-3, 2), Fraction(1, 3)], 3)
@example([Fraction(0)] * 9, 41)
@example([Fraction(i - 4, i + 1) for i in range(9)], 7)
def test_integer_default_arcs_are_the_rescaled_rational_arcs(x, seed):
    """At rational, non-integer and 9-dimensional points, every default arc
    is its rational draw reparametrized by t -> L t: the same target, and
    integer coefficients of t^m for m >= 1."""
    arcs, rational = default_arcs(x, seed), rational_default_arcs(x, seed)
    for arc, drawn in zip(arcs, rational, strict=True):
        assert arc.target == tuple(x)
        for comp in arc.components:
            assert all(type(c) is int for (m,), c in comp.terms.items() if m), arc
        assert arc == reparametrize(drawn, Fraction(_drawn_scale(drawn))), (x, seed)


_COEFFICIENTS = st.lists(
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=6)), max_size=6
)


@settings(max_examples=100, deadline=None)
@given(_COEFFICIENTS)
@example([])
@example([0, 0])
@example([Fraction(4, 2), 0, Fraction(-1, 3), True])
def test_univariate_matches_the_public_constructor(coefficients):
    """`MultiPoly.univariate` gives the polynomial the public constructor
    gives, with the same coefficient forms: ints for integers, zeros
    dropped."""
    got = MultiPoly.univariate("t", coefficients)
    want = MultiPoly(("t",), {(m,): c for m, c in enumerate(coefficients)})
    assert (got.vars, got.terms) == (want.vars, want.terms)
    assert [type(c) for c in got.terms.values()] == [type(c) for c in want.terms.values()]


def test_univariate_refuses_what_the_constructor_refuses():
    for bad in (0.5, "1"):
        with pytest.raises(TypeError):
            MultiPoly.univariate("t", [1, bad])
        with pytest.raises(TypeError):
            MultiPoly(("t",), {(0,): 1, (1,): bad})


def test_curve_germ_still_refuses_a_wrong_target():
    """The arc constructors build components through `univariate`, and the
    germ still checks them: a component that misses its target coordinate,
    a component count that differs from the target's, and a component in
    another variable are refused."""
    arc = CurveGerm.polynomial([Fraction(1, 2), 0], [1, 2])
    assert arc.components == (parse_poly("1/2 + t", ("t",)), parse_poly("2*t", ("t",)))
    with pytest.raises(ValueError, match="does not start at its target"):
        CurveGerm((Fraction(1), Fraction(0)), arc.components)
    with pytest.raises(ValueError, match="component count"):
        CurveGerm((Fraction(1, 2),), arc.components)
    with pytest.raises(ValueError, match="univariate in t"):
        CurveGerm((Fraction(0),), (MultiPoly.univariate("s", [0, 1]),))


@st.composite
def _anchor_columns(draw):
    """Three-component polynomial columns, each either fresh or a polynomial
    combination of earlier ones, so that lexicographically early subsets are
    often dependent and the chosen basis is not a prefix."""
    n = draw(st.integers(1, 4))
    columns = []
    for _ in range(n):
        if columns and draw(st.booleans()):
            picks = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=2))
            factors = [draw(_SMALL) for _ in picks]
            col = [
                sum((f * c[i] for f, c in zip(factors, picks)), MultiPoly.zero(_XYZ))
                for i in range(3)
            ]
        else:
            col = [draw(_SMALL) for _ in range(3)]
        columns.append(col)
    return columns


# the rref oracle's rational-function arithmetic cancels gcds here (of
# degree 18 in x and 11 in y) that the heuristic gcd takes in milliseconds
# and the recursive PRS alone does not finish in a minute
_SWELLING_COLUMNS = [
    [parse_poly(e, _XYZ) for e in col]
    for col in (
        ["-1", "3*x*y*z + 3*y", "2*x*z - x - z"],
        ["2*x*y - 2*y*z + 2*y", "0", "0"],
        ["-3*x*y*z - x*y + 2*x*z", "2", "0"],
        ["0", "-3*x*y*z + 3*x*y + 2*x", "-2*x*z"],
    )
]


@settings(max_examples=60, deadline=None)
@given(_anchor_columns())
@example(_SWELLING_COLUMNS)
def test_debord_relations_match_per_target_solve(columns):
    bundle = AnchoredBundle(_XYZ, [[col[i] for col in columns] for i in range(3)])
    pullback = ChartPullback(bundle, identity_chart(_XYZ))
    relations = debord_generators(pullback)
    pulled = [[c.as_poly() for c in pb.components] for pb in pullback.fields]
    expected = relations_by_solve(pulled)
    assert [(rel.index, rel.basis) for rel in relations] == [
        (j, basis) for j, basis, _ in expected
    ]
    for rel, (_, _, coeffs) in zip(relations, expected):
        assert [str(c) for c in rel.coefficients] == [str(c) for c in coeffs]
        assert rel.polynomial == all(c.is_polynomial() for c in coeffs)
