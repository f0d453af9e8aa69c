"""Fast paths against the slow code they replaced (kept in oracles.py), on
generated inputs."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashfol.algebroid import (
    AnchoredBundle,
    IsotropyAlgebra,
    _quotient_basis,
    anchor_rank_generic,
)
from nashfol.charts import ChartPullback, debord_generators
from nashfol.grassmann import Subspace, unpluecker
from nashfol.nash import CurveGerm, CurveInSingularLocusError, kernel_curve, limit_along
from nashfol.poly import MultiPoly, parse_poly
from models import identity_chart
from oracles import (
    frac_solve,
    greedy_representatives,
    kernel_curve_by_rank,
    relations_by_solve,
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
    sub = Subspace(n, rows)
    if not sub.dim:
        return
    back = unpluecker(sub.pluecker())
    assert back._pluecker is not None
    assert back.pluecker() == Subspace(n, back.rows).pluecker()


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
def test_limit_along_reuses_a_correct_pluecker_vector(anchor, direction):
    bundle = AnchoredBundle(_XY, anchor)
    ray = CurveGerm.polynomial([Fraction(0)] * 2, [Fraction(v) for v in direction])
    try:
        limit = limit_along(bundle, ray)
    except CurveInSingularLocusError:
        return
    assert limit.dim == bundle.fiber_rank - anchor_rank_generic(bundle)
    if limit.dim:
        assert limit._pluecker is not None
    assert limit.pluecker() == Subspace(limit.n, limit.rows).pluecker()


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


_XYZ = ("x", "y", "z")
_SMALL = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    _ENTRY.filter(bool).map(Fraction),
    max_size=3,
).map(lambda terms: MultiPoly(_XYZ, terms))


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
