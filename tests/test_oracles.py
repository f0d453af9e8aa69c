"""Fast paths against the slow code they replaced (kept in oracles.py), on
generated inputs."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nashfol.algebroid import (
    AnchoredBundle,
    IsotropyAlgebra,
    _quotient_basis,
    anchor_rank_generic,
)
from nashfol.grassmann import Subspace, unpluecker
from nashfol.nash import CurveGerm, CurveInSingularLocusError, limit_along
from nashfol.poly import MultiPoly
from oracles import frac_solve, greedy_representatives

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
    ray = CurveGerm.ray([Fraction(0)] * 2, [Fraction(v) for v in direction])
    try:
        limit = limit_along(bundle, ray)
    except CurveInSingularLocusError:
        return
    assert limit.dim == bundle.fiber_rank - anchor_rank_generic(bundle)
    if limit.dim:
        assert limit._pluecker is not None
    assert limit.pluecker() == Subspace(limit.n, limit.rows).pluecker()
