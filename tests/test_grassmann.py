import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nashfol.grassmann import NotDecomposableError, PlueckerVector, Subspace, unpluecker
from nashfol.linalg import frac_kernel
from checks import affine_chart
from models import span_of_integer_vectors
from oracles import frac_det


def F(*xs):
    return [Fraction(x) for x in xs]


def test_subspace_is_canonical():
    a = Subspace(3, [F(1, 2, 3), F(0, 1, 1)])
    b = Subspace(3, [F(2, 5, 7), F(1, 3, 4)])
    assert a == b
    assert a.rows == ((Fraction(1), 0, 1), (0, Fraction(1), 1))


def test_contains():
    s = Subspace(3, [F(1, 0, 1), F(0, 1, -1)])
    assert s.contains(F(2, 3, -1))
    assert not s.contains(F(1, 0, 0))
    assert s.contains_subspace(Subspace(3, [F(1, 1, 0)]))
    assert not s.contains_subspace(Subspace(3, [F(0, 0, 1)]))


def test_pluecker_of_coordinate_plane():
    s = span_of_integer_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    pv = s.pluecker()
    assert pv.coords == (1, 0, 0, 0, 0, 0)
    assert unpluecker(pv) == s


def test_pluecker_normalization():
    s = Subspace(3, [F(0, 2, 4)])
    pv = s.pluecker()
    # line coordinates are the vector itself up to scale, first nonzero positive
    assert pv.coords == (0, 1, 2)
    t = Subspace(3, [F(0, -1, -2)])
    assert t.pluecker() == pv


def test_pluecker_roundtrip_on_line_through_generic_vector():
    s = span_of_integer_vectors(3, [(3, -5, 7)])
    assert unpluecker(s.pluecker()) == s


def test_pluecker_roundtrip_random_subspaces():
    rng = random.Random(20260817)
    for _ in range(40):
        n = rng.randrange(2, 6)
        k = rng.randrange(1, n)
        vecs = [
            [Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(k)
        ]
        s = Subspace(n, vecs)
        assert unpluecker(s.pluecker()) == s


_entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _spanning_vectors(draw):
    """Up to n vectors in Q^n, n <= 9: dim 0 and dim n occur, and so do
    both sides of n/2, where the table is taken over the rows or over the
    annihilator (6-of-9 is a gl3 kernel's shape)."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(0, n))
    return n, [[draw(_entry) for _ in range(n)] for _ in range(k)]


@settings(max_examples=100, deadline=None)
@given(_spanning_vectors())
@example((3, []))
@example((9, []))
@example((7, [[Fraction(int(i == j or j == 0), i + 1) for j in range(7)] for i in range(7)]))
@example((9, [[Fraction(int(i == j or j == 8), i + 1) for j in range(9)] for i in range(9)]))
@example((9, [[Fraction((i + 2) ** j, i + 1) for j in range(9)] for i in range(6)]))
@example((9, [[Fraction(int(j in (i, i + 3)), 2 - i % 2) for j in range(9)] for i in range(6)]))
@example((4, [[Fraction(1, 2), 0, Fraction(-3, 4), 2], [0, 0, Fraction(1, 3), 1]]))
def test_pluecker_matches_frac_det_of_the_rref(case):
    n, vectors = case
    s = Subspace(n, vectors)
    coords = [
        frac_det([[row[c] for c in cols] for row in s.rows])
        for cols in combinations(range(n), s.dim)
    ]
    assert s.pluecker() == PlueckerVector(n, s.dim, coords)


@settings(max_examples=100, deadline=None)
@given(_spanning_vectors())
@example((3, []))
@example((4, [[Fraction(int(i == j), i + 1) for j in range(4)] for i in range(4)]))
@example((9, [[Fraction((i + 2) ** j, i + 1) for j in range(9)] for i in range(3)]))
def test_pluecker_annihilator_is_an_involution_giving_the_annihilators_vector(case):
    n, vectors = case
    s = Subspace(n, vectors)
    pv = s.pluecker()
    ann = pv.annihilator()
    assert ann.k == n - s.dim
    assert ann == Subspace(n, frac_kernel(s.rows, n)).pluecker()
    assert ann.annihilator() == pv


def test_not_decomposable():
    # e0^e1 + e2^e3 violates the quadratic Grassmannian relation
    pv = PlueckerVector(4, 2, [1, 0, 0, 0, 0, 1])
    with pytest.raises(NotDecomposableError):
        unpluecker(pv)


def test_zero_dimensional_subspace():
    s = Subspace(3, [])
    assert s.dim == 0
    pv = s.pluecker()
    assert pv.coords == (1,)
    assert unpluecker(pv) == s


def test_affine_chart():
    pv = PlueckerVector(3, 1, [2, 4, -6])
    assert pv.coords == (1, 2, -3)
    assert affine_chart(pv, 1) == (Fraction(1, 2), 1, Fraction(-3, 2))
    with pytest.raises(ValueError):
        PlueckerVector(3, 1, [0, 0, 0])


def test_pluecker_vectors_sort_deterministically():
    a = PlueckerVector(3, 1, [1, 0, 0])
    b = PlueckerVector(3, 1, [0, 1, 0])
    assert sorted([b, a]) == sorted([a, b])


@settings(max_examples=100, deadline=None)
@given(_spanning_vectors())
@example((3, []))
@example((5, [[Fraction(int(i == j), i + 1) for j in range(5)] for i in range(5)]))
@example((9, [[Fraction((i + 2) ** j, i + 1) for j in range(9)] for i in range(6)]))
@example((6, [[0, 0, 1, 0, Fraction(2, 3), -1], [0, 0, 0, 1, 1, 0]]))
def test_unpluecker_gives_the_rref_of_its_chart_rows(case):
    """The chart rows at the first nonzero coordinate are already reduced:
    rebuilding the subspace from them through `frac_rref` gives the same
    rows and pivots, on both sides of n/2 and at dim 0 and dim n."""
    n, vectors = case
    s = Subspace(n, vectors)
    got = unpluecker(s.pluecker())
    rebuilt = Subspace(n, got.rows)
    assert (got.rows, got.pivots) == (rebuilt.rows, rebuilt.pivots)
    assert (got.rows, got.pivots) == (s.rows, s.pivots)


@st.composite
def _two_planes(draw):
    """Two k-planes of Q^n, 2 <= k <= n - 2, as integer rows, and two nonzero
    weights for their Pluecker vectors."""
    n = draw(st.integers(4, 9))
    k = draw(st.integers(2, n - 2))
    rows = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    planes = [draw(st.lists(rows, min_size=k, max_size=k)) for _ in range(2)]
    weights = [draw(st.integers(-4, 4).filter(bool)) for _ in range(2)]
    return n, k, planes, weights


def _coordinate_plane(n, columns):
    return [[int(j == i) for j in range(n)] for i in columns]


@settings(max_examples=100, deadline=None)
@given(_two_planes())
@example((4, 2, [_coordinate_plane(4, (0, 1)), _coordinate_plane(4, (2, 3))], [1, 1]))
@example((6, 3, [_coordinate_plane(6, (0, 1, 2)), _coordinate_plane(6, (0, 3, 4))], [2, -3]))
def test_unpluecker_refuses_sums_of_planes_meeting_in_codimension_two(case):
    """a p(S) + b p(T) is decomposable exactly when S and T meet in
    dimension at least k - 1; planes meeting in less are refused."""
    n, k, planes, weights = case
    spans = [span_of_integer_vectors(n, plane) for plane in planes]
    assume(all(s.dim == k for s in spans))
    assume(Subspace(n, [row for s in spans for row in s.rows]).dim >= k + 2)
    p, q = (s.pluecker().coords for s in spans)
    a, b = weights
    with pytest.raises(NotDecomposableError):
        unpluecker(PlueckerVector(n, k, [a * x + b * y for x, y in zip(p, q)]))
