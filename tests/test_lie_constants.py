"""The sparse numeric Lie checks on quotient constants against dense oracles."""

from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashfol.algebroid import _assert_jacobi_numeric, isotropy_algebra_at
from nashfol.grassmann import Subspace
from nashfol.poly import InternalInvariantError
from checks import _assert_quotient_subalgebra
from models import matrix_action_algebroid


def _dense_table(structure, dim):
    """table[a][b] = [basis_a, basis_b] as a full coefficient vector."""
    zero = (Fraction(0),) * dim
    table = [[zero] * dim for _ in range(dim)]
    for (a, b), coeffs in structure.items():
        table[a][b] = tuple(coeffs)
        table[b][a] = tuple(-c for c in coeffs)
    return table


def _jacobi_holds_dense(structure, dim):
    """Oracle: every triple and every output coordinate, zeros included."""
    g = _dense_table(structure, dim)
    for a, b, c in combinations(range(dim), 3):
        gab, gbc, gca = g[a][b], g[b][c], g[c][a]
        for f in range(dim):
            total = sum(
                gab[e] * g[e][c][f] + gbc[e] * g[e][a][f] + gca[e] * g[e][b][f]
                for e in range(dim)
            )
            if total != 0:
                return False
    return True


def _subalgebra_dense(structure, dim, image):
    """Oracle: the bracket of every pair of image rows, over all index pairs."""
    gamma = _dense_table(structure, dim)
    for i, u in enumerate(image.rows):
        for w in image.rows[i + 1 :]:
            bracket = [Fraction(0)] * dim
            for aa in range(dim):
                for bb in range(dim):
                    coeff = u[aa] * w[bb]
                    bracket = [acc + coeff * g for acc, g in zip(bracket, gamma[aa][bb])]
            if not image.contains(bracket):
                return False
    return True


def _sparse_verdict(check, *args):
    try:
        check(*args)
    except InternalInvariantError:
        return False
    return True


_coeff = st.sampled_from([0, 0, 0, 1, -1, 2]).map(Fraction)


@st.composite
def _constant_table(draw):
    dim = draw(st.integers(0, 5))
    pairs = list(combinations(range(dim), 2))
    vec = st.lists(_coeff, min_size=dim, max_size=dim).map(tuple)
    structure = draw(st.dictionaries(st.sampled_from(pairs), vec)) if pairs else {}
    return structure, dim


def _gl2_origin_constants():
    iso = isotropy_algebra_at(matrix_action_algebroid(2), [], [Fraction(0)] * 2)
    return iso.structure, iso.dim


# [e0,e1] = e2, [e0,e2] = e0, [e1,e2] = 0: the Jacobiator of (0,1,2) is -e2.
_BROKEN = ({(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}, 3)


@settings(max_examples=200, deadline=None)
@given(_constant_table())
def test_sparse_jacobi_matches_dense_oracle(case):
    structure, dim = case
    sparse = _sparse_verdict(_assert_jacobi_numeric, structure, dim)
    assert sparse == _jacobi_holds_dense(structure, dim)


@pytest.mark.parametrize("case, holds", [(_gl2_origin_constants(), True), (_BROKEN, False)])
def test_sparse_jacobi_on_fixed_tables(case, holds):
    structure, dim = case
    assert _jacobi_holds_dense(structure, dim) is holds
    if holds:
        _assert_jacobi_numeric(structure, dim)
    else:
        with pytest.raises(InternalInvariantError, match="violate Jacobi"):
            _assert_jacobi_numeric(structure, dim)


@st.composite
def _table_and_image(draw):
    structure, dim = draw(st.one_of(_constant_table(), st.just(_BROKEN)))
    rows = draw(st.lists(st.lists(_coeff, min_size=dim, max_size=dim), max_size=3))
    return structure, dim, Subspace(dim, rows)


@settings(max_examples=200, deadline=None)
@given(_table_and_image())
def test_sparse_subalgebra_check_matches_dense_oracle(case):
    structure, dim, image = case
    iso = SimpleNamespace(structure=structure, dim=dim)
    sparse = _sparse_verdict(_assert_quotient_subalgebra, iso, image)
    assert sparse == _subalgebra_dense(structure, dim, image)


def test_subalgebra_check_raises_on_escaping_bracket():
    # in the broken table [e0, e1] = e2 leaves span(e0, e1)
    structure, dim = _BROKEN
    iso = SimpleNamespace(structure=structure, dim=dim)
    image = Subspace(dim, [[1, 0, 0], [0, 1, 0]])
    assert not _subalgebra_dense(structure, dim, image)
    with pytest.raises(InternalInvariantError, match="not a subalgebra"):
        _assert_quotient_subalgebra(iso, image)
    _assert_quotient_subalgebra(iso, Subspace(dim, [[1, 0, 0], [0, 0, 1]]))
