"""Fraction-free linear algebra over polynomial rings.

Matrices are plain lists of lists.  Entries are MultiPoly over a shared
variable tuple; generic-rank questions are answered over the fraction field
via Bareiss elimination (exact divisions only, no rational-function blowup),
and pointwise questions by evaluating to Fraction matrices first.

Bareiss with column skipping: when a column has no nonzero entry at or below
the current pivot row it is recorded as free and skipped; the two-by-two
update never touches columns left of the current pivot, so skipped columns
stay zero and the exact-division invariant is preserved.

All the minors of one size come from one shared Laplace table: the s-by-s
minors are expanded along their last row over the (s-1)-by-(s-1) minors
already in the table, with no division.  The table's index (each s-subset
of the columns and the positions of its faces) depends only on the number
of columns and s, so it is built once per shape and kept in a small bounded
cache; the entries are computed per call.  Only `minors`, which also takes
non-maximal and polynomial minors, chooses between the table and one `det`
per minor: it uses the table when the table's multiplication count does not
exceed the bound count * size^3 on one elimination per minor, and otherwise
takes the dets and caches nothing.  `integer_minors` takes the table on the
same terms and otherwise returns None; Pluecker vectors (`grassmann`) always
pass.  `solve` and `adjugate` take every determinant they need
from one `minors` call: the maximal minors of [m | b], and the cofactors.

Kernels take integer rows, then are fraction-free too, in every arity: each
row is scaled to coprime integer coefficients (`poly.integer_polys`), so the
elimination runs over the integers, and each basis vector is back-substituted
from the Bareiss echelon form and made primitive over the polynomial ring
(`poly.primitive_part`).  The content of coefficients is decided in `poly`
alone, and so are products: each sum of them here is one `poly.dot`, over
the one term-pair loop `poly._add_product`.  The echelon form is read here alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Sequence

from .poly import (
    InternalInvariantError,
    MultiPoly,
    RatFunc,
    dot,
    exact_div,
    integer_polys,
    primitive_part,
)

PolyMatrix = list[list[MultiPoly]]
PolyVector = list[MultiPoly]


class SizeError(ValueError):
    """A requested minor size exceeds the matrix dimensions, or asks for more
    than MAX_MINORS minors."""


# Largest number of minors one call may compute, checked before the first:
# the corpus asks for at most 84, while a 6x24 anchor would ask for 134 596
# polynomial determinants.
MAX_MINORS = 10_000


def mat_copy(m: Sequence[Sequence[MultiPoly]]) -> PolyMatrix:
    return [list(row) for row in m]


def poly_mat_vec(m: Sequence[Sequence[MultiPoly]], v: Sequence[MultiPoly]) -> PolyVector:
    """M*v, one `dot` per row: only pairs of nonzero factors are multiplied,
    and the ring of every entry is checked."""
    return [dot(row, v) for row in m]


def poly_mat_mul(a: Sequence[Sequence[MultiPoly]], b: Sequence[Sequence[MultiPoly]]) -> PolyMatrix:
    """A*B, one `dot` per entry."""
    return [[dot(row, col) for col in zip(*b)] for row in a]


def eval_matrix(m: Sequence[Sequence[MultiPoly]], point: Sequence) -> list[list[Fraction]]:
    return [[entry.eval(point) for entry in row] for row in m]


def _bareiss(m: Sequence[Sequence[MultiPoly]]):
    """Forward elimination.  Returns (rows, pivot_cols, sign).

    ``rows`` is the fraction-free echelon form; row a has its pivot in column
    pivot_cols[a] and zeros below every pivot.  Each step takes every row
    below the pivot row, right of the pivot column c, to (pivot * row -
    row[c] * pivot_row) / prev and zeroes row[c]; ``prev`` is the previous
    pivot (none before the first step), and the division is exact by
    Sylvester's identity.
    """
    rows = mat_copy(m)
    if not rows or not rows[0]:
        return rows, [], 1
    nrows, ncols = len(rows), len(rows[0])
    prev = None
    pivot_cols: list[int] = []
    sign = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        pivot_row = rows[r]
        pivot = pivot_row[c]
        for row in rows[r + 1 :]:
            factors = (pivot, -row[c])
            for j in range(c + 1, ncols):
                num = dot(factors, (row[j], pivot_row[j]))
                row[j] = exact_div(num, prev) if num and prev is not None else num
            row[c] = MultiPoly.zero(pivot.vars)
        prev = pivot
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, sign


def rank(m: Sequence[Sequence[MultiPoly]]) -> int:
    """Rank over the fraction field (generic rank)."""
    _, pivots, _ = _bareiss(m)
    return len(pivots)


def independent_rows(m: Sequence[Sequence[MultiPoly]]) -> list[int]:
    """The indices of the lexicographically first rows of m that are
    independent over the fraction field, as many as its rank: the pivot
    columns of one elimination of the transpose.  A pivot column of an
    echelon form is one independent of the columns before it, so row i is
    kept exactly when it is independent of rows 0, ..., i-1."""
    _, pivots, _ = _bareiss([list(column) for column in zip(*m)])
    return pivots


def _order(m: Sequence[Sequence[MultiPoly]]) -> int:
    """The n of an n-by-n matrix; an empty or non-square one is refused."""
    if not m:
        raise ValueError("determinant of an empty matrix")
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    return n


def det(m: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    n = _order(m)
    rows, pivots, sign = _bareiss(m)
    if len(pivots) < n:
        return MultiPoly.zero(m[0][0].vars)
    d = rows[n - 1][n - 1]
    return d if sign == 1 else -d


def _laplace_pays(nrows: int, ncols: int, size: int) -> bool:
    """Whether the Laplace table for the size-by-size minors of an nrows-by-
    ncols matrix needs at most count * size^3 multiplications, the most that
    one elimination per minor needs."""
    count = math.comb(nrows, size) * math.comb(ncols, size)
    table = sum(
        s * math.comb(nrows - size + s, s) * math.comb(ncols, s) for s in range(2, size + 1)
    )
    return table <= count * size**3


# Column shapes (ncols, s) that each index cache keeps: the maximal minors
# of a 6x9 matrix read six, nash-fiber at every corpus origin twelve.  A
# full cache drops the least recently used shape.
LAPLACE_SHAPES = 64


@lru_cache(maxsize=LAPLACE_SHAPES)
def _column_subsets(ncols: int, s: int):
    """The s-subsets of range(ncols) in lexicographic order, and the
    position of each in that order (read-only: every caller shares it)."""
    sets = tuple(combinations(range(ncols), s))
    return sets, MappingProxyType({cset: i for i, cset in enumerate(sets)})


@lru_cache(maxsize=LAPLACE_SHAPES)
def _laplace_faces(ncols: int, s: int) -> tuple[tuple[int, ...], ...]:
    """For each s-subset C of the columns, in `_column_subsets` order, the
    positions of C minus C_0, ..., C minus C_{s-1} among the (s-1)-subsets."""
    index = _column_subsets(ncols, s - 1)[1]
    return tuple(
        tuple(index[cset[:q] + cset[q + 1 :]] for q in range(s))
        for cset in _column_subsets(ncols, s)[0]
    )


def _laplace_minors(m: Sequence[Sequence], size: int, zero) -> list:
    """All size-by-size minors of m over the ring whose zero is ``zero``, in
    the order of `minors`, from one table of sub-minors.

    Level s holds every s-by-s minor T[R, C], with R an s-subset of the first
    nrows - size + s rows (the heads of the row sets asked for) and C any
    s-subset of the columns.  Each entry is the Laplace expansion along R's
    last row, sum_q (-1)^(s-1+q) m[R_last][C_q] T[R minus R_last, C minus
    C_q]; zero factors are skipped.  Only the last level is kept.  The index
    of each level (`_column_subsets`, `_laplace_faces`) is built once per
    shape; the entries are computed per call.
    """
    nrows, ncols = len(m), len(m[0])
    rows_at = nrows - size
    level = {(i,): m[i] for i in range(rows_at + 1)}
    for s in range(2, size + 1):
        csets = _column_subsets(ncols, s)[0]
        faces = _laplace_faces(ncols, s)
        signs = tuple((s - 1 + q) % 2 == 0 for q in range(s))
        nxt = {}
        for rset in combinations(range(rows_at + s), s):
            head, last = level[rset[:-1]], m[rset[-1]]
            entries = []
            for cset, subs in zip(csets, faces):
                acc = zero
                for c, sub, plus in zip(cset, subs, signs):
                    if last[c] and head[sub]:
                        term = last[c] * head[sub]
                        acc = acc + term if plus else acc - term
                entries.append(acc)
            nxt[rset] = entries
        level = nxt
    return [entry for rset in combinations(range(nrows), size) for entry in level[rset]]


def _minor_shape(m: Sequence[Sequence], size: int) -> tuple[int, int]:
    """The shape of m, if it has 1 to MAX_MINORS size-by-size minors."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    if size < 1 or size > min(nrows, ncols):
        raise SizeError(f"no {size}x{size} minors in a {nrows}x{ncols} matrix")
    count = math.comb(nrows, size) * math.comb(ncols, size)
    if count > MAX_MINORS:
        raise SizeError(
            f"{count} {size}x{size} minors of a {nrows}x{ncols} matrix exceed {MAX_MINORS}"
        )
    return nrows, ncols


def integer_minors(m: Sequence[Sequence[int]], size: int) -> list[int] | None:
    """The minors of `minors`, of an integer matrix, from one Laplace table
    where it pays (`_laplace_pays`), else None; refused as `minors` refuses.
    The maximal minors of a matrix with a zero row are all zero, with no
    table."""
    nrows, ncols = _minor_shape(m, size)
    if size == nrows and not all(map(any, m)):
        return [0] * math.comb(ncols, size)
    return _laplace_minors(m, size, 0) if _laplace_pays(nrows, ncols, size) else None


def minors(m: Sequence[Sequence[MultiPoly]], size: int) -> list[MultiPoly]:
    """All size-by-size minors, row/column index sets in lexicographic order.

    The size and the MAX_MINORS bound are checked before any work.  The
    minors then come from one Laplace table when it pays (`_laplace_pays`),
    and otherwise from one `det` per minor.
    """
    nrows, ncols = _minor_shape(m, size)
    if _laplace_pays(nrows, ncols, size):
        return _laplace_minors(m, size, MultiPoly.zero(m[0][0].vars))
    out = []
    for rset in combinations(range(nrows), size):
        for cset in combinations(range(ncols), size):
            out.append(det([[m[i][j] for j in cset] for i in rset]))
    return out


def _primitive_kernel_vector(
    rows: Sequence[Sequence[MultiPoly]], pivots: Sequence[int], f: int
) -> PolyVector:
    """The kernel vector of free column f, from a fraction-free echelon form,
    made primitive.

    w_f is the last pivot D, the r-by-r pivot minor, and each pivot entry is
    back-substituted as w_c = -(sum_{j > c} E[a][j] w_j) / E[a][c].  That is
    the Cramer vector, whose entries are r-by-r minors, so every division is
    exact; the other free columns are zero.  w is then its `primitive_part`.
    """
    ncols = len(rows[0])
    zero = MultiPoly.zero(rows[0][0].vars)
    w = [zero] * ncols
    w[f] = rows[len(pivots) - 1][pivots[-1]] if pivots else MultiPoly.constant(zero.vars, 1)
    for a in range(len(pivots) - 1, -1, -1):
        c, row = pivots[a], rows[a]
        acc = dot(row[c:], w[c:])  # w[c] is still zero, so the sum is over j > c
        w[c] = exact_div(-acc, row[c]) if acc else zero
    return primitive_part(w)


def kernel_basis(m: Sequence[Sequence[MultiPoly]]) -> list[PolyVector]:
    """Basis of the right kernel over the fraction field.

    One vector per free column, in ascending column order, whose entry at
    its free column has positive leading coefficient, and primitive over
    the polynomial ring: each row is first scaled to integer coefficients
    (`integer_polys`), and the vector is back-substituted from the fraction-
    free echelon form (`_primitive_kernel_vector`), so it is zero past its
    free column.  Each vector is checked against those integer rows: a
    nonzero scaling of a row keeps its kernel, so (S M) v = 0 exactly when
    M v = 0.  A matrix with rows but no columns has the empty basis.
    """
    if not m:
        raise ValueError("kernel of an empty matrix")
    int_rows = [integer_polys(row) for row in m]
    rows, pivots, _ = _bareiss(int_rows)
    basis = []
    for f in range(len(m[0])):
        if f in pivots:
            continue
        polys = _primitive_kernel_vector(rows, pivots, f)
        if polys[f].leading()[1] < 0:
            polys = [-p for p in polys]
        if any(poly_mat_vec(int_rows, polys)):
            raise InternalInvariantError("kernel vector fails M*v = 0")
        basis.append(polys)
    return basis


def _signed(p: MultiPoly, k: int) -> MultiPoly:
    return p if k % 2 == 0 else -p


def solve(m: Sequence[Sequence[MultiPoly]], b: Sequence[MultiPoly]) -> list[RatFunc]:
    """Solve a square generically-invertible system by Cramer's rule.

    One `minors` call on [m | b] gives det(m) first, then, in reverse order,
    the minor without column j, which is (-1)^(n-1-j) det(m with column j
    replaced by b)."""
    n = _order(m)
    d, *rest = minors([list(row) + [b[i]] for i, row in enumerate(m)], n)
    if d.is_zero():
        raise ValueError("coefficient matrix is singular over the fraction field")
    return [RatFunc(_signed(p, n - 1 - j), d) for j, p in enumerate(reversed(rest))]


def adjugate(m: Sequence[Sequence[MultiPoly]]) -> PolyMatrix:
    """Transposed cofactor matrix, so that m * adjugate(m) = det(m) * I.

    The cofactors come from one `minors(m, n-1)` call: in reverse order, the
    minor without row j and column i is the (j n + i)-th."""
    n = _order(m)
    if n == 1:
        return [[MultiPoly.constant(m[0][0].vars, 1)]]
    cof = minors(m, n - 1)[::-1]
    return [[_signed(cof[j * n + i], i + j) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Fraction matrices (pointwise computations)
# ---------------------------------------------------------------------------


def frac_rref(m: Sequence[Sequence[Fraction]]):
    """Canonical reduced row echelon form of a Fraction matrix.

    Returns (rows, pivot_cols) with zero rows dropped; equal row spaces give
    identical output, so this doubles as a canonical form.
    """
    rows = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in m]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c]
        if inv != 1:
            rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[: len(pivots)], pivots


def frac_rank(m: Sequence[Sequence[Fraction]]) -> int:
    return len(frac_rref(m)[1])


def frac_kernel(m: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a Fraction matrix with ``ncols`` columns,
    one vector per free column."""
    return _rref_kernel(*frac_rref(m), ncols)


def _rref_kernel(
    rows: Sequence[Sequence[Fraction]], pivots: Sequence[int], ncols: int
) -> list[list[Fraction]]:
    """`frac_kernel` read off a reduced row echelon form and its pivots."""
    basis = []
    for f in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for a, c in enumerate(pivots):
            vec[c] = -rows[a][f]
        basis.append(vec)
    return basis
