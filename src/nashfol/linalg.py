"""Fraction-free linear algebra over polynomial rings.

Matrices are plain lists of lists.  Entries are MultiPoly over a shared
variable tuple; generic-rank questions are answered over the fraction field
via Bareiss elimination (exact divisions only, no rational-function blowup),
and pointwise questions by evaluating to Fraction matrices first.

Bareiss with column skipping: when a column has no nonzero entry at or below
the current pivot row it is recorded as free and skipped; the two-by-two
update never touches columns left of the current pivot, so skipped columns
stay zero and the exact-division invariant is preserved.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .poly import InternalInvariantError, MultiPoly, RatFunc, divides, exact_div

PolyMatrix = list[list[MultiPoly]]
PolyVector = list[MultiPoly]


class SizeError(ValueError):
    """A requested minor size exceeds the matrix dimensions."""


def mat_copy(m: Sequence[Sequence[MultiPoly]]) -> PolyMatrix:
    return [list(row) for row in m]


def poly_mat_vec(m: Sequence[Sequence[MultiPoly]], v: Sequence[MultiPoly]) -> PolyVector:
    out = []
    for row in m:
        acc = MultiPoly.zero(v[0].vars)
        for entry, coord in zip(row, v):
            acc = acc + entry * coord
        out.append(acc)
    return out


def poly_mat_mul(a: Sequence[Sequence[MultiPoly]], b: Sequence[Sequence[MultiPoly]]) -> PolyMatrix:
    zero = MultiPoly.zero(a[0][0].vars)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), zero)
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def eval_matrix(m: Sequence[Sequence[MultiPoly]], point: Sequence) -> list[list[Fraction]]:
    return [[entry.eval(point) for entry in row] for row in m]


def _reduce_row(
    row: PolyVector, pivot_row: Sequence[MultiPoly], c: int, prev: MultiPoly
) -> None:
    """One fraction-free step in place: right of column c the row becomes
    (pivot * row - row[c] * pivot_row) / prev, and row[c] becomes zero.

    ``prev`` is the previous pivot (1 before the first); the division is
    exact by Sylvester's identity.
    """
    pivot = pivot_row[c]
    for j in range(c + 1, len(row)):
        num = pivot * row[j] - row[c] * pivot_row[j]
        row[j] = exact_div(num, prev) if num else num
    row[c] = MultiPoly.zero(pivot.vars)


def _bareiss(m: Sequence[Sequence[MultiPoly]]):
    """Forward elimination.  Returns (rows, pivot_cols, sign).

    ``rows`` is the fraction-free echelon form; row a has its pivot in column
    pivot_cols[a] and zeros below every pivot.
    """
    rows = mat_copy(m)
    if not rows or not rows[0]:
        return rows, [], 1
    nrows, ncols = len(rows), len(rows[0])
    prev = MultiPoly.constant(rows[0][0].vars, 1)
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
        for i in range(r + 1, nrows):
            _reduce_row(rows[i], rows[r], c, prev)
        prev = rows[r][c]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols, sign


def rank(m: Sequence[Sequence[MultiPoly]]) -> int:
    """Rank over the fraction field (generic rank)."""
    _, pivots, _ = _bareiss(m)
    return len(pivots)


class RowEchelon:
    """The fraction-free echelon form of a matrix, kept to test further rows.

    ``contains(v)`` replays on v the steps Bareiss would apply to it as an
    extra last row of the matrix, so each division stays exact.  A nonzero
    remainder means v is outside the row span over the fraction field.
    """

    def __init__(self, m: Sequence[Sequence[MultiPoly]]):
        self.rows, self.pivot_cols, _ = _bareiss(m)

    def contains(self, v: Sequence[MultiPoly]) -> bool:
        if self.rows and len(v) != len(self.rows[0]):
            raise ValueError("vector length does not match the matrix width")
        out = list(v)
        prev = MultiPoly.constant(out[0].vars, 1) if out else None
        for row, c in zip(self.rows, self.pivot_cols):
            _reduce_row(out, row, c, prev)
            prev = row[c]
        return not any(out)


def det(m: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    if not m:
        raise ValueError("determinant of an empty matrix")
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    rows, pivots, sign = _bareiss(m)
    if len(pivots) < n:
        return MultiPoly.zero(m[0][0].vars)
    d = rows[n - 1][n - 1]
    return d if sign == 1 else -d


def minors(m: Sequence[Sequence[MultiPoly]], size: int) -> list[MultiPoly]:
    """All size-by-size minors, row/column index sets in lexicographic order."""
    nrows, ncols = len(m), len(m[0]) if m else 0
    if size < 1 or size > min(nrows, ncols):
        raise SizeError(f"no {size}x{size} minors in a {nrows}x{ncols} matrix")
    out = []
    for rset in combinations(range(nrows), size):
        for cset in combinations(range(ncols), size):
            out.append(det([[m[i][j] for j in cset] for i in rset]))
    return out


def rref(m: Sequence[Sequence[MultiPoly]]):
    """Reduced echelon form over the fraction field.

    Returns (rows, pivot_cols) where rows are RatFunc with unit pivots and
    zeros above and below each pivot; zero rows are dropped.
    """
    ech, pivots, _ = _bareiss(m)
    rat_rows = [[RatFunc(entry) for entry in ech[a]] for a in range(len(pivots))]
    for a, c in enumerate(pivots):
        inv = rat_rows[a][c]
        rat_rows[a] = [entry / inv for entry in rat_rows[a]]
    for a in range(len(pivots) - 1, -1, -1):
        c = pivots[a]
        for b in range(a):
            factor = rat_rows[b][c]
            if factor.is_zero():
                continue
            rat_rows[b] = [
                rb - factor * ra for rb, ra in zip(rat_rows[b], rat_rows[a])
            ]
    return rat_rows, pivots


def clear_denominators(entries: Sequence[RatFunc]) -> PolyVector:
    """Scale a rational vector to a primitive polynomial vector.

    Multiplies by the product of the distinct denominators, strips any
    denominator that still divides every entry, then removes the common
    monomial factor and the rational content.
    """
    vs = entries[0].vars
    dens: list[MultiPoly] = []
    for e in entries:
        d = e.den
        if not (d.is_constant() and d.constant_value() == 1) and d not in dens:
            dens.append(d)
    scale = MultiPoly.constant(vs, 1)
    for d in dens:
        scale = scale * d
    polys = [(e * scale).as_poly() for e in entries]
    for d in dens:
        while d.total_degree() > 0 and all(
            p.is_zero() or divides(d, p) for p in polys
        ) and any(not p.is_zero() for p in polys):
            polys = [exact_div(p, d) if p else p for p in polys]
    live = [p for p in polys if not p.is_zero()]
    if not live:
        return polys
    mono = live[0].monomial_content()
    for p in live[1:]:
        mono = tuple(map(min, mono, p.monomial_content()))
    if any(mono):
        polys = [p.shift_down(mono) if p else p for p in polys]
    content = None
    for p in polys:
        if p.is_zero():
            continue
        c = abs(p.content())
        content = c if content is None else Fraction(
            math.gcd(content.numerator * c.denominator, c.numerator * content.denominator),
            content.denominator * c.denominator,
        )
    if content is not None and content != 1:
        polys = [
            MultiPoly(vs, {e: v / content for e, v in p.terms.items()}) for p in polys
        ]
    return polys


def kernel_basis(m: Sequence[Sequence[MultiPoly]]) -> list[PolyVector]:
    """Basis of the right kernel over the fraction field.

    One vector per free column, in ascending column order.  Each vector is
    cleared to a primitive polynomial vector whose entry at its free column
    has positive leading coefficient.
    """
    if not m or not m[0]:
        raise ValueError("kernel of an empty matrix")
    ncols = len(m[0])
    vs = m[0][0].vars
    rat_rows, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    one = RatFunc(MultiPoly.constant(vs, 1))
    zero = RatFunc(MultiPoly.zero(vs))
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for a, c in enumerate(pivots):
            vec[c] = -rat_rows[a][f]
        polys = clear_denominators(vec)
        if polys[f].leading()[1] < 0:
            polys = [-p for p in polys]
        residual = poly_mat_vec(m, polys)
        if any(residual):
            raise InternalInvariantError("kernel vector fails M*v = 0")
        basis.append(polys)
    return basis


def solve(m: Sequence[Sequence[MultiPoly]], b: Sequence[MultiPoly]) -> list[RatFunc]:
    """Solve a square generically-invertible system by Cramer's rule."""
    n = len(m)
    d = det(m)
    if d.is_zero():
        raise ValueError("coefficient matrix is singular over the fraction field")
    out = []
    for j in range(n):
        col = [[b[i] if k == j else m[i][k] for k in range(n)] for i in range(n)]
        out.append(RatFunc(det(col), d))
    return out


def adjugate(m: Sequence[Sequence[MultiPoly]]) -> PolyMatrix:
    """Transposed cofactor matrix, so that m * adjugate(m) = det(m) * I."""
    n = len(m)
    if n == 1:
        return [[MultiPoly.constant(m[0][0].vars, 1)]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = [
                [m[a][b] for b in range(n) if b != i]
                for a in range(n)
                if a != j
            ]
            cof = det(sub)
            row.append(cof if (i + j) % 2 == 0 else -cof)
        adj.append(row)
    return adj


def ratfunc_solve(
    columns: Sequence[Sequence[MultiPoly]], target: Sequence[MultiPoly]
) -> list[RatFunc] | None:
    """Coefficients expressing target in the given polynomial columns, or None.

    The columns are assumed independent over the fraction field, so any
    representation is unique.
    """
    ncols = len(columns)
    aug = [
        [columns[j][i] for j in range(ncols)] + [target[i]]
        for i in range(len(target))
    ]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return None
    zero = RatFunc(MultiPoly.zero(target[0].vars))
    sol = [zero] * ncols
    for a, c in enumerate(pivots):
        sol[c] = rows[a][-1]
    return sol


# ---------------------------------------------------------------------------
# Fraction matrices (pointwise computations)
# ---------------------------------------------------------------------------

FracMatrix = list[list[Fraction]]


def frac_rref(m: Sequence[Sequence[Fraction]]):
    """Canonical reduced row echelon form of a Fraction matrix.

    Returns (rows, pivot_cols) with zero rows dropped; equal row spaces give
    identical output, so this doubles as a canonical form.
    """
    rows = [[Fraction(x) for x in row] for row in m]
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


def frac_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            result = -result
        result *= rows[c][c]
        inv = rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def frac_solve(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Coefficients expressing target in the given column vectors, or None.

    The columns are assumed independent, so a representation is unique.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
        for i in range(nrows)
    ]
    rows, pivots = frac_rref(aug)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for a, c in enumerate(pivots):
        sol[c] = rows[a][-1]
    return sol


def frac_kernel(m: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel of a Fraction matrix, one vector per free column."""
    if ncols is None:
        if not m:
            raise ValueError("cannot infer the column count of an empty matrix")
        ncols = len(m[0])
    rows, pivots = frac_rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for a, c in enumerate(pivots):
            vec[c] = -rows[a][f]
        basis.append(vec)
    return basis
