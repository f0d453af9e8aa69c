"""Rational points of Grassmannians: canonical subspaces and Pluecker coordinates.

A Subspace is stored as the reduced row echelon form of its spanning set, so
equal subspaces are equal objects coordinate by coordinate.  PlueckerVector
holds the projective embedding as a primitive integer tuple (first nonzero
entry positive); `unpluecker` inverts the embedding and rejects inputs that
are not decomposable by round-trip verification.

Every Pluecker vector comes from one Laplace table of size at most n/2
(`linalg.integer_minors`), never costlier than one elimination per minor:
past n/2 the table is the annihilator's, by the duality of Gr(k, n) and
Gr(n-k, n) (Hodge and Pedoe, Methods of Algebraic Geometry I, ch. VII).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .linalg import _column_subsets, _rref_kernel, frac_rref, integer_minors
from .poly import integer_row


class NotDecomposableError(ValueError):
    """The given Pluecker coordinates do not describe any subspace."""


class Subspace:
    """A linear subspace of Q^n in canonical (RREF) form: equal subspaces
    have equal rows."""

    __slots__ = ("n", "rows", "pivots")

    def __init__(self, n: int, vectors: Iterable[Sequence[Fraction]]):
        vecs = [list(v) for v in vectors]
        for v in vecs:
            if len(v) != n:
                raise ValueError(f"vector of length {len(v)} in Q^{n}")
        rows, pivots = frac_rref(vecs)
        self.n = n
        self.rows = tuple(tuple(row) for row in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def _from_rref(
        cls, n: int, rows: Sequence[Sequence[Fraction]], pivots: Sequence[int]
    ) -> "Subspace":
        """The subspace of rows already in reduced row echelon form with
        these pivots, taken as they are: what `frac_rref` would return."""
        sub = object.__new__(cls)
        sub.n = n
        sub.rows = tuple(tuple(row) for row in rows)
        sub.pivots = tuple(pivots)
        return sub

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Subspace({self.n}, dim={self.dim})"

    def contains(self, vector: Sequence[Fraction]) -> bool:
        if len(vector) != self.n:
            return False
        residual = [Fraction(x) for x in vector]
        for row, c in zip(self.rows, self.pivots):
            if residual[c] != 0:
                f = residual[c]
                residual = [x - f * y for x, y in zip(residual, row)]
        return all(x == 0 for x in residual)

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.n == other.n and all(self.contains(r) for r in other.rows)

    def pluecker(self) -> "PlueckerVector":
        """The maximal minors of the RREF rows up to dim n/2; past it, those
        of the annihilator's rows, read off the RREF, and dualised back
        (`PlueckerVector.annihilator`).  Primitive integer rows scale every
        minor by one positive factor.  PlueckerVector removes all these
        global factors."""
        n = self.n
        dual = 2 * self.dim > n
        rows = _rref_kernel(self.rows, self.pivots, n) if dual else self.rows
        s = len(rows)
        coords = integer_minors([integer_row(r) for r in rows], s) if s else [1]
        pv = PlueckerVector(n, s, coords)
        return pv.annihilator() if dual else pv


class PlueckerVector:
    """Projective Pluecker coordinates of a k-plane in Q^n.

    ``coords`` lists the k-by-k minors over column subsets in lexicographic
    order; they are given as rationals and kept as their integer row
    (``poly.integer_row``) with the first nonzero entry made positive.
    """

    __slots__ = ("n", "k", "coords")

    def __init__(self, n: int, k: int, coords: Sequence[Fraction]):
        expected = comb(n, k)
        if len(coords) != expected:
            raise ValueError(
                f"expected {expected} coordinates for Gr({k}, {n}), got {len(coords)}"
            )
        ints = integer_row(coords)
        if not any(ints):
            raise ValueError("a Pluecker vector cannot be identically zero")
        sign = 1 if next(c for c in ints if c) > 0 else -1
        self.n = n
        self.k = k
        self.coords = tuple(sign * c for c in ints)

    def annihilator(self) -> "PlueckerVector":
        """The vector of the annihilator {w : v.w = 0 for every v in the
        plane}, a point of Gr(n - k, n).  Its minor on the complement of a
        column set C is (-1)^(sum C) times this plane's minor on C, up to one
        global sign and scale.  The sign is read from C, whose sum differs
        from its complement's by n(n-1)/2; complements of the k-subsets in
        lexicographic order run in reverse lexicographic order.  A signed
        permutation of a primitive integer vector is primitive, so only the
        first nonzero entry's sign is fixed, with no `integer_row`.  Taken
        twice, it gives back this vector."""
        sets = _column_subsets(self.n, self.k)[0]
        coords = [-q if sum(c) % 2 else q for c, q in zip(sets, self.coords)][::-1]
        if next(q for q in coords if q) < 0:
            coords = [-q for q in coords]
        pv = object.__new__(PlueckerVector)
        pv.n, pv.k, pv.coords = self.n, self.n - self.k, tuple(coords)
        return pv

    def first_nonzero(self) -> int:
        return next(i for i, c in enumerate(self.coords) if c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlueckerVector):
            return NotImplemented
        return (self.n, self.k, self.coords) == (other.n, other.k, other.coords)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.coords))

    def __lt__(self, other: "PlueckerVector") -> bool:
        return (self.n, self.k, self.coords) < (other.n, other.k, other.coords)

    def __repr__(self) -> str:
        return f"PlueckerVector({self.n}, {self.k}, {list(self.coords)})"


def unpluecker(pv: PlueckerVector) -> Subspace:
    """Invert the Pluecker embedding.

    Uses the affine chart at the lexicographically first nonvanishing
    coordinate: with I = (i_0 < ... < i_{k-1}) that column set, row a of the
    basis is e_{i_a} plus, at each column j outside I, the ratio
    (-1)^(a+q) p_J / p_I where J is (I minus i_a) with j inserted and q is the
    position of j inside J.  The result is round-trip verified; coordinates
    failing verification do not lie on the Grassmannian and raise
    NotDecomposableError.  The column sets and their positions are the
    shared per-shape index of the Laplace table (`linalg._column_subsets`).

    These rows are already in reduced row echelon form with pivots I, for
    any input vector, so no elimination runs: row a is 0 at the other
    pivots by construction, and at a column j < i_a outside I its J
    replaces i_a by the smaller j, so J precedes I lexicographically and
    p_J = 0, I being the first nonzero coordinate.
    """
    n, k = pv.n, pv.k
    sets, index_of = _column_subsets(n, k)
    first = pv.first_nonzero()
    icols = sets[first]
    p_i = pv.coords[first]
    rows = []
    for a in range(k):
        row = [Fraction(0)] * n
        row[icols[a]] = Fraction(1)
        rest = icols[:a] + icols[a + 1 :]
        for j in range(n):
            if j in icols:
                continue
            jset = tuple(sorted(rest + (j,)))
            q = jset.index(j)
            row[j] = Fraction((-1) ** (a + q) * pv.coords[index_of[jset]], p_i)
        rows.append(row)
    sub = Subspace._from_rref(n, rows, icols)
    if sub.pluecker() != pv:
        raise NotDecomposableError(
            f"coordinates {list(pv.coords)} fail the Grassmannian relations"
        )
    return sub
