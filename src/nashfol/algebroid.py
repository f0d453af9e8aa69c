"""Anchored bundles and almost Lie algebroids over polynomial coordinates.

A bundle is trivialized, A = M x Q^n, with M an affine coordinate space; the
anchor is a d-by-n polynomial matrix whose column j is the vector field
rho(e_j).  An almost Lie algebroid adds structure sections c_ij = [e_i, e_j]
for i < j; the bracket of arbitrary sections is the Leibniz extension and is
never stored.  Everything here is exact: points are Fraction vectors, kernels
are canonical subspaces, and generic ranks live over the fraction field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .grassmann import Subspace
from .linalg import (
    eval_matrix,
    frac_kernel,
    frac_rref,
    independent_rows,
    kernel_basis,
    minors,
    poly_mat_vec,
    rank,
)
from .poly import ArityMismatchError, InternalInvariantError, MultiPoly, check_ring, dot, point_text

Section = list[MultiPoly]
VectorField = list[MultiPoly]
Point = Sequence[Fraction]


class NotInKernelModuleError(ValueError):
    """A claimed kernel generator fails R*g = 0 identically."""

    def __init__(self, index: int):
        super().__init__(f"generator {index} is not annihilated by the anchor")
        self.index = index


class NotInKernelError(ValueError):
    """A pointwise vector is not in the kernel of the evaluated anchor."""


class WellDefinednessFailureError(ValueError):
    """[Sker, ker] escapes Sker at the point: the pointwise bracket does not
    descend to the quotient (usually an incomplete kernel generator set)."""


class AnchoredBundle:
    """A trivialized bundle with a polynomial anchor matrix.

    ``anchor`` has one row per base coordinate and one column per frame
    section; entries are MultiPoly over ``base_vars``.  The bundle is never
    mutated after construction, so its generic rank and its pivot rows (the
    first rows that span the anchor's row space, `anchor_row_basis`) are
    computed once and kept.
    """

    def __init__(self, base_vars: Sequence[str], anchor: Sequence[Sequence[MultiPoly]]):
        vs = tuple(base_vars)
        rows = [list(r) for r in anchor]
        if len(rows) != len(vs):
            raise ArityMismatchError(
                f"anchor has {len(rows)} rows for {len(vs)} base variables"
            )
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ArityMismatchError("anchor rows have unequal lengths")
            for entry in r:
                if entry.vars != vs:
                    raise ArityMismatchError(
                        f"anchor entry over {entry.vars}, expected {vs}"
                    )
        self.base_vars = vs
        self.anchor = rows
        self._generic_rank: int | None = None
        self._pivot_rows: tuple[int, ...] | None = None

    @property
    def base_dim(self) -> int:
        return len(self.base_vars)

    @property
    def fiber_rank(self) -> int:
        return len(self.anchor[0]) if self.anchor else 0

    def zero_poly(self) -> MultiPoly:
        return MultiPoly.zero(self.base_vars)

    def anchor_of_section(self, a: Sequence[MultiPoly]) -> VectorField:
        if len(a) != self.fiber_rank:
            raise ArityMismatchError(
                f"section of length {len(a)}, fiber rank is {self.fiber_rank}"
            )
        return poly_mat_vec(self.anchor, list(a))

    def anchor_at(self, x: Point) -> list[list[Fraction]]:
        return eval_matrix(self.anchor, x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnchoredBundle):
            return NotImplemented
        return self.base_vars == other.base_vars and self.anchor == other.anchor


class AlmostLieAlgebroid:
    """An anchored bundle with structure sections c_ij = [e_i, e_j], i < j.

    Never mutated after construction: the morphism defect scan and the Lie
    verdict are computed once per instance and kept on it.
    """

    def __init__(
        self,
        bundle: AnchoredBundle,
        structure: dict[tuple[int, int], Sequence[MultiPoly]],
    ):
        n = bundle.fiber_rank
        clean: dict[tuple[int, int], Section] = {}
        for (i, j), section in structure.items():
            if not (0 <= i < j < n):
                raise ValueError(f"structure pair ({i},{j}) out of range for n={n}")
            sec = list(section)
            if len(sec) != n:
                raise ArityMismatchError(
                    f"structure section for ({i},{j}) has length {len(sec)}, not {n}"
                )
            if any(p for p in sec):
                clean[(i, j)] = sec
        self.bundle = bundle
        self.structure = clean
        self._defect_pairs: list[tuple[int, int]] | None = None
        self._lie: bool | None = None

    def structure_section(self, i: int, j: int) -> Section:
        """[e_i, e_j] with the skew extension to arbitrary index order."""
        n = self.bundle.fiber_rank
        if i == j:
            return [self.bundle.zero_poly()] * n
        if i < j:
            sec = self.structure.get((i, j))
            return list(sec) if sec else [self.bundle.zero_poly()] * n
        return [-p for p in self.structure_section(j, i)]


def vf_bracket(x_field: Sequence[MultiPoly], y_field: Sequence[MultiPoly]) -> VectorField:
    """Commutator of vector fields: [X,Y]^k = sum_i X^i d_i Y^k - Y^i d_i X^k."""
    if len(x_field) != len(y_field):
        raise ArityMismatchError("vector fields of different lengths")
    vs = x_field[0].vars
    if len(x_field) != len(vs):
        raise ArityMismatchError(
            f"vector field of length {len(x_field)} over {len(vs)} coordinates"
        )
    return [
        lie_derivative(x_field, yk) - lie_derivative(y_field, xk)
        for xk, yk in zip(x_field, y_field)
    ]


def lie_derivative(field: Sequence[MultiPoly], f: MultiPoly) -> MultiPoly:
    """Derivative of a function along a vector field, sum_v field_v * df/dv:
    one `dot`, with df/dv taken only where field_v is nonzero."""
    if not f:  # every partial is zero
        check_ring(f.vars, field)
        return f
    zero = MultiPoly.zero(f.vars)
    return dot(field, [f.diff(v) if comp else zero for comp, v in zip(field, f.vars)])


def _plus_structure(out: Section, terms: list[tuple[MultiPoly, Section]]) -> Section:
    """out + sum coeff * section over the (coeff, section) terms, the structure
    sum of a Leibniz bracket: one `dot` for each component that a section with
    a nonzero coefficient reaches."""
    terms = [(coeff, sec) for coeff, sec in terms if coeff]
    if not terms:
        return out
    coeffs, sections = zip(*terms)
    return [o + dot(coeffs, col) if any(col) else o for o, col in zip(out, zip(*sections))]


def section_bracket(
    algebroid: AlmostLieAlgebroid, a: Sequence[MultiPoly], b: Sequence[MultiPoly]
) -> Section:
    """Leibniz extension of the frame bracket to arbitrary sections."""
    bundle = algebroid.bundle
    n = bundle.fiber_rank
    if len(a) != n or len(b) != n:
        raise ArityMismatchError("section length does not match the fiber rank")
    rho_a = bundle.anchor_of_section(a)
    rho_b = bundle.anchor_of_section(b)
    out = [lie_derivative(rho_a, b[k]) - lie_derivative(rho_b, a[k]) for k in range(n)]
    pairs = sorted(algebroid.structure.items())
    return _plus_structure(out, [(a[i] * b[j] - a[j] * b[i], c) for (i, j), c in pairs])


def bracket_with_basis(algebroid: AlmostLieAlgebroid, s: Sequence[MultiPoly], c: int) -> Section:
    """[s, e_c] = sum_m s_m [e_m, e_c] - rho(e_c)(s_m) e_m: the Leibniz bracket
    with a basis section, from one anchor column and O(r) structure lookups."""
    n = algebroid.bundle.fiber_rank
    if len(s) != n:
        raise ArityMismatchError("section length does not match the fiber rank")
    if not 0 <= c < n:
        raise IndexError(f"basis index {c} out of range for rank {n}")
    column = [row[c] for row in algebroid.bundle.anchor]
    out = [-lie_derivative(column, p) if p else p for p in s]
    terms = []
    for m, coeff in enumerate(s):
        # [e_m, e_c] is c_mc, or -c_cm when m > c
        sec = algebroid.structure.get((m, c) if m < c else (c, m)) if coeff else None
        if sec:
            terms.append((coeff if m < c else -coeff, sec))
    return _plus_structure(out, terms)


def morphism_defect_pairs(algebroid: AlmostLieAlgebroid) -> list[tuple[int, int]]:
    """Pairs i < j, in pair order, whose morphism defect R*c_ij - [rho(e_i),
    rho(e_j)] is nonzero (scanned once per instance).

    No pair means the anchor is a bracket morphism on the frame (and then, by
    Leibniz, on all sections).
    """
    if algebroid._defect_pairs is None:
        bundle = algebroid.bundle
        cols = [[row[c] for row in bundle.anchor] for c in range(bundle.fiber_rank)]
        algebroid._defect_pairs = [
            (i, j)
            for i, j in combinations(range(bundle.fiber_rank), 2)
            if bundle.anchor_of_section(algebroid.structure_section(i, j))
            != vf_bracket(cols[i], cols[j])
        ]
    return list(algebroid._defect_pairs)


def jacobiator(algebroid: AlmostLieAlgebroid, i: int, j: int, k: int) -> Section:
    """[[e_i,e_j],e_k] + [[e_k,e_i],e_j] + [[e_j,e_k],e_i]; zero iff Jacobi
    holds on this triple (bracket_with_basis range-checks each index)."""
    total = [algebroid.bundle.zero_poly()] * algebroid.bundle.fiber_rank
    for a, b, c in ((i, j, k), (k, i, j), (j, k, i)):
        # [e_a, e_b] is the structure section c_ab itself.
        term = bracket_with_basis(algebroid, algebroid.structure_section(a, b), c)
        total = [t + s for t, s in zip(total, term)]
    return total


def is_lie_algebroid(algebroid: AlmostLieAlgebroid) -> bool:
    """Anchor morphism plus Jacobi on all frame triples (scanned once per
    instance)."""
    if algebroid._lie is None:
        algebroid._lie = not morphism_defect_pairs(algebroid) and not any(
            any(not p.is_zero() for p in jacobiator(algebroid, i, j, k))
            for i, j, k in combinations(range(algebroid.bundle.fiber_rank), 3)
        )
    return algebroid._lie


def anchor_rank_generic(bundle: AnchoredBundle) -> int:
    """Rank of the anchor over the fraction field of the base (computed once
    per bundle)."""
    if bundle._generic_rank is None:
        bundle._generic_rank = rank(bundle.anchor) if bundle.fiber_rank else 0
    return bundle._generic_rank


def anchor_row_basis(bundle: AnchoredBundle) -> tuple[int, ...]:
    """The indices of the anchor's pivot rows: the lexicographically first r
    rows independent over the fraction field of the base, r the generic rank
    (`linalg.independent_rows`, computed once per bundle).  They span the
    anchor's row space over that field, and over Q(t) along every arc on
    which one of their r-by-r minors is nonzero."""
    if bundle._pivot_rows is None:
        rows = tuple(independent_rows(bundle.anchor))
        if len(rows) != anchor_rank_generic(bundle):
            raise InternalInvariantError("anchor pivot rows miss the generic rank")
        bundle._pivot_rows = rows
    return bundle._pivot_rows


def kernel_at(bundle: AnchoredBundle, x: Point) -> Subspace:
    """Kernel of the anchor evaluated at a rational point, in canonical form."""
    vectors = frac_kernel(bundle.anchor_at(x), bundle.fiber_rank)
    return Subspace(bundle.fiber_rank, vectors)


def singular_locus(bundle: AnchoredBundle) -> list[MultiPoly]:
    """The r-by-r minors of the anchor, r its generic rank.

    A point is singular exactly when every returned minor vanishes there.
    """
    r = anchor_rank_generic(bundle)
    if r == 0:
        return []
    return minors(bundle.anchor, r)


def generic_kernel_sections(bundle: AnchoredBundle) -> list[Section]:
    """Polynomial sections spanning ker(anchor) over the fraction field.

    They are a basis over the fraction field (`kernel_basis`), not a
    generating set: their values span ker rho_x where the pivot minor of the
    elimination is nonzero, and elsewhere may span less, at a regular point
    too (gl3 at (0, 1, 0)).  A scenario's `kernel_gens` can supply a
    generating set.
    """
    if anchor_rank_generic(bundle) == bundle.fiber_rank:
        return []
    return kernel_basis(bundle.anchor)


def strong_kernel_at(
    bundle: AnchoredBundle, kernel_gens: Sequence[Sequence[MultiPoly]], x: Point
) -> Subspace:
    """Span of the values at x of validated kernel-module generators.

    Every generator must satisfy R*g = 0 identically (NotInKernelModuleError
    names the first offender).  Completeness of the generator set is the
    caller's responsibility.
    """
    for idx, g in enumerate(kernel_gens):
        if any(not p.is_zero() for p in bundle.anchor_of_section(list(g))):
            raise NotInKernelModuleError(idx)
    values = [[p.eval(x) for p in g] for g in kernel_gens]
    return Subspace(bundle.fiber_rank, values)


@dataclass(frozen=True)
class IsotropyAlgebra:
    """The quotient ker rho_x / Sker rho_x with its induced Lie bracket.

    ``basis`` holds kernel vectors representing the quotient classes;
    ``structure[(a,b)]`` gives [basis_a, basis_b] in quotient coordinates.
    ``row_coordinates[i]`` gives the quotient coordinates of kernel row i.
    """

    dim: int
    basis: tuple[tuple[Fraction, ...], ...]
    structure: dict[tuple[int, int], tuple[Fraction, ...]]
    kernel: Subspace
    strong_kernel: Subspace
    row_coordinates: tuple[tuple[Fraction, ...], ...] = field(repr=False, compare=False)

    def coordinates(self, w: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
        """Quotient coordinates of w, None outside the kernel.  A kernel
        vector is sum_i w[p_i] * row_i over the RREF rows and their pivots."""
        if not self.kernel.contains(w):
            return None
        out = [Fraction(0)] * self.dim
        for c, row in zip(self.kernel.pivots, self.row_coordinates):
            if w[c]:
                out = [o + w[c] * q for o, q in zip(out, row)]
        return tuple(out)


def _quotient_basis(sker: Subspace, ker: Subspace):
    """Representatives of ker / sker and the quotient coordinates of each
    kernel row, from one elimination of the matrix whose columns are the Sker
    rows, then the kernel rows: its pivot columns past Sker are the kernel rows
    that extend Sker, which follow the Sker rows in a basis of ker adapted to
    Sker, and column p + i is kernel row i in that basis."""
    p = sker.dim
    echelon, pivots = frac_rref(list(zip(*sker.rows, *ker.rows)))
    reps = tuple(ker.rows[c - p] for c in pivots[p:])
    row_coordinates = tuple(
        tuple(echelon[p + b][p + i] for b in range(len(reps))) for i in range(ker.dim)
    )
    return reps, row_coordinates


def _pointwise_brackets(algebroid: AlmostLieAlgebroid, x: Point, vectors):
    """[v_i, v_j] = sum_{k<l} (v_i[k] v_j[l] - v_i[l] v_j[k]) c_kl(x) for each
    pair i < j of the vectors, keyed (i, j), with every c_kl evaluated at x
    once.  Nothing is checked: the caller checks each value once."""
    structure = sorted(algebroid.structure.items())
    constants = [(k, l, [c.eval(x) for c in sec]) for (k, l), sec in structure]
    out = {}
    for i, j in combinations(range(len(vectors)), 2):
        u, v = vectors[i], vectors[j]
        value = [Fraction(0)] * algebroid.bundle.fiber_rank
        for k, l, c in constants:
            coeff = u[k] * v[l] - u[l] * v[k]
            if coeff:
                value = [o + coeff * ck for o, ck in zip(value, c)]
        out[(i, j)] = value
    return out


def isotropy_algebra_at(
    algebroid: AlmostLieAlgebroid,
    kernel_gens: Sequence[Sequence[MultiPoly]],
    x: Point,
) -> IsotropyAlgebra:
    """Isotropy Lie algebra at a point.

    Representatives are the kernel RREF rows that extend the strong kernel.
    Each bracket of the adapted basis (Sker rows, then representatives) is
    taken once and mapped to quotient coordinates once, which checks that it
    lies in the kernel.  The bracket is bilinear and skew, so [Sker, ker]_x
    lies in Sker exactly when every bracket with a Sker row has zero
    coordinates (else WellDefinednessFailureError); those of two
    representatives are the structure constants.  When the input passes the
    Jacobi scan, the constants are checked against Jacobi numerically.
    """
    bundle = algebroid.bundle
    ker = kernel_at(bundle, x)
    sker = strong_kernel_at(bundle, kernel_gens, x)
    if not ker.contains_subspace(sker):
        # cannot happen for validated generators; guards evaluation slips
        raise NotInKernelError("strong kernel escapes the kernel")
    reps, row_coordinates = _quotient_basis(sker, ker)
    dim = ker.dim - sker.dim
    if len(reps) != dim:
        raise InternalInvariantError("quotient representatives miss the quotient dimension")
    iso = IsotropyAlgebra(dim, reps, {}, ker, sker, row_coordinates)
    p = sker.dim
    for (i, j), value in _pointwise_brackets(algebroid, x, sker.rows + reps).items():
        coords = iso.coordinates(value)
        if coords is None:
            raise InternalInvariantError("pointwise bracket left the kernel")
        if i >= p:
            iso.structure[(i - p, j - p)] = coords
        elif any(coords):
            raise WellDefinednessFailureError(
                f"[Sker, ker] leaves Sker at {point_text(x)}; "
                "the kernel generator set is incomplete or wrong"
            )
    if is_lie_algebroid(algebroid):
        _assert_jacobi_numeric(iso.structure, dim)
    return iso


def _constant_table(structure, dim) -> list[list[tuple[tuple[int, Fraction], ...]]]:
    """table[a][b] = the nonzero (e, coefficient) terms of [basis_a, basis_b] in
    quotient coordinates, skew-extended."""
    table = [[()] * dim for _ in range(dim)]
    for (a, b), coeffs in structure.items():
        terms = tuple((e, c) for e, c in enumerate(coeffs) if c)
        table[a][b], table[b][a] = terms, tuple((e, -c) for e, c in terms)
    return table


def _assert_jacobi_numeric(structure, dim) -> None:
    """Jacobi on every triple, summed over the nonzero constants only."""
    g = _constant_table(structure, dim)
    for a, b, c in combinations(range(dim), 3):
        total = [Fraction(0)] * dim
        for inner, outer in ((g[a][b], c), (g[b][c], a), (g[c][a], b)):
            for e, coeff in inner:
                for f, ge in g[e][outer]:
                    total[f] += coeff * ge
        if any(total):
            raise InternalInvariantError("quotient constants violate Jacobi")
