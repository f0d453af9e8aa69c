"""Anchored bundles and almost Lie algebroids over polynomial coordinates.

A bundle is trivialized, A = M x Q^n, with M an affine coordinate space; the
anchor is a d-by-n polynomial matrix whose column j is the vector field
rho(e_j).  An almost Lie algebroid adds structure sections c_ij = [e_i, e_j]
for i < j; the bracket of arbitrary sections is the Leibniz extension and is
never stored.  Everything here is exact: points are Fraction vectors, kernels
are canonical subspaces, and generic ranks live over the fraction field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .grassmann import Subspace
from .linalg import (
    eval_matrix,
    frac_rank,
    frac_solve,
    kernel_basis,
    minors,
    poly_mat_vec,
    rank,
)
from .poly import ArityMismatchError, InternalInvariantError, MultiPoly

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
    mutated after construction, so its generic rank is computed once and kept.
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

    def basis_section(self, i: int) -> Section:
        one = MultiPoly.constant(self.base_vars, 1)
        return [one if j == i else self.zero_poly() for j in range(self.fiber_rank)]

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlmostLieAlgebroid):
            return NotImplemented
        return self.bundle == other.bundle and self.structure == other.structure


def _bundle_of(a) -> AnchoredBundle:
    return a.bundle if isinstance(a, AlmostLieAlgebroid) else a


def vf_bracket(x_field: Sequence[MultiPoly], y_field: Sequence[MultiPoly]) -> VectorField:
    """Commutator of vector fields: [X,Y]^k = sum_i X^i d_i Y^k - Y^i d_i X^k."""
    if len(x_field) != len(y_field):
        raise ArityMismatchError("vector fields of different lengths")
    vs = x_field[0].vars
    if len(x_field) != len(vs):
        raise ArityMismatchError(
            f"vector field of length {len(x_field)} over {len(vs)} coordinates"
        )
    out = []
    for k in range(len(vs)):
        acc = MultiPoly.zero(vs)
        for i, v in enumerate(vs):
            acc = acc + x_field[i] * y_field[k].diff(v) - y_field[i] * x_field[k].diff(v)
        out.append(acc)
    return out


def lie_derivative(field: Sequence[MultiPoly], f: MultiPoly) -> MultiPoly:
    """Derivative of a function along a vector field."""
    acc = MultiPoly.zero(f.vars)
    for comp, v in zip(field, f.vars):
        acc = acc + comp * f.diff(v)
    return acc


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
    for (i, j), c in sorted(algebroid.structure.items()):
        coeff = a[i] * b[j] - a[j] * b[i]
        if coeff:
            out = [o + coeff * ck for o, ck in zip(out, c)]
    return out


def validate_anchor_morphism(algebroid: AlmostLieAlgebroid) -> list[VectorField]:
    """Defect R*c_ij - [rho(e_i), rho(e_j)] for each pair i < j, in pair order.

    All-zero defects mean the anchor is a bracket morphism on the frame (and
    then, by Leibniz, on all sections).
    """
    bundle = algebroid.bundle
    cols = [
        [bundle.anchor[row][col] for row in range(bundle.base_dim)]
        for col in range(bundle.fiber_rank)
    ]
    defects = []
    for i in range(bundle.fiber_rank):
        for j in range(i + 1, bundle.fiber_rank):
            lhs = bundle.anchor_of_section(algebroid.structure_section(i, j))
            rhs = vf_bracket(cols[i], cols[j])
            defects.append([p - q for p, q in zip(lhs, rhs)])
    return defects


def morphism_defect_pairs(algebroid: AlmostLieAlgebroid) -> list[tuple[int, int]]:
    """Index pairs whose morphism defect is nonzero (scanned once per instance)."""
    if algebroid._defect_pairs is None:
        pairs = combinations(range(algebroid.bundle.fiber_rank), 2)
        algebroid._defect_pairs = [
            pair
            for pair, defect in zip(pairs, validate_anchor_morphism(algebroid))
            if any(not p.is_zero() for p in defect)
        ]
    return list(algebroid._defect_pairs)


def jacobiator(algebroid: AlmostLieAlgebroid, i: int, j: int, k: int) -> Section:
    """[[e_i,e_j],e_k] + [[e_k,e_i],e_j] + [[e_j,e_k],e_i]; zero iff Jacobi
    holds on this triple."""
    n = algebroid.bundle.fiber_rank
    for idx in (i, j, k):
        if not 0 <= idx < n:
            raise IndexError(f"basis index {idx} out of range for rank {n}")
    e = algebroid.bundle.basis_section
    total = [algebroid.bundle.zero_poly()] * n
    for a, b, c in ((i, j, k), (k, i, j), (j, k, i)):
        inner = section_bracket(algebroid, e(a), e(b))
        term = section_bracket(algebroid, inner, e(c))
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


def anchor_rank_generic(a) -> int:
    """Rank of the anchor over the fraction field of the base (computed once
    per bundle)."""
    bundle = _bundle_of(a)
    if bundle._generic_rank is None:
        bundle._generic_rank = rank(bundle.anchor) if bundle.fiber_rank else 0
    return bundle._generic_rank


def kernel_at(a, x: Point) -> Subspace:
    """Kernel of the anchor evaluated at a rational point, in canonical form."""
    bundle = _bundle_of(a)
    from .linalg import frac_kernel

    vectors = frac_kernel(bundle.anchor_at(x), bundle.fiber_rank)
    return Subspace(bundle.fiber_rank, vectors)


def rank_at(a, x: Point) -> int:
    bundle = _bundle_of(a)
    return frac_rank(bundle.anchor_at(x))


def singular_locus(a) -> list[MultiPoly]:
    """The r-by-r minors of the anchor, r its generic rank.

    A point is singular exactly when every returned minor vanishes there.
    """
    bundle = _bundle_of(a)
    r = anchor_rank_generic(bundle)
    if r == 0:
        return []
    return minors(bundle.anchor, r)


def is_regular_point(a, x: Point) -> bool:
    bundle = _bundle_of(a)
    return rank_at(bundle, x) == anchor_rank_generic(bundle)


def generic_kernel_sections(a) -> list[Section]:
    """Polynomial sections spanning ker(anchor) over the fraction field.

    These generate the kernel at every regular point; at singular points they
    may span less than the pointwise kernel (that gap is the whole story of
    the strong kernel).
    """
    bundle = _bundle_of(a)
    if anchor_rank_generic(bundle) == bundle.fiber_rank:
        return []
    return kernel_basis(bundle.anchor)


def strong_kernel_at(a, kernel_gens: Sequence[Sequence[MultiPoly]], x: Point) -> Subspace:
    """Span of the values at x of validated kernel-module generators.

    Every generator must satisfy R*g = 0 identically (NotInKernelModuleError
    names the first offender).  Completeness of the generator set is the
    caller's responsibility.
    """
    bundle = _bundle_of(a)
    for idx, g in enumerate(kernel_gens):
        if any(not p.is_zero() for p in bundle.anchor_of_section(list(g))):
            raise NotInKernelModuleError(idx)
    values = [[p.eval(x) for p in g] for g in kernel_gens]
    return Subspace(bundle.fiber_rank, values)


def pointwise_kernel_bracket(
    algebroid: AlmostLieAlgebroid,
    x: Point,
    u: Sequence[Fraction],
    v: Sequence[Fraction],
) -> list[Fraction]:
    """The bracket ker rho_x x ker rho_x -> ker rho_x, sum u_i v_j c_ij(x)."""
    bundle = algebroid.bundle
    ax = bundle.anchor_at(x)

    def in_kernel(w):
        return all(
            sum(ax[row][col] * w[col] for col in range(bundle.fiber_rank)) == 0
            for row in range(bundle.base_dim)
        )

    if not in_kernel(u) or not in_kernel(v):
        raise NotInKernelError(f"argument not in the anchor kernel at {list(x)}")
    out = [Fraction(0)] * bundle.fiber_rank
    for (i, j), c in sorted(algebroid.structure.items()):
        coeff = u[i] * v[j] - u[j] * v[i]
        if coeff:
            out = [o + coeff * ck.eval(x) for o, ck in zip(out, c)]
    if not in_kernel(out):
        raise InternalInvariantError("pointwise bracket left the kernel")
    return out


@dataclass(frozen=True)
class IsotropyAlgebra:
    """The quotient ker rho_x / Sker rho_x with its induced Lie bracket.

    ``basis`` holds kernel vectors representing the quotient classes;
    ``structure[(a,b)]`` gives [basis_a, basis_b] in quotient coordinates.
    """

    dim: int
    basis: tuple[tuple[Fraction, ...], ...]
    structure: dict[tuple[int, int], tuple[Fraction, ...]]
    kernel: Subspace
    strong_kernel: Subspace


def isotropy_algebra_at(
    algebroid: AlmostLieAlgebroid,
    kernel_gens: Sequence[Sequence[MultiPoly]],
    x: Point,
    check_jacobi: bool = True,
) -> IsotropyAlgebra:
    """Isotropy Lie algebra at a point.

    Representatives are the kernel RREF rows that extend the strong kernel;
    well-definedness ([Sker, ker]_x inside Sker) is verified and failure
    raises WellDefinednessFailureError.  When the input passes the Jacobi
    scan, the quotient constants are checked against Jacobi numerically.
    """
    bundle = algebroid.bundle
    ker = kernel_at(bundle, x)
    sker = strong_kernel_at(bundle, kernel_gens, x)
    if not ker.contains_subspace(sker):
        # cannot happen for validated generators; guards evaluation slips
        raise NotInKernelError("strong kernel escapes the kernel")
    for s in sker.rows:
        for u in ker.rows:
            w = pointwise_kernel_bracket(algebroid, x, s, u)
            if not sker.contains(w):
                raise WellDefinednessFailureError(
                    f"[Sker, ker] leaves Sker at {list(x)}; "
                    "the kernel generator set is incomplete or wrong"
                )
    reps: list[tuple[Fraction, ...]] = []
    current = [list(r) for r in sker.rows]
    for row in ker.rows:
        if frac_rank(current + [list(row)]) > len(current):
            reps.append(row)
            current.append(list(row))
    dim = ker.dim - sker.dim
    if len(reps) != dim:
        raise InternalInvariantError("quotient representatives miss the quotient dimension")
    columns = [list(r) for r in sker.rows] + [list(r) for r in reps]
    structure: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            w = pointwise_kernel_bracket(algebroid, x, reps[a], reps[b])
            sol = frac_solve(columns, w)
            if sol is None:
                raise WellDefinednessFailureError(
                    "bracket of representatives escaped the kernel span"
                )
            structure[(a, b)] = tuple(sol[sker.dim :])
    if check_jacobi and is_lie_algebroid(algebroid):
        _assert_jacobi_numeric(structure, dim)
    return IsotropyAlgebra(
        dim=dim,
        basis=tuple(reps),
        structure=structure,
        kernel=ker,
        strong_kernel=sker,
    )


def _constant_table(structure, dim) -> list[list[tuple[Fraction, ...]]]:
    """table[a][b] = [basis_a, basis_b] in quotient coordinates, skew-extended."""
    zero = (Fraction(0),) * dim
    table = [[zero] * dim for _ in range(dim)]
    for (a, b), coeffs in structure.items():
        table[a][b] = tuple(coeffs)
        table[b][a] = tuple(-c for c in coeffs)
    return table


def _assert_jacobi_numeric(structure, dim) -> None:
    g = _constant_table(structure, dim)
    for a, b, c in combinations(range(dim), 3):
        gab, gbc, gca = g[a][b], g[b][c], g[c][a]
        for f in range(dim):
            total = sum(
                gab[e] * g[e][c][f] + gbc[e] * g[e][a][f] + gca[e] * g[e][b][f]
                for e in range(dim)
            )
            if total != 0:
                raise InternalInvariantError("quotient constants violate Jacobi")


def linear_lift(algebroid: AlmostLieAlgebroid, a: Sequence[MultiPoly]):
    """Base field and fiber matrix of the linear lift of a section.

    Returns (X, B) with X = R*a and B[k][j] = -(coefficient of e_k in
    [a, e_j]).  For constant sections of an action algebroid B is the negative
    adjoint matrix.
    """
    bundle = algebroid.bundle
    n = bundle.fiber_rank
    x_field = bundle.anchor_of_section(list(a))
    b_matrix = [[bundle.zero_poly()] * n for _ in range(n)]
    for j in range(n):
        col = section_bracket(algebroid, list(a), bundle.basis_section(j))
        for k in range(n):
            b_matrix[k][j] = -col[k]
    return x_field, b_matrix
