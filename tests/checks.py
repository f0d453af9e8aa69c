"""Pointwise quantities and the paper's checks, computed for tests only.

The engine computes these inside its steps (isotropy quotients, fiber
limits, chart frames); here they stand alone so tests can assert the
paper's statements directly: the Nash limit is a Lie subalgebra of the
pointwise kernel, its image lies in the isotropy quotient with the expected
codimension, and exact kernels along an arc converge to the limit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from nashfol.algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    Point,
    VectorField,
    _constant_table,
    _kernel_bracket_at,
    anchor_rank_generic,
    bracket_with_basis,
    isotropy_algebra_at,
    kernel_at,
)
from nashfol.charts import ChartFrame
from nashfol.grassmann import PlueckerVector, Subspace
from nashfol.linalg import frac_kernel, frac_rank, poly_mat_vec
from nashfol.nash import CurveGerm
from nashfol.poisson import Bivector, gradient
from nashfol.poly import ArityMismatchError, InternalInvariantError, MultiPoly


def rank_at(bundle: AnchoredBundle, x: Point) -> int:
    return frac_rank(bundle.anchor_at(x))


def is_regular_point(bundle: AnchoredBundle, x: Point) -> bool:
    return rank_at(bundle, x) == anchor_rank_generic(bundle)


def frame_rank_at(frame: ChartFrame, point: Point) -> int:
    n = frame.nca.algebroid.bundle.fiber_rank
    return frac_rank([[col[i].eval(point) for col in frame.columns] for i in range(n)])


def pointwise_kernel_bracket(algebroid: AlmostLieAlgebroid, x: Point, u, v) -> list[Fraction]:
    """The bracket ker rho_x x ker rho_x -> ker rho_x, sum u_i v_j c_ij(x)."""
    return _kernel_bracket_at(algebroid, x)(u, v)


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
        col = bracket_with_basis(algebroid, list(a), j)
        for k in range(n):
            b_matrix[k][j] = -col[k]
    return x_field, b_matrix


def hamiltonian_vf(pi: Bivector, h: MultiPoly) -> VectorField:
    """The field R * grad(h); derivations along it are the bracket with h."""
    if h.vars != pi.vars:
        raise ArityMismatchError(f"function over {h.vars}, bivector over {pi.vars}")
    return poly_mat_vec(pi.matrix, gradient(h))


def poisson_bracket(pi: Bivector, f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """{f, g} = sum_ij pi^{ij} d_i f d_j g; the derivative of f along X_g."""
    acc = MultiPoly.zero(pi.vars)
    for i, vi in enumerate(pi.vars):
        for j, vj in enumerate(pi.vars):
            entry = pi.matrix[i][j]
            if entry:
                acc = acc + entry * f.diff(vi) * g.diff(vj)
    return acc


def schouten_self_bracket(pi: Bivector) -> dict[tuple[int, int, int], MultiPoly]:
    """Components (i<j<k) of the self-bracket [pi, pi]; identically zero iff
    pi is Poisson.  The oracle for the engine's verdict, which reads it from
    the cotangent algebroid's anchor-morphism scan instead."""
    out = {}
    d = pi.dim
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                acc = MultiPoly.zero(pi.vars)
                for l, vl in enumerate(pi.vars):
                    acc = acc + pi.entry(i, l) * pi.entry(j, k).diff(vl)
                    acc = acc + pi.entry(j, l) * (-pi.entry(i, k)).diff(vl)
                    acc = acc + pi.entry(k, l) * pi.entry(i, j).diff(vl)
                out[(i, j, k)] = acc
    return out


def is_poisson(pi: Bivector) -> bool:
    return all(p.is_zero() for p in schouten_self_bracket(pi).values())


def annihilator_duality_check(matrix: Sequence[Sequence[MultiPoly]], x: Point):
    """Whether ker of the evaluated square matrix (a bivector's sharp map)
    equals the annihilator of its image.  Returns (flag, certificate) with
    both canonical bases; skewness makes the flag true at every point."""
    d = len(matrix)
    mat = [[entry.eval(x) for entry in row] for row in matrix]
    kernel = Subspace(d, frac_kernel(mat, d))
    transpose = [[mat[j][i] for j in range(d)] for i in range(d)]
    annihilator = Subspace(d, frac_kernel(transpose, d))
    certificate = {
        "kernel": [[str(c) for c in row] for row in kernel.rows],
        "image_annihilator": [[str(c) for c in row] for row in annihilator.rows],
    }
    return kernel == annihilator, certificate


def check_limit_subalgebra(algebroid: AlmostLieAlgebroid, v: Subspace, x: Point) -> bool:
    """Whether the limit is closed under the pointwise kernel bracket."""
    bracket = _kernel_bracket_at(algebroid, x)
    for i, row_u in enumerate(v.rows):
        for row_w in v.rows[i + 1 :]:
            if not v.contains(bracket(row_u, row_w)):
                return False
    return True


def isotropy_image(
    algebroid: AlmostLieAlgebroid,
    kernel_gens,
    v: Subspace,
    x: Point,
):
    """Image of a limit in the isotropy quotient and its codimension there.

    The codimension equals generic rank minus the anchor rank at the point;
    the image is verified to be a subalgebra of the quotient constants.
    """
    iso = isotropy_algebra_at(algebroid, kernel_gens, x)
    image_vectors = [iso.coordinates(row) for row in v.rows]
    if None in image_vectors:
        raise ValueError("limit subspace escapes the kernel span")
    image = Subspace(iso.dim, image_vectors)
    codim = iso.dim - image.dim
    # the rank at x is n - dim ker(A(x)), read off the kernel isotropy computed
    expected = anchor_rank_generic(algebroid.bundle) - algebroid.bundle.fiber_rank + iso.kernel.dim
    if codim != expected:
        raise InternalInvariantError("codimension defies the rank bookkeeping")
    _assert_quotient_subalgebra(iso, image)
    return image, codim


def _assert_quotient_subalgebra(iso, image: Subspace) -> None:
    gamma = _constant_table(iso.structure, iso.dim)
    for i, u in enumerate(image.rows):
        for w in image.rows[i + 1 :]:
            bracket = [Fraction(0)] * iso.dim
            u_terms = [(aa, ua) for aa, ua in enumerate(u) if ua]
            w_terms = [(bb, wb) for bb, wb in enumerate(w) if wb]
            for aa, ua in u_terms:
                for bb, wb in w_terms:
                    for e, g in gamma[aa][bb]:
                        bracket[e] += ua * wb * g
            if not image.contains(bracket):
                raise InternalInvariantError("limit image is not a subalgebra")


def affine_chart(pv: PlueckerVector, index: int) -> tuple[Fraction, ...]:
    """Coordinates divided by coords[index]; requires that entry nonzero."""
    pivot = pv.coords[index]
    if pivot == 0:
        raise ValueError(f"coordinate {index} vanishes, not an affine chart")
    return tuple(Fraction(c, pivot) for c in pv.coords)


def convergence_errors(
    bundle: AnchoredBundle,
    curve: CurveGerm,
    limit: Subspace,
    times: Sequence[Fraction],
) -> list[Fraction]:
    """Oracle distances between the limit and exact kernels along the arc.

    For each sample time, both subspaces are put in the affine Pluecker chart
    at the limit's first nonvanishing coordinate; the error is the largest
    absolute coordinate difference.  Exact zeros mean the kernel is constant.
    """
    target = limit.pluecker()
    anchor_index = target.first_nonzero()
    reference = affine_chart(target, anchor_index)
    errors = []
    for t0 in times:
        point = [c.eval([Fraction(t0)]) for c in curve.components]
        sampled = kernel_at(bundle, point).pluecker()
        chart = affine_chart(sampled, anchor_index)
        errors.append(max(abs(p - q) for p, q in zip(chart, reference)))
    return errors
