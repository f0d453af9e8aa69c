"""Bivector fields and the algebroid structures they induce.

Convention, fixed once for the whole package: the sharp map of a bivector is
the matrix of its components taken literally, column j = the image of the
j-th coordinate differential, so the anchor entry (i, j) is pi^{ij}.  With
this reading the Hamiltonian field of h is R * grad(h) and the frame bracket
of the induced cotangent algebroid is c_ij = -grad(pi^{ij}); that sign is
forced by the anchor-morphism axiom (the literal columns are the negatives of
the contraction-convention images, and the frame flip carries the sign onto
the structure sections).
"""

from __future__ import annotations

from typing import Sequence

from .algebroid import AlmostLieAlgebroid, AnchoredBundle, Point, VectorField
from .grassmann import Subspace
from .linalg import frac_kernel, poly_mat_vec
from .poly import ArityMismatchError, MultiPoly


class NotSkewError(ValueError):
    """The component matrix of a claimed bivector is not antisymmetric."""


class Bivector:
    """A polynomial bivector as its d-by-d antisymmetric component matrix."""

    def __init__(
        self,
        variables: Sequence[str],
        matrix: Sequence[Sequence[MultiPoly]],
        validate: bool = True,
    ):
        vs = tuple(variables)
        rows = [list(r) for r in matrix]
        d = len(vs)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ArityMismatchError(f"bivector matrix must be {d}x{d}")
        if validate:
            for i in range(d):
                for j in range(d):
                    if not (rows[i][j] + rows[j][i]).is_zero():
                        raise NotSkewError(
                            f"entries ({i},{j}) and ({j},{i}) are not opposite"
                        )
        self.vars = vs
        self.matrix = rows

    @classmethod
    def from_upper_entries(
        cls, variables: Sequence[str], entries: dict[tuple[int, int], MultiPoly]
    ) -> "Bivector":
        vs = tuple(variables)
        d = len(vs)
        zero = MultiPoly.zero(vs)
        rows = [[zero] * d for _ in range(d)]
        for (i, j), p in entries.items():
            if not (0 <= i < j < d):
                raise ValueError(f"upper entry ({i},{j}) out of range for d={d}")
            rows[i][j] = p
            rows[j][i] = -p
        return cls(vs, rows)

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.matrix[i][j]

    @property
    def dim(self) -> int:
        return len(self.vars)


def pi_sharp(pi: Bivector) -> AnchoredBundle:
    """The anchored bundle whose anchor matrix is the bivector's components."""
    return AnchoredBundle(pi.vars, pi.matrix)


def gradient(p: MultiPoly) -> list[MultiPoly]:
    return [p.diff(v) for v in p.vars]


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


def cotangent_algebroid(pi: Bivector) -> AlmostLieAlgebroid:
    """The algebroid on coordinate differentials induced by the bivector."""
    bundle = pi_sharp(pi)
    structure = {}
    for i in range(pi.dim):
        for j in range(i + 1, pi.dim):
            structure[(i, j)] = [-p for p in gradient(pi.entry(i, j))]
    return AlmostLieAlgebroid(bundle, structure)


def schouten_self_bracket(pi: Bivector) -> dict[tuple[int, int, int], MultiPoly]:
    """Components (i<j<k) of the self-bracket; identically zero iff Poisson."""
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


def annihilator_duality_check(pi: Bivector, x: Point):
    """Whether ker of the evaluated sharp map equals the annihilator of its
    image.  Returns (flag, certificate) with both canonical bases; skewness
    makes the flag true at every point."""
    d = pi.dim
    mat = [[entry.eval(x) for entry in row] for row in pi.matrix]
    kernel = Subspace(d, frac_kernel(mat, d))
    transpose = [[mat[j][i] for j in range(d)] for i in range(d)]
    annihilator = Subspace(d, frac_kernel(transpose, d))
    certificate = {
        "kernel": [[str(c) for c in row] for row in kernel.rows],
        "image_annihilator": [[str(c) for c in row] for row in annihilator.rows],
    }
    return kernel == annihilator, certificate


def jacobian_bivector(phi: MultiPoly) -> Bivector:
    """The exact bivector attached to a function of three coordinates.

    Components follow the alternating pattern (d_z phi, -d_y phi, d_x phi) on
    the upper triangle, making phi itself a global conserved quantity.
    """
    if len(phi.vars) != 3:
        raise ArityMismatchError("jacobian bivector needs exactly three coordinates")
    vx, vy, vz = phi.vars
    return Bivector.from_upper_entries(
        phi.vars,
        {
            (0, 1): phi.diff(vz),
            (0, 2): -phi.diff(vy),
            (1, 2): phi.diff(vx),
        },
    )
