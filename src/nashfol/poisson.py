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

from .algebroid import AlmostLieAlgebroid, AnchoredBundle
from .poly import ArityMismatchError, MultiPoly


class NotSkewError(ValueError):
    """The component matrix of a claimed bivector is not antisymmetric."""


class Bivector:
    """A polynomial bivector as its d-by-d antisymmetric component matrix."""

    def __init__(self, variables: Sequence[str], matrix: Sequence[Sequence[MultiPoly]]):
        vs = tuple(variables)
        rows = [list(r) for r in matrix]
        d = len(vs)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ArityMismatchError(f"bivector matrix must be {d}x{d}")
        for i in range(d):
            for j in range(d):
                if not (rows[i][j] + rows[j][i]).is_zero():
                    raise NotSkewError(f"entries ({i},{j}) and ({j},{i}) are not opposite")
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


def cotangent_algebroid(pi: Bivector) -> AlmostLieAlgebroid:
    """The algebroid on coordinate differentials induced by the bivector.

    Its anchor is a bracket morphism exactly when [pi, pi] = 0, so the
    bivector is Poisson iff ``morphism_defect_pairs`` finds no pair.
    """
    bundle = pi_sharp(pi)
    structure = {}
    for i in range(pi.dim):
        for j in range(i + 1, pi.dim):
            structure[(i, j)] = [-p for p in gradient(pi.entry(i, j))]
    return AlmostLieAlgebroid(bundle, structure)
