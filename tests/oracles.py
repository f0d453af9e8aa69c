"""Slow reference implementations that the engine's fast paths are tested
against.  They are kept here, outside the package, as the code the engine
used before each fast path replaced it."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from nashfol.linalg import frac_rank, frac_rref


def frac_solve(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> list[Fraction] | None:
    """Coefficients expressing one target in the given column vectors, or None.

    The columns are assumed independent, so a representation is unique.
    """
    ncols = len(columns)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
        for i in range(len(target))
    ]
    rows, pivots = frac_rref(aug)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for a, c in enumerate(pivots):
        sol[c] = rows[a][-1]
    return sol


def greedy_representatives(sker_rows, ker_rows) -> list[tuple[Fraction, ...]]:
    """The kernel rows that extend the strong kernel, taken in order while
    each one raises the rank: one ``frac_rank`` per kernel row."""
    reps = []
    current = [list(r) for r in sker_rows]
    for row in ker_rows:
        if frac_rank(current + [list(row)]) > len(current):
            reps.append(tuple(row))
            current.append(list(row))
    return reps
