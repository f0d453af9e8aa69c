"""Slow reference implementations that the engine's fast paths are tested
against.  They are kept here, outside the package, as the code the engine
used before each fast path replaced it."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from nashfol.algebroid import anchor_rank_generic, bracket_with_basis, section_bracket
from nashfol.grassmann import PlueckerVector, Subspace
from nashfol.linalg import (
    _bareiss,
    det,
    frac_rank,
    frac_rref,
    kernel_basis,
    poly_mat_vec,
    rank,
)
from nashfol.nash import (
    CURVE_VAR,
    CurveGerm,
    CurveInSingularLocusError,
    _random_direction,
    _seeded_rng,
)
from nashfol.poly import (
    ArityMismatchError,
    InternalInvariantError,
    MultiPoly,
    RatFunc,
    _coeff,
    _div,
    _divmod,
    exact_div,
    exact_quotients,
)


def ratfunc_sum(a: RatFunc, b: RatFunc) -> RatFunc:
    """a + b, from the numerators and denominators."""
    return RatFunc(a.num * b.den + b.num * a.den, a.den * b.den)


def ratfunc_product(a: RatFunc, b: RatFunc) -> RatFunc:
    """a * b, from the numerators and denominators."""
    return RatFunc(a.num * b.num, a.den * b.den)


def ratfunc_quotient(a: RatFunc, b: RatFunc) -> RatFunc:
    """a / b, from the numerators and denominators (b is nonzero)."""
    return RatFunc(a.num * b.den, a.den * b.num)


def ratfunc_difference(a: RatFunc, b: RatFunc) -> RatFunc:
    """a - b, from the numerators and denominators."""
    return RatFunc(a.num * b.den - b.num * a.den, a.den * b.den)


def rref(m: Sequence[Sequence[MultiPoly]]):
    """Reduced echelon form over the fraction field.

    Returns (rows, pivot_cols) where rows are RatFunc with unit pivots and
    zeros above and below each pivot; zero rows are dropped.
    """
    ech, pivots, _ = _bareiss(m)
    rat_rows = [[RatFunc(entry) for entry in ech[a]] for a in range(len(pivots))]
    for a, c in enumerate(pivots):
        inv = rat_rows[a][c]
        rat_rows[a] = [ratfunc_quotient(entry, inv) for entry in rat_rows[a]]
    for a in range(len(pivots) - 1, -1, -1):
        c = pivots[a]
        for b in range(a):
            factor = rat_rows[b][c]
            if factor.is_zero():
                continue
            rat_rows[b] = [
                ratfunc_difference(rb, ratfunc_product(factor, ra))
                for rb, ra in zip(rat_rows[b], rat_rows[a])
            ]
    return rat_rows, pivots


def in_span_by_rref(rows: Sequence[Sequence[MultiPoly]], v: Sequence[MultiPoly]) -> bool:
    """Whether v lies in the span of the rows over the fraction field: v,
    reduced against the unit-pivot rows of ``rref`` over Q(u), leaves zero."""
    rest = [RatFunc(p) for p in v]
    for row, c in zip(*rref(rows)):
        factor = rest[c]
        if not factor.is_zero():
            rest = [ratfunc_difference(x, ratfunc_product(factor, y)) for x, y in zip(rest, row)]
    return all(x.is_zero() for x in rest)


def solve_by_cramer(m: Sequence[Sequence[MultiPoly]], b: Sequence[MultiPoly]) -> list[RatFunc]:
    """``linalg.solve`` as it was before it read its minors from one
    ``minors`` call: one ``det`` of m, and one of m with each column
    replaced by b."""
    n = len(m)
    d = det(m)
    if d.is_zero():
        raise ValueError("coefficient matrix is singular over the fraction field")
    out = []
    for j in range(n):
        col = [[b[i] if k == j else m[i][k] for k in range(n)] for i in range(n)]
        out.append(RatFunc(det(col), d))
    return out


def adjugate_by_cofactors(m: Sequence[Sequence[MultiPoly]]) -> list[list[MultiPoly]]:
    """``linalg.adjugate`` as it was before it read its cofactors from one
    ``minors`` call: one ``det`` per deleted row and column."""
    n = len(m)
    if n == 1:
        return [[MultiPoly.constant(m[0][0].vars, 1)]]
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = [[m[a][b] for b in range(n) if b != i] for a in range(n) if a != j]
            cof = det(sub)
            row.append(cof if (i + j) % 2 == 0 else -cof)
        adj.append(row)
    return adj


def clear_denominators(entries: Sequence[RatFunc]) -> list[MultiPoly]:
    """Scale a rational vector to a polynomial vector.

    Multiplies each entry's numerator by the product of the distinct
    denominators, exactly divided by its own, strips any denominator that
    still divides every entry, then removes the common monomial factor and
    the rational content.  Another common factor of the entries, which only
    several variables leave behind, is kept.
    """
    vs = entries[0].vars
    dens: list[MultiPoly] = []
    for e in entries:
        d = e.den
        if not d.is_constant() and d not in dens:
            dens.append(d)
    scale = MultiPoly.constant(vs, 1)
    for d in dens:
        scale = scale * d
    polys = [e.num * (scale if e.den.is_constant() else exact_div(scale, e.den)) for e in entries]
    for d in dens:
        while not d.is_constant() and any(polys):
            if (quotients := exact_quotients(polys, d)) is None:
                break
            polys = quotients
    live = [p for p in polys if not p.is_zero()]
    if not live:
        return polys
    mono = live[0].monomial_content()
    for p in live[1:]:
        mono = tuple(map(min, mono, p.monomial_content()))
    if any(mono):
        polys = [p.shift_down(mono) if p else p for p in polys]
    coeffs = [c for p in polys for c in p.terms.values()]
    num = math.gcd(*(c.numerator for c in coeffs))
    content = _coeff(Fraction(num, math.lcm(*(c.denominator for c in coeffs))))
    return [MultiPoly(vs, {e: _div(v, content) for e, v in p.terms.items()}) for p in polys]


def frac_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square Fraction matrix by Gaussian elimination: the
    reference for every Pluecker coordinate and for `linalg.det` on
    constant matrices."""
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


def relations_by_solve(columns: Sequence[Sequence[MultiPoly]]):
    """The relations ``charts.debord_generators`` reports, as (index, basis,
    coefficients) triples: subsets of rank-many columns in lexicographic
    order, each tested by its own ``rank`` and each dependent column solved
    by its own ``ratfunc_solve``; the first subset with all coefficients
    polynomial wins, else the first independent one."""
    n, d = len(columns), len(columns[0])
    r = rank([[columns[j][i] for j in range(n)] for i in range(d)])
    fallback = None
    for subset in combinations(range(n), r):
        chosen = [columns[j] for j in subset]
        if rank([[col[i] for col in chosen] for i in range(d)]) < r:
            continue
        relations = [
            (j, subset, ratfunc_solve(chosen, columns[j]))
            for j in range(n)
            if j not in subset
        ]
        if fallback is None:
            fallback = relations
        if all(c.is_polynomial() for _, _, coeffs in relations for c in coeffs):
            return relations
    return fallback


def kernel_curve_by_rank(bundle, curve) -> list[list[MultiPoly]]:
    """The anchor kernel along an arc as ``nash.kernel_curve`` returns it,
    by two eliminations of the substituted anchor: ``rank`` for the
    singular-locus test, then ``kernel_basis``."""
    images = list(curve.components)
    substituted = [[entry.subst(CURVE_VAR, images) for entry in row] for row in bundle.anchor]
    r = anchor_rank_generic(bundle)
    if rank(substituted) < r:
        raise CurveInSingularLocusError("anchor rank drops along the whole arc")
    if r == bundle.fiber_rank:
        return []
    return kernel_basis(substituted)


def span_limit_by_minors(rows: Sequence[Sequence[MultiPoly]]) -> PlueckerVector | None:
    """The t -> 0 limit of the span of k rows over Q[t] as
    ``nash.limit_subspace`` took it before it read the rows' lowest-order
    terms: every maximal minor, one ``det`` per column set, read at the
    least power of t the minors carry; None when every minor vanishes,
    k > n included."""
    n = len(rows[0])
    coords = [
        det([[row[j] for j in cols] for row in rows]) for cols in combinations(range(n), len(rows))
    ]
    powers = [e for p in coords for (e,) in p.terms]
    if not powers:
        return None
    return PlueckerVector(n, len(rows), [p.terms.get((min(powers),), 0) for p in coords])


def rational_default_arcs(x, seed: int) -> list[CurveGerm]:
    """The arcs ``nash.default_arcs`` returned before it rescaled t: the
    same seeded draws, with their rational coefficients kept as drawn."""
    d = len(x)
    point = [Fraction(c) for c in x]
    arcs = []
    for i in range(d):
        for sign in (1, -1):
            direction = [Fraction(0)] * d
            direction[i] = Fraction(sign)
            arcs.append(CurveGerm.polynomial(point, direction))
    rng = _seeded_rng(seed, "nash-rays")
    for _ in range(16):
        arcs.append(CurveGerm.polynomial(point, _random_direction(rng, d)))
    rng = _seeded_rng(seed, "nash-quadratics")
    for _ in range(8):
        arcs.append(
            CurveGerm.polynomial(point, _random_direction(rng, d), _random_direction(rng, d))
        )
    return arcs


def kernel_basis_by_rref(m: Sequence[Sequence[MultiPoly]]) -> list[list[MultiPoly]]:
    """The right kernel as ``linalg.kernel_basis`` computed it in every arity
    before one variable took the fraction-free path: one vector per free
    column of ``rref``, read off over the fraction field and scaled by
    ``clear_denominators``, with positive leading coefficient at its free
    column."""
    ncols = len(m[0])
    vs = m[0][0].vars
    rat_rows, pivots = rref(m)
    one = RatFunc(MultiPoly.constant(vs, 1))
    zero = RatFunc(MultiPoly.zero(vs))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for a, c in enumerate(pivots):
            vec[c] = RatFunc(-rat_rows[a][f].num, rat_rows[a][f].den)
        polys = clear_denominators(vec)
        if polys[f].leading()[1] < 0:
            polys = [-p for p in polys]
        if any(poly_mat_vec(m, polys)):
            raise InternalInvariantError("kernel vector fails M*v = 0")
        basis.append(polys)
    return basis


def check_ideal_sampled(frame) -> bool:
    """The verdict ``charts.check_ideal`` gives, with no certificate: every
    bracket tested against the frame's columns over the fraction field, by
    ``in_span_by_rref`` and not by the frame, and at each of the frame's
    exceptional samples."""
    chart_alg = frame.nca.algebroid
    n = chart_alg.bundle.fiber_rank
    to_check = []
    for kappa in frame.columns:
        for j in range(n):
            to_check.append(bracket_with_basis(chart_alg, kappa, j))
    for a_idx in range(frame.width):
        for b_idx in range(a_idx + 1, frame.width):
            to_check.append(
                section_bracket(chart_alg, frame.columns[a_idx], frame.columns[b_idx])
            )
    fibers = [
        Subspace(n, [[p.eval(u0) for p in col] for col in frame.columns])
        for u0 in frame.samples
    ]
    return all(
        in_span_by_rref(frame.columns, bracket)
        and all(
            fiber.contains([v.eval(u0) for v in bracket])
            for fiber, u0 in zip(fibers, frame.samples)
        )
        for bracket in to_check
    )


def gcd_by_euclid(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Primitive gcd of two univariate polynomials by Euclid over Q."""
    if len(a.vars) != 1 or a.vars != b.vars:
        raise ArityMismatchError("univariate gcd needs matching single variables")
    while not b.is_zero():
        a, b = b, _divmod(a, b)[1]
    return a.primitive()
