"""Exact limits of anchor kernels along polynomial arcs.

The fiber of the kernel closure over a point is probed with curve germs: the
anchor A is substituted along each arc, a subspace of Q(t)^n is read off it,
its Pluecker vector is divided by the largest power of t it carries, and
t = 0 lands on the limit, a point of the Grassmannian kept as its Pluecker
vector.  A Subspace is built only for a limit that is reported, once per
distinct limit.  Only the anchor's pivot rows, its lexicographically first
r rows independent over Q(x) with r its generic rank (`anchor_row_basis`),
are substituted.  Every (r+1)-minor of A vanishes, so when an r-by-r minor
of the pivot rows is nonzero along the arc they span the row space of A(t)
over Q(t), and ker A(t) is its annihilator; taking annihilators maps the
Pluecker coordinates of Gr(r, n) to those of Gr(n - r, n) by a signed
permutation (Hodge and Pedoe, ch. VII), so it commutes with the limit.
Two paths are tried in turn, each a span limit (`limit_subspace`): row i is
t^(v_i) (L_i + O(t)), so the minor on columns C is t^(sum v_i) (det L_C +
O(t)), read from the integer matrix L where it has full rank, and from the
rows' polynomial minors at their least power of t where it drops rank.

- Pivot rows: the annihilator of their span limit.
- Kernel, where the pivot rows are dependent over Q(t) (a row or every
  minor vanishes): the whole anchor, eliminated over Q(t) (`kernel_curve`),
  puts the arc in the singular locus, or gives its kernel, whose own span
  is limited.

Arc sampling under-approximates the true fiber; the default budget
(coordinate rays, seeded random rays, seeded quadratic arcs) is
deterministic for a given seed, and rescaled to integer coefficients with
the same limits (`default_arcs`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from .algebroid import (
    AnchoredBundle,
    Point,
    anchor_rank_generic,
    anchor_row_basis,
    kernel_at,
    strong_kernel_at,
)
from .grassmann import PlueckerVector, Subspace, unpluecker
from .linalg import integer_minors, kernel_basis, minors, rank
from .poly import MultiPoly, common_denominator, integer_polys, integer_row, point_text

CURVE_VAR = ("t",)

_SINGULAR_ARC = "anchor rank drops along the whole arc; pick a curve leaving the singular locus"


class CurveInSingularLocusError(ValueError):
    """The arc stays inside the singular locus: no regular kernels to limit."""


class AllCurvesSingularError(ValueError):
    """Every probing arc failed; the fiber sample is empty."""


@dataclass(frozen=True)
class CurveGerm:
    """A polynomial arc gamma(t) with gamma(0) pinned to the target point."""

    target: tuple[Fraction, ...]
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.target) != len(self.components):
            raise ValueError("curve component count differs from the target arity")
        for comp, coord in zip(self.components, self.target):
            if comp.vars != CURVE_VAR:
                raise ValueError("curve components must be univariate in t")
            if comp.terms.get((0,), 0) != coord:
                raise ValueError(
                    f"curve does not start at its target: {comp} at 0 != {coord}"
                )

    @classmethod
    def polynomial(cls, target: Point, *coefficients: Sequence[Fraction]) -> "CurveGerm":
        """The arc target + sum_m coefficients[m-1] * t^m; each coefficient
        vector has one entry per target coordinate."""
        for column in coefficients:
            if len(column) != len(target):
                raise ValueError(
                    f"coefficient vector has {len(column)} entries, the target {len(target)}"
                )
        comps = tuple(
            MultiPoly(CURVE_VAR, {(m,): Fraction(c) for m, c in enumerate(column)})
            for column in zip(target, *coefficients)
        )
        return cls(tuple(Fraction(c) for c in target), comps)


def _substituted(
    bundle: AnchoredBundle, curve: CurveGerm, rows: Sequence[int]
) -> list[list[MultiPoly]]:
    """The given anchor rows along the arc: each entry with the arc
    substituted, over Q[t]."""
    if len(curve.components) != bundle.base_dim:
        raise ValueError("curve dimension does not match the base")
    images = list(curve.components)
    return [[entry.subst(CURVE_VAR, images) for entry in bundle.anchor[i]] for i in rows]


def kernel_curve(bundle: AnchoredBundle, curve: CurveGerm) -> list[list[MultiPoly]]:
    """Kernel basis of the anchor along the arc, as vectors over Q[t]: the
    exact fallback of `limit_along`, for arcs along which the pivot rows are
    dependent over Q(t), so that `limit_subspace` finds no span to limit.

    Requires the substituted anchor, all of its rows, to keep the generic
    rank over Q(t); an arc trapped in the singular locus raises
    CurveInSingularLocusError.  A rank-deficient anchor is eliminated once:
    rank + nullity = n, so the arc's rank is read from the kernel's size.
    """
    substituted = _substituted(bundle, curve, range(bundle.base_dim))
    r = anchor_rank_generic(bundle)
    n = bundle.fiber_rank
    if r < n:
        basis = kernel_basis(substituted)
        arc_rank = n - len(basis)
    else:
        basis, arc_rank = [], rank(substituted)
    if arc_rank < r:
        raise CurveInSingularLocusError(_SINGULAR_ARC)
    return basis


def _lowest_terms(row: Sequence[MultiPoly]) -> list[int]:
    """The integer row of the t^v coefficients of a row over Q[t], t^v the
    lowest power of t in it; zeros for a row that vanishes."""
    v = min((e for p in row for (e,) in p.terms), default=None)
    return integer_row([p.terms.get((v,), 0) for p in row])


def limit_subspace(rows: Sequence[Sequence[MultiPoly]]) -> PlueckerVector | None:
    """The Pluecker vector of the t -> 0 limit of the span of k rows over
    Q[t], the one span limit; None for rows dependent over Q(t), which span
    no k-plane to limit: k > n, a row that vanishes, or every minor zero.

    Row i is t^(v_i) (L_i + O(t)), so the minor on columns C is
    t^(sum v_i) (det L_C + O(t)): when the integer matrix L of the rows'
    lowest-order terms has rank k, its minors (`integer_minors`) are the
    limit.  Otherwise, or where their table does not pay, the rows' minors
    over Z[t] (`minors`) are read at the least power t^v they carry.  Too
    many minors raise `linalg.SizeError` before any is taken.
    """
    k = len(rows)
    if k == 0:
        raise ValueError("empty basis has no limit; ambient dimension unknown")
    n = len(rows[0])
    if k > n:
        return None
    lowest = [_lowest_terms(row) for row in rows]
    coords = integer_minors(lowest, k)
    if coords and any(coords):
        return PlueckerVector(n, k, coords)
    if not all(any(row) for row in lowest):
        return None
    coords = minors([integer_polys(row) for row in rows], k)
    valuation = min((p.monomial_content()[0] for p in coords if p), default=None)
    if valuation is None:
        return None
    return PlueckerVector(n, k, [p.terms.get((valuation,), 0) for p in coords])


def limit_along(bundle: AnchoredBundle, curve: CurveGerm) -> PlueckerVector:
    """The Pluecker vector of the t -> 0 limit of the anchor kernel along the
    arc, the one arc-limit entry point.

    The module's two paths are tried in turn: the annihilator
    (`PlueckerVector.annihilator`) of the span limit (`limit_subspace`) of
    the substituted pivot rows (`anchor_row_basis`), everything for r = 0;
    where those rows are dependent over Q(t), the span limit of the kernel
    (`kernel_curve`), which decides the arc or raises
    CurveInSingularLocusError, an empty kernel limiting to the zero
    subspace.
    """
    n = bundle.fiber_rank
    rows = _substituted(bundle, curve, anchor_row_basis(bundle))
    row_space = limit_subspace(rows) if rows else PlueckerVector(n, 0, [1])
    if row_space is not None:
        return row_space.annihilator()
    basis = kernel_curve(bundle, curve)
    return limit_subspace(basis) if basis else PlueckerVector(n, 0, [1])


@dataclass(frozen=True)
class LimitRecord:
    """One distinct limit, as a subspace and as its Pluecker vector."""

    subspace: Subspace
    pluecker: PlueckerVector


@dataclass(frozen=True)
class NashFiberSample:
    """Deduplicated limits over one point, plus per-arc status lines."""

    point: tuple[Fraction, ...]
    limits: tuple[LimitRecord, ...]
    curve_status: tuple[str, ...]


def nash_fiber_sample(
    bundle: AnchoredBundle, x: Point, curves: Sequence[CurveGerm]
) -> NashFiberSample:
    """Probe the fiber over x with the given arcs.

    Arcs stuck in the singular locus are recorded and skipped; if none
    survive, AllCurvesSingularError.  Limits are deduplicated by Pluecker
    vector and sorted by it, so the result is independent of arc order, and
    each distinct one becomes a verified subspace (`unpluecker`) once.
    """
    if len(x) != bundle.base_dim:
        raise ValueError(f"point has {len(x)} coordinates, expected {bundle.base_dim}")
    point = tuple(Fraction(c) for c in x)
    if not curves:
        raise ValueError(f"no arcs to probe the fiber over {point_text(point)}")
    for curve in curves:
        if curve.target != point:
            raise ValueError(
                f"curve targets {point_text(curve.target)}, sampling at {point_text(point)}"
            )
    limits: set[PlueckerVector] = set()
    status = []
    for curve in curves:
        try:
            pv = limit_along(bundle, curve)
        except CurveInSingularLocusError:
            status.append("singular")
            continue
        status.append("ok")
        limits.add(pv)
    if not limits:
        raise AllCurvesSingularError(
            f"all {len(curves)} arcs stayed in the singular locus at {point_text(point)}"
        )
    records = tuple(
        LimitRecord(subspace=unpluecker(pv), pluecker=pv) for pv in sorted(limits)
    )
    return NashFiberSample(point=point, limits=records, curve_status=tuple(status))


def _seeded_rng(seed: int, purpose: str) -> Random:
    return Random(zlib.crc32(purpose.encode("utf-8")) ^ seed)


_NUMERATORS = [n for n in range(-5, 6) if n != 0]
_DENOMINATORS = [1, 2, 3]


def _random_direction(rng: Random, d: int) -> list[Fraction]:
    return [
        Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS)) for _ in range(d)
    ]


def _integer_arc(point: list[Fraction], *coefficients: list[Fraction]) -> CurveGerm:
    """The arc point + sum_m coefficients[m-1] * (L t)^m, L the lcm of the
    coefficients' denominators."""
    scale = common_denominator(c for column in coefficients for c in column)
    return CurveGerm.polynomial(
        point,
        *([c * scale**m for c in column] for m, column in enumerate(coefficients, 1)),
    )


def default_arcs(x: Point, seed: int) -> list[CurveGerm]:
    """The standard arc budget at a point: signed coordinate rays, 16 seeded
    random rays, 8 seeded quadratic arcs.  Deterministic for a given seed.

    The random arcs draw coefficients with denominators 1, 2 and 3, and
    each is reparametrized by t -> L t, L the lcm of its denominators: a
    ray x + c t becomes x + (L c) t, a quadratic x + a t + b t^2 becomes
    x + (L a) t + (L^2 b) t^2, and at an integer point an integer anchor
    is substituted over Z[t].  Limits and singular verdicts stay: t -> L t
    is an automorphism of Q(t), which keeps the least t-valuation v of the
    Pluecker coordinates and multiplies every coordinate's t^v coefficient
    by L^v.

    The 8 quadratics draw their tangents as the rays draw directions, with
    no zero coordinate, so they repeat ray limits: at every declared point
    of the shipped scenarios, for seeds 0-3, each gives the limit of its
    own tangent ray.  They stay in the budget, which fixes the arc counts
    of every report.
    """
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
        arcs.append(_integer_arc(point, _random_direction(rng, d)))
    rng = _seeded_rng(seed, "nash-quadratics")
    for _ in range(8):
        arcs.append(_integer_arc(point, _random_direction(rng, d), _random_direction(rng, d)))
    return arcs


def check_flag(bundle: AnchoredBundle, kernel_gens, v: Subspace, x: Point) -> bool:
    """Strong kernel inside the limit inside the kernel, all at x."""
    sker = strong_kernel_at(bundle, kernel_gens, x)
    ker = kernel_at(bundle, x)
    return v.contains_subspace(sker) and ker.contains_subspace(v)
