"""Exact limits of anchor kernels along polynomial arcs.

The fiber of the kernel closure over a point is probed with curve germs: for
each arc the kernel of the substituted anchor is computed over Q(t), its
Pluecker vector is divided by the largest power of t it carries, and t = 0
lands on the limit subspace.  Arc sampling under-approximates the true fiber;
the default budget (coordinate rays, seeded random rays, seeded quadratic
arcs) is deterministic for a given seed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from .algebroid import AnchoredBundle, Point, anchor_rank_generic, kernel_at, strong_kernel_at
from .grassmann import PlueckerVector, Subspace, unpluecker
from .linalg import kernel_basis, minors, rank
from .poly import MultiPoly, point_text

CURVE_VAR = ("t",)


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
            if comp.eval([Fraction(0)]) != coord:
                raise ValueError(
                    f"curve does not start at its target: {comp} at 0 != {coord}"
                )

    @classmethod
    def polynomial(cls, target: Point, *coefficients: Sequence[Fraction]) -> "CurveGerm":
        """The arc target + sum_m coefficients[m-1] * t^m."""
        comps = tuple(
            MultiPoly(CURVE_VAR, {(m,): Fraction(c) for m, c in enumerate(column)})
            for column in zip(target, *coefficients)
        )
        return cls(tuple(Fraction(c) for c in target), comps)


def kernel_curve(bundle: AnchoredBundle, curve: CurveGerm) -> list[list[MultiPoly]]:
    """Kernel basis of the anchor along the arc, as vectors over Q[t].

    Requires the substituted anchor to keep the generic rank over Q(t);
    an arc trapped in the singular locus raises CurveInSingularLocusError.
    A rank-deficient anchor is eliminated once: rank + nullity = n, so the
    arc's rank is read from the kernel's size.
    """
    if len(curve.components) != bundle.base_dim:
        raise ValueError("curve dimension does not match the base")
    images = list(curve.components)
    substituted = [
        [entry.subst(CURVE_VAR, images) for entry in row] for row in bundle.anchor
    ]
    r = anchor_rank_generic(bundle)
    n = bundle.fiber_rank
    if r < n:
        basis = kernel_basis(substituted)
        arc_rank = n - len(basis)
    else:
        basis, arc_rank = [], rank(substituted)
    if arc_rank < r:
        raise CurveInSingularLocusError(
            "anchor rank drops along the whole arc; pick a curve leaving the "
            "singular locus"
        )
    return basis


def limit_subspace(basis_over_t: Sequence[Sequence[MultiPoly]]) -> Subspace:
    """The t -> 0 limit of the span of polynomial-in-t basis vectors.

    Computed in Pluecker coordinates: take maximal minors over Q[t], find
    the least power t^v they carry, read each minor's t^v coefficient,
    reconstruct.  The reconstruction is round-trip verified, and the
    returned subspace keeps the Pluecker vector that check computed.
    """
    k = len(basis_over_t)
    if k == 0:
        raise ValueError("empty basis has no limit; ambient dimension unknown")
    n = len(basis_over_t[0])
    matrix = [list(row) for row in basis_over_t]
    coords = minors(matrix, k) if k <= n else []
    valuation = None
    for p in coords:
        if p.is_zero():
            continue
        v = p.monomial_content()[0]
        valuation = v if valuation is None else min(valuation, v)
    if valuation is None:
        raise ValueError("basis is degenerate over Q(t)")
    at_zero = [p.terms.get((valuation,), 0) for p in coords]
    return unpluecker(PlueckerVector(n, k, at_zero))


def limit_along(bundle: AnchoredBundle, curve: CurveGerm) -> Subspace:
    """The t -> 0 limit of the anchor kernel along the arc: the one arc-limit
    path.  A full-rank anchor has the zero subspace as its limit."""
    basis = kernel_curve(bundle, curve)
    if not basis:
        return Subspace(bundle.fiber_rank, [])
    return limit_subspace(basis)


@dataclass(frozen=True)
class LimitRecord:
    """One distinct limit subspace with the first arc that produced it."""

    subspace: Subspace
    pluecker: PlueckerVector
    curve: CurveGerm


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
    vector and sorted by it, so the result is independent of arc order.
    """
    if len(x) != bundle.base_dim:
        raise ValueError(f"point has {len(x)} coordinates, expected {bundle.base_dim}")
    point = tuple(Fraction(c) for c in x)
    for curve in curves:
        if curve.target != point:
            raise ValueError(
                f"curve targets {point_text(curve.target)}, sampling at {point_text(point)}"
            )
    seen: dict[PlueckerVector, LimitRecord] = {}
    status = []
    for curve in curves:
        try:
            limit = limit_along(bundle, curve)
        except CurveInSingularLocusError:
            status.append("singular")
            continue
        pv = limit.pluecker()
        status.append("ok")
        if pv not in seen:
            seen[pv] = LimitRecord(subspace=limit, pluecker=pv, curve=curve)
    if not seen:
        raise AllCurvesSingularError(
            f"all {len(curves)} arcs stayed in the singular locus at {point_text(point)}"
        )
    records = tuple(seen[pv] for pv in sorted(seen))
    return NashFiberSample(point=point, limits=records, curve_status=tuple(status))


def _seeded_rng(seed: int, purpose: str) -> Random:
    return Random(zlib.crc32(purpose.encode("utf-8")) ^ seed)


_NUMERATORS = [n for n in range(-5, 6) if n != 0]
_DENOMINATORS = [1, 2, 3]


def _random_direction(rng: Random, d: int) -> list[Fraction]:
    return [
        Fraction(rng.choice(_NUMERATORS), rng.choice(_DENOMINATORS)) for _ in range(d)
    ]


def default_arcs(x: Point, seed: int) -> list[CurveGerm]:
    """The standard arc budget at a point: signed coordinate rays, 16 seeded
    random rays, 8 seeded quadratic arcs.  Deterministic for a given seed."""
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


def check_flag(bundle: AnchoredBundle, kernel_gens, v: Subspace, x: Point) -> bool:
    """Strong kernel inside the limit inside the kernel, all at x."""
    sker = strong_kernel_at(bundle, kernel_gens, x)
    ker = kernel_at(bundle, x)
    return v.contains_subspace(sker) and ker.contains_subspace(v)
