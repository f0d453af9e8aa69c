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

from .algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    Point,
    _bundle_of,
    anchor_rank_generic,
    kernel_at,
    pointwise_kernel_bracket,
    rank_at,
    strong_kernel_at,
)
from .grassmann import PlueckerVector, Subspace, unpluecker
from .linalg import frac_solve, kernel_basis, minors, rank
from .poly import InternalInvariantError, MultiPoly

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
    def ray(cls, target: Point, direction: Sequence[Fraction]) -> "CurveGerm":
        comps = []
        for x0, v in zip(target, direction):
            comps.append(
                MultiPoly(CURVE_VAR, {(0,): Fraction(x0), (1,): Fraction(v)})
            )
        return cls(tuple(Fraction(c) for c in target), tuple(comps))

    @classmethod
    def quadratic(
        cls, target: Point, v: Sequence[Fraction], w: Sequence[Fraction]
    ) -> "CurveGerm":
        comps = []
        for x0, v1, v2 in zip(target, v, w):
            comps.append(
                MultiPoly(
                    CURVE_VAR,
                    {(0,): Fraction(x0), (1,): Fraction(v1), (2,): Fraction(v2)},
                )
            )
        return cls(tuple(Fraction(c) for c in target), tuple(comps))

    def eval(self, t0: Fraction) -> list[Fraction]:
        return [c.eval([t0]) for c in self.components]

    def reparametrize(self, scale: Fraction) -> "CurveGerm":
        scaled = []
        for comp in self.components:
            scaled.append(
                MultiPoly(
                    CURVE_VAR,
                    {e: c * scale ** e[0] for e, c in comp.terms.items()},
                )
            )
        return CurveGerm(self.target, tuple(scaled))


def kernel_curve(a, curve: CurveGerm) -> list[list[MultiPoly]]:
    """Kernel basis of the anchor along the arc, as vectors over Q[t].

    Requires the substituted anchor to keep the generic rank over Q(t);
    an arc trapped in the singular locus raises CurveInSingularLocusError.
    """
    bundle = _bundle_of(a)
    if len(curve.components) != bundle.base_dim:
        raise ValueError("curve dimension does not match the base")
    images = list(curve.components)
    substituted = [
        [entry.subst(CURVE_VAR, images) for entry in row] for row in bundle.anchor
    ]
    r = anchor_rank_generic(bundle)
    if rank(substituted) < r:
        raise CurveInSingularLocusError(
            "anchor rank drops along the whole arc; pick a curve leaving the "
            "singular locus"
        )
    if r == bundle.fiber_rank:
        return []
    return kernel_basis(substituted)


def limit_subspace(basis_over_t: Sequence[Sequence[MultiPoly]]) -> Subspace:
    """The t -> 0 limit of the span of polynomial-in-t basis vectors.

    Computed in Pluecker coordinates: take maximal minors over Q[t], strip
    the common power of t, evaluate at 0, reconstruct.  The reconstruction
    is round-trip verified, so a failure here is an internal error.
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
    shifted = [
        p.shift_down((valuation,)) if not p.is_zero() else p for p in coords
    ]
    at_zero = [p.eval([Fraction(0)]) for p in shifted]
    pv = PlueckerVector.from_fractions(n, k, at_zero)
    limit = unpluecker(pv)
    if limit.dim != k:
        raise InternalInvariantError("Pluecker round trip changed the limit dimension")
    return limit


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


def nash_fiber_sample(a, x: Point, curves: Sequence[CurveGerm]) -> NashFiberSample:
    """Probe the fiber over x with the given arcs.

    Arcs stuck in the singular locus are recorded and skipped; if none
    survive, AllCurvesSingularError.  Limits are deduplicated by Pluecker
    vector and sorted by it, so the result is independent of arc order.
    """
    bundle = _bundle_of(a)
    point = tuple(Fraction(c) for c in x)
    for curve in curves:
        if curve.target != point:
            raise ValueError(f"curve targets {curve.target}, sampling at {point}")
    seen: dict[PlueckerVector, LimitRecord] = {}
    status = []
    for curve in curves:
        try:
            basis = kernel_curve(bundle, curve)
        except CurveInSingularLocusError:
            status.append("singular")
            continue
        if not basis:
            limit = Subspace(bundle.fiber_rank, [])
        else:
            limit = limit_subspace(basis)
        pv = limit.pluecker()
        status.append("ok")
        if pv not in seen:
            seen[pv] = LimitRecord(subspace=limit, pluecker=pv, curve=curve)
    if not seen:
        raise AllCurvesSingularError(
            f"all {len(curves)} arcs stayed in the singular locus at {list(point)}"
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


def default_arcs(
    x: Point,
    seed: int,
    rays: int = 16,
    quadratics: int = 8,
) -> list[CurveGerm]:
    """The standard arc budget at a point: signed coordinate rays, seeded
    random rays, seeded quadratic arcs.  Deterministic for a given seed."""
    d = len(x)
    point = [Fraction(c) for c in x]
    arcs = []
    for i in range(d):
        for sign in (1, -1):
            direction = [Fraction(0)] * d
            direction[i] = Fraction(sign)
            arcs.append(CurveGerm.ray(point, direction))
    rng = _seeded_rng(seed, "nash-rays")
    for _ in range(rays):
        arcs.append(CurveGerm.ray(point, _random_direction(rng, d)))
    rng = _seeded_rng(seed, "nash-quadratics")
    for _ in range(quadratics):
        arcs.append(
            CurveGerm.quadratic(
                point, _random_direction(rng, d), _random_direction(rng, d)
            )
        )
    return arcs


def check_flag(a, kernel_gens, v: Subspace, x: Point) -> bool:
    """Strong kernel inside the limit inside the kernel, all at x."""
    bundle = _bundle_of(a)
    sker = strong_kernel_at(bundle, kernel_gens, x)
    ker = kernel_at(bundle, x)
    return v.contains_subspace(sker) and ker.contains_subspace(v)


def check_limit_subalgebra(algebroid: AlmostLieAlgebroid, v: Subspace, x: Point) -> bool:
    """Whether the limit is closed under the pointwise kernel bracket."""
    for i, row_u in enumerate(v.rows):
        for row_w in v.rows[i + 1 :]:
            bracket = pointwise_kernel_bracket(algebroid, x, row_u, row_w)
            if not v.contains(bracket):
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
    from .algebroid import isotropy_algebra_at

    iso = isotropy_algebra_at(algebroid, kernel_gens, x)
    columns = [list(r) for r in iso.strong_kernel.rows] + [list(b) for b in iso.basis]
    image_vectors = []
    for row in v.rows:
        sol = frac_solve(columns, list(row))
        if sol is None:
            raise ValueError("limit subspace escapes the kernel span")
        image_vectors.append(sol[iso.strong_kernel.dim :])
    image = Subspace(iso.dim, image_vectors)
    codim = iso.dim - image.dim
    expected = anchor_rank_generic(algebroid) - rank_at(algebroid, x)
    if codim != expected:
        raise InternalInvariantError("codimension defies the rank bookkeeping")
    _assert_quotient_subalgebra(iso, image)
    return image, codim


def _assert_quotient_subalgebra(iso, image: Subspace) -> None:
    from .algebroid import _constant_table

    gamma = _constant_table(iso.structure, iso.dim)
    for i, u in enumerate(image.rows):
        for w in image.rows[i + 1 :]:
            bracket = [Fraction(0)] * iso.dim
            for aa in range(iso.dim):
                for bb in range(iso.dim):
                    coeff = u[aa] * w[bb]
                    if coeff:
                        bracket = [
                            acc + coeff * g for acc, g in zip(bracket, gamma[aa][bb])
                        ]
            if not image.contains(bracket):
                raise InternalInvariantError("limit image is not a subalgebra")


def convergence_errors(
    a,
    curve: CurveGerm,
    limit: Subspace,
    times: Sequence[Fraction],
) -> list[Fraction]:
    """Oracle distances between the limit and exact kernels along the arc.

    For each sample time, both subspaces are put in the affine Pluecker chart
    at the limit's first nonvanishing coordinate; the error is the largest
    absolute coordinate difference.  Exact zeros mean the kernel is constant.
    """
    bundle = _bundle_of(a)
    target = limit.pluecker()
    anchor_index = target.first_nonzero()
    reference = target.affine_chart(anchor_index)
    errors = []
    for t0 in times:
        point = curve.eval(Fraction(t0))
        sampled = kernel_at(bundle, point).pluecker()
        chart = sampled.affine_chart(anchor_index)
        errors.append(max(abs(p - q) for p, q in zip(chart, reference)))
    return errors
