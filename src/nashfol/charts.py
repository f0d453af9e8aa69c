"""Chart-level blow-up computations.

A ChartMap is a polynomial map from chart coordinates to the base whose
Jacobian is invertible over the fraction field.  Off the exceptional locus it
is a diffeomorphism onto its image, so vector fields and bivectors on the
base pull back to unique rational objects on the chart; whether those are
polynomial is exactly the question of whether the chart resolves the
foliation.  The tautological frame collects polynomial kernel columns of the
pulled-back anchor: the chart's part K of 0 -> K -> Nash(A) -> D -> 0.  Two
checks give a verdict each: `check_ideal` that K is a bracket ideal, and
`check_debord_on_chart` that ambient = frame + quotient with the quotient D
keeping the generic anchor rank.  The frame alone knows its rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    Section,
    anchor_rank_generic,
    bracket_with_basis,
    morphism_defect_pairs,
    section_bracket,
)
from .grassmann import Subspace
from .linalg import (
    adjugate,
    det,
    frac_kernel,
    frac_rank,
    frac_rref,
    kernel_basis,
    poly_mat_mul,
    poly_mat_vec,
    rank,
    solve,
)
from .nash import _seeded_rng
from .poisson import Bivector
from .poly import (
    ArityMismatchError,
    InternalInvariantError,
    MultiPoly,
    RatFunc,
    exact_div,
    integer_row,
    point_text,
    poly_gcd,
    primitive_part,
)

Point = Sequence[Fraction]


class NotResolvedByChartError(ValueError):
    """Some basis pullback is rational but not polynomial on the chart.

    ``failures`` lists (basis index, offending denominator) pairs.
    """

    def __init__(self, failures: Sequence[tuple[int, MultiPoly]]):
        self.failures = list(failures)
        detail = ", ".join(f"e_{i} has denominator {d}" for i, d in self.failures)
        super().__init__(f"chart does not resolve the foliation: {detail}")


class FrameReductionFailedError(RuntimeError):
    """Column reduction could not make the frame full rank on the exceptional
    locus.  Either no polynomial frame exists on this chart (the blow-up is
    not smoothly trivialized here) or the column-operation heuristic missed
    one; the two cases are indistinguishable at this level."""

    def __init__(self, samples: Sequence[Point]):
        self.samples = [tuple(s) for s in samples]
        where = ", ".join(point_text(s) for s in self.samples)
        super().__init__(
            f"frame stays rank-deficient at {where}: either no polynomial "
            "frame exists on this chart, or the column-reduction heuristic "
            "failed to find one"
        )


class ChartMap:
    """A square polynomial chart with invertible Jacobian.

    ``phi`` maps chart coordinates to base coordinates; ``jac`` caches the
    Jacobian d(phi_i)/d(u_j).  ``exceptional`` (optional) cuts out the locus
    where the chart collapses and must divide det(jac)^d, d the chart
    dimension.
    """

    def __init__(
        self,
        chart_vars: Sequence[str],
        target_vars: Sequence[str],
        phi: Sequence[MultiPoly],
        exceptional: MultiPoly | None = None,
    ):
        cvs = tuple(chart_vars)
        tvs = tuple(target_vars)
        if len(cvs) != len(tvs):
            raise ArityMismatchError("chart and target dimensions differ")
        comps = list(phi)
        if len(comps) != len(tvs):
            raise ArityMismatchError(
                f"{len(comps)} chart components for {len(tvs)} target variables"
            )
        for p in comps:
            if p.vars != cvs:
                raise ArityMismatchError(f"chart component over {p.vars}, expected {cvs}")
        self.chart_vars = cvs
        self.target_vars = tvs
        self.phi = comps
        self.jac = [[p.diff(v) for v in cvs] for p in comps]
        self.jac_det = det(self.jac)
        if self.jac_det.is_zero():
            raise ValueError("chart Jacobian is singular as a polynomial matrix")
        if exceptional is not None:
            if exceptional.vars != cvs:
                raise ArityMismatchError("exceptional polynomial over the wrong variables")
            # e | det^d exactly when d divisions of e by its gcd with det leave
            # a nonzero constant (0 divides no nonzero power); det^d is not expanded
            rest = exceptional
            for _ in range(len(cvs)):
                if not rest.is_constant():
                    rest = exact_div(rest, poly_gcd(rest, self.jac_det))
            if rest.is_zero() or not rest.is_constant():
                raise ValueError(
                    f"exceptional polynomial {exceptional} does not divide "
                    f"det(jac)^{len(cvs)}"
                )
        self.exceptional = exceptional

    @property
    def dim(self) -> int:
        return len(self.chart_vars)

    def compose(self, p: MultiPoly) -> MultiPoly:
        """p composed with the chart (a polynomial over the chart variables)."""
        if p.vars != self.target_vars:
            raise ArityMismatchError(f"polynomial over {p.vars}, expected {self.target_vars}")
        return p.subst(self.chart_vars, self.phi)

    def exceptional_poly(self) -> MultiPoly:
        return self.exceptional if self.exceptional is not None else self.jac_det


@dataclass(frozen=True)
class PulledBackField:
    """The unique rational chart field Y with (Jacobian of phi) * Y = X o phi."""

    components: tuple[RatFunc, ...]
    denominator: MultiPoly | None


def _den_lcm(dens: Sequence[MultiPoly]) -> MultiPoly:
    """Least common denominator, primitive: the fold of a * b / gcd(a, b)."""
    acc = dens[0]
    for d in dens[1:]:
        acc = exact_div(acc * d, poly_gcd(acc, d))
    return acc.primitive()


def pullback_vector_field(chart: ChartMap, field: Sequence[MultiPoly]) -> PulledBackField:
    """Solve (Jacobian of phi) * Y = X o phi over the fraction field.

    By construction the result is phi-related to X; the defining identity is
    re-checked before returning, in Q[u] as J * (L * Y) = L * (X o phi) with
    L the components' least common denominator: Q[u] is a domain and L is
    nonzero, so this holds exactly when the identity does.  Each component is
    in lowest terms, so a polynomial one has denominator 1, and L is 1 when
    every component is polynomial.
    """
    rhs = [chart.compose(p) for p in field]
    comps = solve(chart.jac, rhs)
    lcd = _den_lcm([c.den for c in comps])
    cleared = [c.num * exact_div(lcd, c.den) for c in comps]
    if poly_mat_vec(chart.jac, cleared) != [lcd * p for p in rhs]:
        raise InternalInvariantError("pullback does not satisfy its defining equation")
    return PulledBackField(tuple(comps), None if lcd.is_constant() else lcd)


def pullback_bivector(
    chart: ChartMap, pi: Bivector
) -> tuple[list[list[RatFunc]], MultiPoly | None]:
    """Congruence transform of the bivector matrix by the inverse Jacobian J,
    adj(J)·(pi o phi)·adj(J)^T / det(J)^2.

    Returns the rational chart bivector and its pole: the least common
    denominator of the entries, or None when all of them are polynomial.
    Each entry is in lowest terms, so the pole carries only the factors of
    det(J) that some entry keeps.
    """
    if pi.vars != chart.target_vars:
        raise ArityMismatchError(f"bivector over {pi.vars}, expected {chart.target_vars}")
    d = chart.dim
    pi_phi = [[chart.compose(pi.matrix[i][j]) for j in range(d)] for i in range(d)]
    adj = adjugate(chart.jac)
    congruent = poly_mat_mul(poly_mat_mul(adj, pi_phi), [list(col) for col in zip(*adj)])
    det_sq = chart.jac_det * chart.jac_det
    if any(congruent[i][j] + congruent[j][i] for i in range(d) for j in range(d)):
        raise InternalInvariantError("pullback lost skew-symmetry")
    out = [[RatFunc(entry, det_sq) for entry in row] for row in congruent]
    dens = [
        out[i][j].den
        for i in range(d)
        for j in range(i + 1, d)
        if not out[i][j].den.is_constant()
    ]
    pole = _den_lcm(dens) if dens else None
    return out, pole


class ChartPullback:
    """A bundle's anchor pulled back to a chart once: ``fields`` holds each
    anchor column's pullback, ``anchor`` the chart anchor P, J * P = A o phi,
    and ``kernel`` P's kernel basis, read by the frame and the relations."""

    def __init__(self, bundle: AnchoredBundle, chart: ChartMap):
        if bundle.base_vars != chart.target_vars:
            raise ArityMismatchError("algebroid and chart live over different base variables")
        self.bundle = bundle
        self.chart = chart
        self.fields = [pullback_vector_field(chart, list(col)) for col in zip(*bundle.anchor)]

    @cached_property
    def anchor(self) -> AnchoredBundle:
        """P over the chart variables; refuses every column with a pole."""
        failures = [
            (j, f.denominator) for j, f in enumerate(self.fields) if f.denominator is not None
        ]
        if failures:
            raise NotResolvedByChartError(failures)
        rows = [[f.components[i].as_poly() for f in self.fields] for i in range(self.chart.dim)]
        return AnchoredBundle(self.chart.chart_vars, rows)

    @cached_property
    def kernel(self) -> list[Section]:
        """`kernel_basis(P)`, eliminated once per chart.  det J != 0, so P
        keeps the source's generic rank, which rank + nullity = n confirms."""
        kernel = kernel_basis(self.anchor.anchor)
        if self.bundle.fiber_rank - len(kernel) != anchor_rank_generic(self.bundle):
            raise InternalInvariantError("chart anchor lost the source's generic rank")
        return kernel


@dataclass(frozen=True)
class NashChartAlgebroid:
    """The pulled-back algebroid on one chart.

    ``algebroid`` lives over the chart variables with the pullback's anchor
    P and structure sections composed with the chart map.
    """

    pullback: ChartPullback
    algebroid: AlmostLieAlgebroid


def nash_anchor_on_chart(
    algebroid: AlmostLieAlgebroid, pullback: ChartPullback
) -> NashChartAlgebroid:
    """Pull the algebroid back to the chart; every basis pullback must be polynomial."""
    if algebroid.bundle != pullback.bundle:
        raise ValueError("the chart pullback is of another anchor than the algebroid's")
    chart = pullback.chart
    structure = {
        pair: [chart.compose(p) for p in section]
        for pair, section in algebroid.structure.items()
    }
    chart_algebroid = AlmostLieAlgebroid(pullback.anchor, structure)
    if not morphism_defect_pairs(algebroid):
        bad = morphism_defect_pairs(chart_algebroid)
        if bad:
            raise InternalInvariantError(
                f"chart bracket lost the anchor morphism on pairs {bad}"
            )
    return NashChartAlgebroid(pullback, chart_algebroid)


@dataclass(frozen=True)
class FrameCertificate:
    """A constant invertible maximal minor of a chart frame: its ``rows``
    and the inverse of the frame's block on them, over Q."""

    rows: tuple[int, ...]
    inverse: tuple[tuple[Fraction, ...], ...]


class ChartFrame:
    """Polynomial kernel columns of the pulled-back anchor P and the
    exceptional samples they are full rank at, built once by
    tautological_frame.

    J * P = A o phi with det J != 0, so P decides kernel membership without
    A o phi; a column that P does not kill is refused here, once.  Span and
    rank questions are answered by the certificate when the frame has one,
    else by `linalg.rank`.
    """

    def __init__(
        self, nca: NashChartAlgebroid, columns: Sequence[Section], samples: Sequence[Point]
    ):
        anchor = nca.algebroid.bundle.anchor
        for idx, col in enumerate(columns):
            if not all(p.is_zero() for p in poly_mat_vec(anchor, col)):
                raise InternalInvariantError(f"frame column {idx} is not a kernel section")
        self.nca = nca
        self.columns = [list(c) for c in columns]
        self.samples = list(samples)

    @property
    def width(self) -> int:
        return len(self.columns)

    @cached_property
    def rank(self) -> int:
        """The rank over the fraction field: the width of a certified frame,
        whose rows I have det F_I a nonzero constant, else `linalg.rank` of
        the columns."""
        return self.width if self.certificate is not None else rank(self.columns)

    @cached_property
    def certificate(self) -> FrameCertificate | None:
        """Rows I of the n x k frame F whose block F_I is constant and
        invertible, with F_I^-1 over Q, or None when the all-constant rows
        of F have rank below k.  Of those rows, the first independent ones
        are taken; no other minor is searched.  The empty frame is certified
        by I = ().

        A constant invertible F_I gives F rank k at every point of the chart,
        and every polynomial section s in F's span over the fraction field
        is F * (F_I^-1 s_I), with polynomial coefficients (W. C. Brown,
        Matrices over Commutative Rings, 1993)."""
        k = self.width
        n = self.nca.algebroid.bundle.fiber_rank
        origin = [0] * self.nca.pullback.chart.dim
        constant = [i for i in range(n) if all(col[i].is_constant() for col in self.columns)]
        # the transposed constant block: its pivot columns are the first
        # independent constant rows of F
        block = [[col[i].eval(origin) for i in constant] for col in self.columns]
        _, pivots = frac_rref(block)
        if len(pivots) < k:
            return None
        square = [[block[a][p] for a in range(k)] for p in pivots]
        reduced, _ = frac_rref([row + [int(r == s) for s in range(k)] for r, row in enumerate(square)])
        return FrameCertificate(
            tuple(constant[p] for p in pivots), tuple(tuple(row[k:]) for row in reduced)
        )

    def spans(self, section: Section) -> bool:
        """Whether the section lies in the columns' span over the fraction
        field: by the certificate's residual F * (F_I^-1 s_I) - s when the
        frame has one, else by whether appending it keeps the frame rank."""
        cert = self.certificate
        if cert is None:
            return rank(self.columns + [list(section)]) == self.rank
        zero = MultiPoly.zero(self.nca.pullback.chart.chart_vars)
        coeffs = [
            sum((section[i] * c for i, c in zip(cert.rows, row) if c), zero)
            for row in cert.inverse
        ]
        return all(
            sum((col[i] * c for col, c in zip(self.columns, coeffs) if col[i] and c), zero)
            == section[i]
            for i in range(len(section))
            if i not in cert.rows
        )


# Largest constant or leading coefficient whose divisors _rational_roots tries;
# corpus charts never exceed 1, and a bound keeps a hostile chart from
# stalling the root search.
MAX_ROOT_COEFFICIENT = 10**6


def _divisors(m: int) -> list[int]:
    """The positive divisors of m >= 1, found in pairs up to isqrt(m)."""
    small = [k for k in range(1, math.isqrt(m) + 1) if m % k == 0]
    return small + [m // k for k in reversed(small) if k * k != m]


def _rational_roots(p: MultiPoly) -> list[Fraction]:
    """All rational roots of a univariate polynomial (0 for the zero poly)."""
    if p.is_zero():
        return [Fraction(0)]
    if p.is_constant():
        return []
    roots = []
    shift = p.monomial_content()
    if any(shift):
        roots.append(Fraction(0))
        p = p.shift_down(shift)
        if p.is_constant():
            return roots
    prim = p.primitive()
    a0 = int(abs(prim.eval([Fraction(0)])))
    an = int(abs(prim.leading()[1]))
    if max(a0, an) > MAX_ROOT_COEFFICIENT:
        raise ValueError(
            f"exceptional polynomial has a coefficient above {MAX_ROOT_COEFFICIENT} "
            "on a sample line; its rational roots are not searched"
        )
    for num in _divisors(a0):
        for den in _divisors(an):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if prim.eval([cand]) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


_SAMPLE_NUMERATORS = list(range(-3, 4))
_SAMPLE_DENOMINATORS = [1, 2]
_SAMPLE_COUNT = 6  # exceptional points per chart


def exceptional_samples(chart: ChartMap, seed: int = 0) -> list[Point]:
    """Seeded rational points on the exceptional locus of the chart.

    Cycles through the chart variables, freezes the others at random
    rationals, and solves the resulting univariate equation exactly.  Always
    includes the origin when it lies on the locus.  May return fewer than
    six points (none at all for a chart with constant exceptional
    polynomial, such as the identity).
    """
    e = chart.exceptional_poly()
    if e.is_constant():
        return []
    d = chart.dim
    rng = _seeded_rng(seed, "chart-samples")
    points: list[tuple[Fraction, ...]] = []
    origin = tuple(Fraction(0) for _ in range(d))
    if e.eval(origin) == 0:
        points.append(origin)
    for attempt in range(_SAMPLE_COUNT * 8):
        if len(points) >= _SAMPLE_COUNT:
            break
        v = attempt % d
        assignment = [
            Fraction(rng.choice(_SAMPLE_NUMERATORS), rng.choice(_SAMPLE_DENOMINATORS))
            for _ in range(d)
        ]
        images = [
            MultiPoly.variable(("s",), "s")
            if w == v
            else MultiPoly.constant(("s",), assignment[w])
            for w in range(d)
        ]
        univar = e.subst(("s",), images)
        for root in _rational_roots(univar):
            point = tuple(root if w == v else assignment[w] for w in range(d))
            if point not in points:
                points.append(point)
    return [tuple(p) for p in points[:_SAMPLE_COUNT]]


def tautological_frame(nca: NashChartAlgebroid, seed: int = 0) -> ChartFrame:
    """Kernel frame of the pulled-back anchor P, repaired to full rank on the
    exceptional locus by bounded column operations.

    It starts from the pullback's `kernel` of P: J * P = A o phi with det J
    != 0, so that is the kernel of the substituted anchor.
    """
    chart = nca.pullback.chart
    cols = list(nca.pullback.kernel)
    k = len(cols)
    n = nca.algebroid.bundle.fiber_rank
    samples = exceptional_samples(chart, seed=seed)
    for _ in range(4 * n + 1):
        for u0 in samples:
            m = [[col[i].eval(u0) for col in cols] for i in range(n)]
            if frac_rank(m) < k:
                break
        else:
            return ChartFrame(nca, cols, samples)
        relation = frac_kernel(m, k)[0]
        ints = integer_row(relation)
        involved = [idx for idx, c in enumerate(ints) if c]
        leader = involved[-1]
        combo = [MultiPoly.zero(chart.chart_vars) for _ in range(n)]
        for idx in involved:
            combo = [acc + cols[idx][i] * ints[idx] for i, acc in enumerate(combo)]
        combo = primitive_part(combo)
        same = combo == cols[leader] or combo == [-p for p in cols[leader]]
        if same:
            raise FrameReductionFailedError([u0])
        cols[leader] = combo
    raise FrameReductionFailedError([u0])


def check_ideal(frame: ChartFrame) -> bool:
    """Bracket-ideal and Lie-algebra-bundle check for the frame on its chart.

    Brackets of frame columns against basis sections (and against each other)
    must stay in the frame's column span over the fraction field; the check
    is False at the first one that does not.  On a certified frame
    (``ChartFrame.certificate``) span membership is module membership and
    holds at every chart point, so that decides it exactly.  Other frames
    must also keep every bracket in the span of their columns at each of the
    frame's seeded exceptional samples; true module membership is not
    decided for them.
    """
    chart_alg = frame.nca.algebroid
    n = chart_alg.bundle.fiber_rank
    columns = frame.columns
    brackets = [bracket_with_basis(chart_alg, kappa, j) for kappa in columns for j in range(n)]
    brackets += [section_bracket(chart_alg, a, b) for a, b in itertools.combinations(columns, 2)]
    if not all(frame.spans(bracket) for bracket in brackets):
        return False
    if frame.certificate is not None:
        return True
    fibers = [Subspace(n, [[p.eval(u0) for p in col] for col in columns]) for u0 in frame.samples]
    return all(
        fiber.contains([v.eval(u0) for v in bracket])
        for bracket in brackets
        for fiber, u0 in zip(fibers, frame.samples)
    )


@dataclass(frozen=True)
class Relation:
    """One dependent pullback expressed over a chosen independent subset."""

    index: int
    basis: tuple[int, ...]
    coefficients: tuple[RatFunc, ...]
    polynomial: bool


def debord_generators(pullback: ChartPullback) -> list[Relation]:
    """Relations among the basis pullbacks over a maximal independent subset.

    Subsets are scanned in lexicographic index order; the first one whose
    relation coefficients all reduce to polynomials wins.  When no subset
    manages that, the first independent subset is kept and the offending
    relations are reported with polynomial = False (not fatal).  The rank
    and the first subset's relations come from the pullback's `kernel`.
    """
    anchor = pullback.anchor.anchor
    n = pullback.bundle.fiber_rank
    r = n - len(pullback.kernel)
    fallback: list[Relation] | None = None
    for subset in itertools.combinations(range(n), r):
        rest = [j for j in range(n) if j not in subset]
        if subset == tuple(range(r)):
            kernel = pullback.kernel
        else:  # the subset's columns first
            kernel = kernel_basis([[row[j] for j in (*subset, *rest)] for row in anchor])
        # one vector per free column, ascending, each zero past it: the subset
        # is independent iff each is nonzero past r, and vector i then gives
        # rest[i] as the sum over c < r of -w[c] / w[r+i] times column c
        if not all(any(w[r:]) for w in kernel):
            continue
        relations = []
        for f, (j, w) in enumerate(zip(rest, kernel), start=r):
            coeffs = tuple(RatFunc(-w[c], w[f]) for c in range(r))
            relations.append(Relation(j, subset, coeffs, all(c.is_polynomial() for c in coeffs)))
        if fallback is None:
            fallback = relations
        if all(rel.polynomial for rel in relations):
            return relations
    if fallback is None:
        raise InternalInvariantError("anchor pullback matrix has no independent subset")
    return fallback


def check_debord_on_chart(frame: ChartFrame) -> bool:
    """Certify the exact-sequence ranks: frame + quotient = ambient.

    The frame's columns lie in the kernel of the pullback matrix (its
    constructor checks them) and it is as wide as P's kernel, so by rank +
    nullity the quotient rank is the ambient rank less the frame width.
    True when the frame's `rank` is its width, so its columns are independent
    over the fraction field, and the quotient keeps the generic anchor rank,
    so the induced quotient anchor is injective on a dense open subset of
    the chart.
    """
    source = frame.nca.pullback.bundle
    return frame.rank == frame.width and (
        source.fiber_rank - frame.width == anchor_rank_generic(source)
    )
