"""Chart-level blow-up computations.

A ChartMap is a polynomial map from chart coordinates to the base whose
Jacobian is invertible over the fraction field.  Off the exceptional locus it
is a diffeomorphism onto its image, so vector fields and bivectors on the
base pull back to unique rational objects on the chart; whether those are
polynomial is exactly the question of whether the chart resolves the
foliation.  The tautological frame collects polynomial kernel columns of the
pulled-back anchor, and the quotient checks certify the rank bookkeeping
ambient = frame + quotient on each chart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    Section,
    _bundle_of,
    anchor_rank_generic,
    morphism_defect_pairs,
    section_bracket,
)
from .grassmann import Subspace
from .linalg import (
    RowEchelon,
    adjugate,
    clear_denominators,
    det,
    frac_kernel,
    frac_rank,
    kernel_basis,
    poly_mat_vec,
    rank,
    ratfunc_solve,
    solve,
)
from .nash import _seeded_rng
from .poisson import Bivector
from .poly import (
    ArityMismatchError,
    InternalInvariantError,
    MultiPoly,
    RatFunc,
    divides,
    exact_div,
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
        where = ", ".join(
            "(" + ", ".join(str(c) for c in s) + ")" for s in self.samples
        )
        super().__init__(
            f"frame stays rank-deficient at {where}: either no polynomial "
            "frame exists on this chart, or the column-reduction heuristic "
            "failed to find one"
        )


class ChartMap:
    """A square polynomial chart with invertible Jacobian.

    ``phi`` maps chart coordinates to base coordinates; ``jac`` caches the
    Jacobian d(phi_i)/d(u_j).  ``exceptional`` (optional) cuts out the locus
    where the chart collapses and must divide a power of det(jac).
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
            if not divides(exceptional, self.jac_det ** len(cvs)):
                raise ValueError(
                    "exceptional polynomial does not divide a power of det(jac)"
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

    @classmethod
    def identity(cls, variables: Sequence[str]) -> "ChartMap":
        vs = tuple(variables)
        return cls(vs, vs, [MultiPoly.variable(vs, v) for v in vs])

    @classmethod
    def blowup(
        cls,
        target_vars: Sequence[str],
        index: int,
        chart_vars: Sequence[str] | None = None,
    ) -> "ChartMap":
        """The standard chart of the blow-up at the origin in which the given
        coordinate is the exceptional parameter: that coordinate maps to
        itself and every other one to (it times the matching chart variable).
        """
        tvs = tuple(target_vars)
        d = len(tvs)
        if not 0 <= index < d:
            raise ValueError(f"chart index {index} out of range for dimension {d}")
        cvs = tuple(chart_vars) if chart_vars is not None else tvs
        if len(cvs) != d:
            raise ArityMismatchError("chart_vars must match the target dimension")
        pivot = MultiPoly.variable(cvs, cvs[index])
        phi = [
            pivot if j == index else pivot * MultiPoly.variable(cvs, cvs[j])
            for j in range(d)
        ]
        return cls(cvs, tvs, phi, exceptional=pivot)


@dataclass(frozen=True)
class PulledBackField:
    """The unique rational chart field Y with (Jacobian of phi) * Y = X o phi."""

    components: tuple[RatFunc, ...]
    polynomial_flag: bool
    denominator: MultiPoly | None

    def polynomial_components(self) -> list[MultiPoly]:
        if not self.polynomial_flag:
            raise ValueError(f"pullback is not polynomial (denominator {self.denominator})")
        return [c.as_poly() for c in self.components]


def _den_lcm(dens: Sequence[MultiPoly]) -> MultiPoly:
    """Least common denominator under a divisibility fold.

    Exact when the denominators share a divisibility chain (the case for
    blow-up charts, where every denominator is a power of the exceptional
    polynomial); otherwise the product is a safe common denominator.
    """
    acc = dens[0]
    for d in dens[1:]:
        if divides(acc, d):
            acc = d
        elif not divides(d, acc):
            acc = acc * d
    return acc.primitive()


def pullback_vector_field(chart: ChartMap, field: Sequence[MultiPoly]) -> PulledBackField:
    """Solve (Jacobian of phi) * Y = X o phi over the fraction field.

    By construction the result is phi-related to X; the defining identity is
    re-checked symbolically before returning.
    """
    rhs = [chart.compose(p) for p in field]
    comps = solve(chart.jac, rhs)
    for i in range(chart.dim):
        acc = RatFunc(MultiPoly.zero(chart.chart_vars))
        for j in range(chart.dim):
            acc = acc + comps[j] * chart.jac[i][j]
        if acc != rhs[i]:
            raise InternalInvariantError("pullback does not satisfy its defining equation")
    poly_flags = [c.is_polynomial() for c in comps]
    if all(poly_flags):
        return PulledBackField(tuple(comps), True, None)
    dens = [c.den for c, f in zip(comps, poly_flags) if not f]
    return PulledBackField(tuple(comps), False, _den_lcm(dens))


def pullback_bivector(
    chart: ChartMap, pi: Bivector
) -> tuple[list[list[RatFunc]], MultiPoly | None]:
    """Congruence transform of the bivector matrix by the inverse Jacobian.

    Returns the rational chart bivector and its pole: the least common
    denominator of the entries, or None when all of them are polynomial.
    """
    if pi.vars != chart.target_vars:
        raise ArityMismatchError(f"bivector over {pi.vars}, expected {chart.target_vars}")
    d = chart.dim
    pi_phi = [[chart.compose(pi.matrix[i][j]) for j in range(d)] for i in range(d)]
    adj = adjugate(chart.jac)
    middle = []
    for i in range(d):
        row = []
        for b in range(d):
            acc = MultiPoly.zero(chart.chart_vars)
            for a in range(d):
                acc = acc + adj[i][a] * pi_phi[a][b]
            row.append(acc)
        middle.append(row)
    det_sq = chart.jac_det * chart.jac_det
    out: list[list[RatFunc]] = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = MultiPoly.zero(chart.chart_vars)
            for b in range(d):
                acc = acc + middle[i][b] * adj[j][b]
            row.append(RatFunc(acc, det_sq))
        out.append(row)
    for i in range(d):
        for j in range(d):
            if not (out[i][j] + out[j][i]).is_zero():
                raise InternalInvariantError("pullback lost skew-symmetry")
    dens = [
        out[i][j].den
        for i in range(d)
        for j in range(i + 1, d)
        if not out[i][j].is_polynomial()
    ]
    pole = _den_lcm(dens) if dens else None
    return out, pole


class NashChartAlgebroid:
    """The pulled-back algebroid on one chart.

    ``algebroid`` lives over the chart variables with anchor columns the
    basis pullbacks and structure sections composed with the chart map.
    """

    def __init__(
        self,
        source: AlmostLieAlgebroid,
        chart: ChartMap,
        pullbacks: list[PulledBackField],
        algebroid: AlmostLieAlgebroid,
    ):
        self.source = source
        self.chart = chart
        self.pullbacks = pullbacks
        self.algebroid = algebroid


def pullback_anchor(bundle: AnchoredBundle, chart: ChartMap) -> list[PulledBackField]:
    """The pullback of every anchor column (basis section image) to the chart."""
    d = bundle.base_dim
    return [
        pullback_vector_field(chart, [bundle.anchor[i][j] for i in range(d)])
        for j in range(bundle.fiber_rank)
    ]


def _resolved_columns(pullbacks: Sequence[PulledBackField]) -> list[list[MultiPoly]]:
    """Polynomial components of every pullback; raises if any has a pole."""
    failures = [
        (j, pb.denominator) for j, pb in enumerate(pullbacks) if not pb.polynomial_flag
    ]
    if failures:
        raise NotResolvedByChartError(failures)
    return [pb.polynomial_components() for pb in pullbacks]


def nash_anchor_on_chart(
    algebroid: AlmostLieAlgebroid, chart: ChartMap
) -> NashChartAlgebroid:
    """Pull the algebroid back to the chart; every basis pullback must be polynomial."""
    bundle = algebroid.bundle
    if bundle.base_vars != chart.target_vars:
        raise ArityMismatchError("algebroid and chart live over different base variables")
    n = bundle.fiber_rank
    d = bundle.base_dim
    pullbacks = pullback_anchor(bundle, chart)
    columns = _resolved_columns(pullbacks)
    anchor = [[columns[j][i] for j in range(n)] for i in range(d)]
    structure = {
        pair: [chart.compose(p) for p in section]
        for pair, section in algebroid.structure.items()
    }
    chart_algebroid = AlmostLieAlgebroid(
        AnchoredBundle(chart.chart_vars, anchor), structure
    )
    if not morphism_defect_pairs(algebroid):
        bad = morphism_defect_pairs(chart_algebroid)
        if bad:
            raise InternalInvariantError(
                f"chart bracket lost the anchor morphism on pairs {bad}"
            )
    return NashChartAlgebroid(algebroid, chart, pullbacks, chart_algebroid)


class ChartFrame:
    """Polynomial kernel columns of the pulled-back anchor, full rank pointwise."""

    def __init__(self, chart: ChartMap, columns: Sequence[Sequence[MultiPoly]]):
        self.chart = chart
        self.columns = [list(c) for c in columns]

    @property
    def width(self) -> int:
        return len(self.columns)

    def matrix(self) -> list[list[MultiPoly]]:
        n = len(self.columns[0]) if self.columns else 0
        return [[col[i] for col in self.columns] for i in range(n)]

    def eval_at(self, point: Point) -> list[list[Fraction]]:
        n = len(self.columns[0]) if self.columns else 0
        return [[col[i].eval(point) for col in self.columns] for i in range(n)]

    def rank_at(self, point: Point) -> int:
        if not self.columns:
            return 0
        return frac_rank(self.eval_at(point))


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
    a0 = abs(prim.eval([Fraction(0)]))
    an = abs(prim.leading()[1])
    num_divisors = [k for k in range(1, int(a0) + 1) if a0 % k == 0]
    den_divisors = [k for k in range(1, int(an) + 1) if an % k == 0]
    for num in num_divisors:
        for den in den_divisors:
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if prim.eval([cand]) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


_SAMPLE_NUMERATORS = list(range(-3, 4))
_SAMPLE_DENOMINATORS = [1, 2]


def exceptional_samples(chart: ChartMap, seed: int = 0, count: int = 6) -> list[Point]:
    """Seeded rational points on the exceptional locus of the chart.

    Cycles through the chart variables, freezes the others at random
    rationals, and solves the resulting univariate equation exactly.  Always
    includes the origin when it lies on the locus.  May return fewer than
    ``count`` points (none at all for a chart with constant exceptional
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
    for attempt in range(count * 8):
        if len(points) >= count:
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
    return [tuple(p) for p in points[:count]]


def tautological_frame(nca: NashChartAlgebroid, seed: int = 0) -> ChartFrame:
    """Kernel frame of the pulled-back anchor P, repaired to full rank on the
    exceptional locus by bounded column operations.

    J * P = A o phi with det J != 0, so P has the kernel and the rank of the
    substituted anchor without substituting A.
    """
    chart = nca.chart
    bundle = nca.algebroid.bundle
    if anchor_rank_generic(bundle) != anchor_rank_generic(nca.source):
        raise ValueError("chart does not resolve: substituted anchor dropped rank")
    cols = kernel_basis(bundle.anchor)
    k = len(cols)
    if k == 0:
        return ChartFrame(chart, [])
    samples = exceptional_samples(chart, seed=seed)
    e_poly = chart.exceptional_poly()
    n = bundle.fiber_rank
    deficient = None
    for _ in range(4 * n + 1):
        deficient = None
        for u0 in samples:
            m = [[col[i].eval(u0) for col in cols] for i in range(n)]
            if frac_rank(m) < k:
                deficient = (u0, m)
                break
        if deficient is None:
            frame = ChartFrame(chart, cols)
            if _columns_outside_kernel(nca, frame):
                raise InternalInvariantError("frame column left the kernel")
            return frame
        u0, m = deficient
        relation = frac_kernel(m, k)[0]
        scale = math.lcm(*(c.denominator for c in relation))
        ints = [int(c * scale) for c in relation]
        involved = [idx for idx, c in enumerate(ints) if c]
        leader = involved[-1]
        combo = [MultiPoly.zero(chart.chart_vars) for _ in range(n)]
        for idx in involved:
            combo = [acc + cols[idx][i] * ints[idx] for i, acc in enumerate(combo)]
        while all(divides(e_poly, p) for p in combo):
            combo = [exact_div(p, e_poly) for p in combo]
        combo = clear_denominators([RatFunc(p) for p in combo])
        same = combo == cols[leader] or combo == [-p for p in cols[leader]]
        if same:
            raise FrameReductionFailedError([u0])
        cols[leader] = combo
    raise FrameReductionFailedError([deficient[0]] if deficient else samples)


def _columns_outside_kernel(nca: NashChartAlgebroid, frame: ChartFrame) -> list[int]:
    """Indices of the frame columns that the chart anchor P does not kill.

    J * P = A o phi with det J != 0, so P * k = 0 exactly when (A o phi) * k = 0:
    the pulled-back anchor decides kernel membership without substituting A.
    """
    anchor = nca.algebroid.bundle.anchor
    return [
        idx
        for idx, col in enumerate(frame.columns)
        if not all(p.is_zero() for p in poly_mat_vec(anchor, col))
    ]


def check_ideal(nca: NashChartAlgebroid, frame: ChartFrame, seed: int = 0) -> tuple[bool, dict]:
    """Bracket-ideal and Lie-algebra-bundle check for the frame on the chart.

    Brackets of frame columns against basis sections (and against each other)
    must stay in the frame's column span, generically over the fraction field
    and pointwise at seeded exceptional samples.  Results are labeled
    "generic + sampled": true module membership is not decided here.
    """
    chart_alg = nca.algebroid
    outside = _columns_outside_kernel(nca, frame)
    if outside:
        return False, {"precondition": f"frame column {outside[0]} is not a kernel section"}
    samples = exceptional_samples(nca.chart, seed=seed)
    n = chart_alg.bundle.fiber_rank
    report = {
        "label": "generic + sampled",
        "samples": [[str(c) for c in u0] for u0 in samples],
        "pairs_checked": 0,
        "generic": True,
        "pointwise": True,
    }
    to_check: list[Section] = []
    for kappa in frame.columns:
        for j in range(n):
            to_check.append(section_bracket(chart_alg, kappa, chart_alg.bundle.basis_section(j)))
    for a_idx in range(frame.width):
        for b_idx in range(a_idx + 1, frame.width):
            to_check.append(
                section_bracket(chart_alg, frame.columns[a_idx], frame.columns[b_idx])
            )
    report["pairs_checked"] = len(to_check)
    span = RowEchelon(frame.columns)
    fibers = [
        Subspace(n, [[p.eval(u0) for p in col] for col in frame.columns]) for u0 in samples
    ]
    for bracket in to_check:
        if not span.contains(bracket):
            report["generic"] = False
        for fiber, u0 in zip(fibers, samples):
            if not fiber.contains([v.eval(u0) for v in bracket]):
                report["pointwise"] = False
    ok = report["generic"] and report["pointwise"]
    return ok, report


@dataclass(frozen=True)
class Relation:
    """One dependent pullback expressed over a chosen independent subset."""

    index: int
    basis: tuple[int, ...]
    coefficients: tuple[RatFunc, ...]
    polynomial: bool


def debord_generators(a, chart: ChartMap) -> tuple[list[PulledBackField], list[Relation]]:
    """Basis pullbacks plus relations over a maximal independent subset.

    Subsets are scanned in lexicographic index order; the first one whose
    relation coefficients all reduce to polynomials wins.  When no subset
    manages that, the first independent subset is kept and the offending
    relations are reported with polynomial = False (not fatal).
    """
    bundle = _bundle_of(a)
    n = bundle.fiber_rank
    d = bundle.base_dim
    pullbacks = pullback_anchor(bundle, chart)
    columns = _resolved_columns(pullbacks)
    full = [[columns[j][i] for j in range(n)] for i in range(d)]
    r = rank(full)
    fallback: list[Relation] | None = None
    for subset in itertools.combinations(range(n), r):
        chosen = [columns[j] for j in subset]
        if rank([[col[i] for col in chosen] for i in range(d)]) < r:
            continue
        relations = []
        for j in range(n):
            if j in subset:
                continue
            coeffs = ratfunc_solve(chosen, columns[j])
            if coeffs is None:
                raise InternalInvariantError("maximal independent subset failed to span")
            relations.append(
                Relation(
                    index=j,
                    basis=subset,
                    coefficients=tuple(coeffs),
                    polynomial=all(c.is_polynomial() for c in coeffs),
                )
            )
        if fallback is None:
            fallback = relations
        if all(rel.polynomial for rel in relations):
            return pullbacks, relations
    if fallback is None:
        raise InternalInvariantError("anchor pullback matrix has no independent subset")
    return pullbacks, fallback


def check_debord_on_chart(nca: NashChartAlgebroid, frame: ChartFrame) -> tuple[bool, dict]:
    """Certify the exact-sequence ranks: frame + quotient = ambient.

    True when the pullback matrix keeps the generic anchor rank and the frame
    columns span its kernel generically, so the induced quotient anchor is
    injective on a dense open subset of the chart.
    """
    n = nca.source.bundle.fiber_rank
    quotient_rank = anchor_rank_generic(nca.algebroid)
    r = anchor_rank_generic(nca.source)
    kernel_ok = not _columns_outside_kernel(nca, frame)
    frame_rank = rank(frame.matrix()) if frame.columns else 0
    certificate = {
        "ambient_rank": n,
        "quotient_rank": quotient_rank,
        "frame_rank": frame_rank,
        "frame_in_kernel": kernel_ok,
        "sum_matches": frame_rank + quotient_rank == n,
    }
    ok = (
        quotient_rank == r
        and kernel_ok
        and frame_rank == n - r
        and certificate["sum_matches"]
    )
    return ok, certificate
