"""The worked models, standard charts and shipped corpus that tests build on.

Each model function builds an algebroid (or bivector) from scratch; the
scenario JSON files in nashfol/scenarios mirror these and a corpus test keeps
the two in sync.  No command reaches this module: commands read documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from nashfol.algebroid import AlmostLieAlgebroid, AnchoredBundle, Section
from nashfol.charts import ChartMap
from nashfol.grassmann import Subspace
from nashfol.nash import CURVE_VAR, CurveGerm, default_arcs
from nashfol.poisson import Bivector
from nashfol.poly import ArityMismatchError, MultiPoly, grlex_key, parse_poly
from nashfol.scenario import Scenario, load_scenario


def _polys(variables, rows):
    return [[parse_poly(e, variables) for e in row] for row in rows]


def special_linear_2_algebroid() -> AlmostLieAlgebroid:
    """Rank-3 algebroid on the plane: scaling flow plus the two shears.

    Frame order: the diagonal flow, then the upper and lower triangular
    generators; singular exactly at the origin.
    """
    vs = ("x", "y")
    bundle = AnchoredBundle(vs, _polys(vs, [["x", "0", "y"], ["-y", "x", "0"]]))
    c = {
        (0, 1): [parse_poly(e, vs) for e in ("0", "2", "0")],
        (0, 2): [parse_poly(e, vs) for e in ("0", "0", "-2")],
        (1, 2): [parse_poly(e, vs) for e in ("1", "0", "0")],
    }
    return AlmostLieAlgebroid(bundle, c)


def matrix_action_algebroid(d: int) -> AlmostLieAlgebroid:
    """Action algebroid of all d-by-d matrices acting on affine d-space.

    Basis section (k, j), listed with k outer, acts as the field x_k d/dx_j;
    brackets are the matrix-unit commutation relations.
    """
    vs = tuple(f"x{i + 1}" for i in range(d))
    zero = MultiPoly.zero(vs)
    one = MultiPoly.constant(vs, 1)
    n = d * d

    def idx(k: int, j: int) -> int:
        return k * d + j

    anchor = [[zero] * n for _ in range(d)]
    for k in range(d):
        for j in range(d):
            anchor[j][idx(k, j)] = MultiPoly.variable(vs, vs[k])
    structure: dict[tuple[int, int], Section] = {}
    pairs = [(k, j) for k in range(d) for j in range(d)]
    for p in range(n):
        for q in range(p + 1, n):
            (i, j), (k, l) = pairs[p], pairs[q]
            sec = [zero] * n
            if j == k:
                sec[idx(i, l)] = sec[idx(i, l)] + one
            if l == i:
                sec[idx(k, j)] = sec[idx(k, j)] - one
            structure[(p, q)] = sec
    return AlmostLieAlgebroid(AnchoredBundle(vs, anchor), structure)


def degree_monomials(variables, degree: int):
    """Exponent vectors of the given total degree, graded-lex descending."""
    d = len(variables)
    exps = set()
    for combo in combinations_with_replacement(range(d), degree):
        e = [0] * d
        for i in combo:
            e[i] += 1
        exps.add(tuple(e))
    return sorted(exps, key=grlex_key, reverse=True)


def vanishing_order_bundle(order: int, d: int) -> AnchoredBundle:
    """Bundle of the foliation of all fields vanishing to the given order.

    Frame sections are monomial multiples of the coordinate fields: slot
    j * (#monomials) + m carries the m-th degree-`order` monomial times
    d/dx_j, monomials in graded-lex descending order.
    """
    vs = tuple("xyzw"[i] if d <= 4 else f"x{i + 1}" for i in range(d))
    monos = degree_monomials(vs, order)
    zero = MultiPoly.zero(vs)
    n = d * len(monos)
    anchor = [[zero] * n for _ in range(d)]
    for j in range(d):
        for m, e in enumerate(monos):
            anchor[j][j * len(monos) + m] = MultiPoly(vs, {e: 1})
    return AnchoredBundle(vs, anchor)


def vanishing_order_algebroid(order: int, d: int) -> AlmostLieAlgebroid:
    """The bundle above with the candidate monomial bracket.

    The bracket sends a frame pair to the monomial transvections with the
    convention that a non-divisible monomial quotient contributes nothing.
    For order 1 this is the matrix-action bracket and the anchor-morphism
    axiom holds; for order >= 2 validation reports nonzero defects, so
    consumers should fall back to anchor-only computations.
    """
    bundle = vanishing_order_bundle(order, d)
    vs = bundle.base_vars
    monos = degree_monomials(vs, order)
    nm = len(monos)
    mono_index = {e: m for m, e in enumerate(monos)}
    zero = MultiPoly.zero(vs)
    n = bundle.fiber_rank

    def decompose(slot: int):
        return slot // nm, monos[slot % nm]

    def shrink(exps, j):
        if exps[j] == 0:
            return None
        out = list(exps)
        out[j] -= 1
        return tuple(out)

    structure: dict[tuple[int, int], Section] = {}
    for p in range(n):
        for q in range(p + 1, n):
            j, i_exps = decompose(p)
            l, j_exps = decompose(q)
            sec = [zero] * n
            down = shrink(j_exps, j)
            if down is not None:
                target = l * nm + mono_index[i_exps]
                sec[target] = sec[target] + MultiPoly(vs, {down: 1})
            down = shrink(i_exps, l)
            if down is not None:
                target = j * nm + mono_index[j_exps]
                sec[target] = sec[target] - MultiPoly(vs, {down: 1})
            structure[(p, q)] = sec
    return AlmostLieAlgebroid(bundle, structure)


def rotation_action_algebroid() -> AlmostLieAlgebroid:
    """Action algebroid of the rotation algebra on 3-space (cyclic frame)."""
    vs = ("x", "y", "z")
    bundle = AnchoredBundle(
        vs, _polys(vs, [["0", "-z", "y"], ["z", "0", "-x"], ["-y", "x", "0"]])
    )
    c = {
        (0, 1): [parse_poly(e, vs) for e in ("0", "0", "1")],
        (0, 2): [parse_poly(e, vs) for e in ("0", "-1", "0")],
        (1, 2): [parse_poly(e, vs) for e in ("1", "0", "0")],
    }
    return AlmostLieAlgebroid(bundle, c)


def sphere_generators_algebroid() -> AlmostLieAlgebroid:
    """The concentric-spheres foliation by its three tangential generators.

    Columns are the fields z d/dy - y d/dz, z d/dx - x d/dz, y d/dx - x d/dy;
    structure sections are their actual commutators.
    """
    vs = ("x", "y", "z")
    bundle = AnchoredBundle(
        vs, _polys(vs, [["0", "z", "y"], ["z", "0", "-x"], ["-y", "-x", "0"]])
    )
    c = {
        (0, 1): [parse_poly(e, vs) for e in ("0", "0", "-1")],
        (0, 2): [parse_poly(e, vs) for e in ("0", "1", "0")],
        (1, 2): [parse_poly(e, vs) for e in ("-1", "0", "0")],
    }
    return AlmostLieAlgebroid(bundle, c)


def linear_poisson_so3() -> Bivector:
    """The linear bivector whose symplectic leaves are concentric spheres."""
    vs = ("x", "y", "z")
    return Bivector.from_upper_entries(
        vs,
        {
            (0, 1): parse_poly("-z", vs),
            (0, 2): parse_poly("y", vs),
            (1, 2): parse_poly("-x", vs),
        },
    )


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


def surface_function(n: int) -> MultiPoly:
    """xy - z^(n+1)/(n+1), the family of isolated surface singularities."""
    vs = ("x", "y", "z")
    return parse_poly("x*y", vs) - parse_poly("z", vs) ** (n + 1) * Fraction(1, n + 1)


def surface_bivector(n: int) -> Bivector:
    """Exact bivector of the surface singularity family."""
    return jacobian_bivector(surface_function(n))


def basis_section(bundle: AnchoredBundle, i: int) -> Section:
    one = MultiPoly.constant(bundle.base_vars, 1)
    return [one if j == i else bundle.zero_poly() for j in range(bundle.fiber_rank)]


def reparametrize(curve: CurveGerm, scale: Fraction) -> CurveGerm:
    scaled = []
    for comp in curve.components:
        scaled.append(
            MultiPoly(
                CURVE_VAR,
                {e: c * scale ** e[0] for e, c in comp.terms.items()},
            )
        )
    return CurveGerm(curve.target, tuple(scaled))


def smaller_arc_budget(x, seed: int, rays: int, quadratics: int) -> list[CurveGerm]:
    """The coordinate rays of default_arcs(x, seed), its first ``rays``
    random rays and its first ``quadratics`` quadratic arcs.  It draws its 16
    rays and 8 quadratics from separate seeded streams, so each prefix is
    what a smaller budget draws."""
    arcs = default_arcs(x, seed)
    coordinate = 2 * len(x)
    return arcs[: coordinate + rays] + arcs[coordinate + 16 : coordinate + 16 + quadratics]


def span_of_integer_vectors(n: int, vectors: Iterable[Sequence[int]]) -> Subspace:
    return Subspace(n, [[Fraction(x) for x in v] for v in vectors])


def identity_chart(variables: Sequence[str]) -> ChartMap:
    vs = tuple(variables)
    return ChartMap(vs, vs, [MultiPoly.variable(vs, v) for v in vs])


def blowup(
    target_vars: Sequence[str],
    index: int,
    chart_vars: Sequence[str] | None = None,
) -> ChartMap:
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
    return ChartMap(cvs, tvs, phi, exceptional=pivot)


def corpus_names() -> list[str]:
    """Names of the scenario files shipped with the package."""
    root = resources.files("nashfol") / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_corpus_scenario(name: str) -> Scenario:
    path = resources.files("nashfol") / "scenarios" / f"{name}.json"
    with path.open(encoding="utf-8") as handle:
        return load_scenario(json.load(handle))
