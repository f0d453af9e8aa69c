"""Acceptance gate: one test per shipped claim, exact arithmetic throughout.

Every expectation here is either a hand-derived exact value or a theorem-
backed property checked with zero tolerance; nothing is compared up to
rounding.  The suite is seeded and deterministic.
"""

from fractions import Fraction
from random import Random

import pytest

from nashfol.algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    anchor_rank_generic,
    generic_kernel_sections,
    is_lie_algebroid,
    kernel_at,
    lie_derivative,
    morphism_defect_pairs,
    section_bracket,
    singular_locus,
)
from nashfol.charts import (
    ChartMap,
    ChartPullback,
    check_debord_on_chart,
    check_ideal,
    debord_generators,
    nash_anchor_on_chart,
    pullback_bivector,
    tautological_frame,
)
from nashfol.grassmann import (
    NotDecomposableError,
    PlueckerVector,
    Subspace,
    unpluecker,
)
from nashfol.linalg import frac_kernel, frac_rank
from nashfol.nash import (
    CurveGerm,
    CurveInSingularLocusError,
    check_flag,
    default_arcs,
    kernel_curve,
    limit_subspace,
    nash_fiber_sample,
)
from nashfol.poisson import cotangent_algebroid, gradient, pi_sharp
from nashfol.poly import MultiPoly, RatFunc, divides, parse_poly
from checks import (
    annihilator_duality_check,
    check_limit_subalgebra,
    convergence_errors,
    is_regular_point,
    isotropy_image,
    rank_at,
)
from models import (
    blowup,
    corpus_names,
    degree_monomials,
    load_corpus_scenario,
    matrix_action_algebroid,
    rotation_action_algebroid,
    smaller_arc_budget,
    special_linear_2_algebroid,
    sphere_generators_algebroid,
    surface_bivector,
    surface_function,
    vanishing_order_bundle,
)

ORACLE_TIMES = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]


def _polys(variables, *texts):
    return [parse_poly(t, variables) for t in texts]


def _pullback_columns(pullback):
    return [[c.as_poly() for c in pb.components] for pb in pullback.fields]


def _scenarios():
    return [(name, load_corpus_scenario(name)) for name in corpus_names()]


def _bundle_and_bracket(scenario):
    """The anchored bundle driving kernels plus a bracket carrier if any."""
    if scenario.algebroid is not None:
        a = scenario.algebroid
        if isinstance(a, AlmostLieAlgebroid):
            return a.bundle, a
        return a, None
    return pi_sharp(scenario.bivector), cotangent_algebroid(scenario.bivector)


def _seeded_points(bundle, seed, count):
    rng = Random(seed)
    d = len(bundle.base_vars)
    found = []
    while len(found) < count:
        x = [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(d)]
        if is_regular_point(bundle, x) and x not in found:
            found.append(x)
    return found


def test_criterion_1_sl2_chart_reproduction():
    a = special_linear_2_algebroid()
    chart = ChartMap(
        ("x", "y"), ("x", "y"), _polys(("x", "y"), "x", "x*y"), parse_poly("x", ("x", "y"))
    )
    pullback = ChartPullback(a.bundle, chart)
    cvs = chart.chart_vars
    assert _pullback_columns(pullback) == [
        _polys(cvs, "x", "-2*y"),
        _polys(cvs, "0", "1"),
        _polys(cvs, "x*y", "-y^2"),
    ]
    relations = debord_generators(pullback)
    assert len(relations) == 1
    rel = relations[0]
    assert (rel.index, rel.basis, rel.polynomial) == (2, (0, 1), True)
    assert list(rel.coefficients) == [
        RatFunc(parse_poly("y", cvs)),
        RatFunc(parse_poly("y^2", cvs)),
    ]


def test_criterion_2_so3_chart_reproduction():
    a = sphere_generators_algebroid()
    vs = ("x", "y", "z")
    chart = ChartMap(vs, vs, _polys(vs, "x", "x*y", "x*z"), parse_poly("x", vs))
    pullback = ChartPullback(a.bundle, chart)
    assert _pullback_columns(pullback) == [
        _polys(vs, "0", "z", "-y"),
        _polys(vs, "x*z", "-y*z", "-z^2 - 1"),
        _polys(vs, "x*y", "-y^2 - 1", "-y*z"),
    ]
    relations = debord_generators(pullback)
    rel = relations[0]
    assert (rel.index, rel.basis, rel.polynomial) == (0, (1, 2), True)
    assert list(rel.coefficients) == [
        RatFunc(parse_poly("y", vs)),
        RatFunc(parse_poly("-z", vs)),
    ]

    from models import linear_poisson_so3

    mat, pole = pullback_bivector(chart, linear_poisson_so3())
    assert pole is not None and pole.primitive() == parse_poly("x", vs)
    assert mat[1][2] == RatFunc(parse_poly("-1 - y^2 - z^2", vs), parse_poly("x", vs))

    nca = nash_anchor_on_chart(a, pullback)
    frame = tautological_frame(nca)
    ideal_ok, _ = check_ideal(frame)
    debord_ok, cert = check_debord_on_chart(frame)
    assert ideal_ok and debord_ok
    assert (cert["frame_rank"], cert["quotient_rank"], cert["ambient_rank"]) == (1, 2, 3)


def test_criterion_3_gl_chart_membership_and_singular_locus():
    for d in (2, 3):
        a = matrix_action_algebroid(d)
        vs = a.bundle.base_vars
        cvs = tuple(f"y{k + 1}" for k in range(d))
        for i in range(d):
            chart = blowup(vs, i, chart_vars=cvs)
            pivot = parse_poly(cvs[i], cvs)
            for comps in _pullback_columns(ChartPullback(a.bundle, chart)):
                # membership in the module spanned by y_i d/dy_i and the
                # other coordinate fields: the pivot component must carry a
                # factor of the pivot variable, the rest may be anything
                assert divides(pivot, comps[i])
        monomials = {
            str(MultiPoly(vs, {e: Fraction(1)})) for e in degree_monomials(vs, d)
        }
        locus = {str(p.primitive()) for p in singular_locus(a.bundle) if not p.is_zero()}
        assert locus == monomials


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_4_duval_kernels_and_limits(n):
    bundle = pi_sharp(surface_bivector(n))
    grad = gradient(surface_function(n))
    rng = Random(400 + n)

    checked = 0
    while checked < 10:
        x = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        g = [c.eval(x) for c in grad]
        if all(c == 0 for c in g) or not is_regular_point(bundle, x):
            continue
        assert kernel_at(bundle, x) == Subspace(3, [g])
        checked += 1

    seen_rays = 0
    while seen_rays < 10:
        direction = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        if direction[0] == 0 and direction[1] == 0:
            continue
        curve = CurveGerm.polynomial((Fraction(0),) * 3, direction)
        limit = limit_subspace(kernel_curve(bundle, curve))
        assert limit == Subspace(3, [[direction[1], direction[0], Fraction(0)]])
        errors = convergence_errors(bundle, curve, limit, ORACLE_TIMES)
        assert all(e == 0 for e in errors) or errors[0] > errors[1] > errors[2]
        seen_rays += 1

    axis = CurveGerm.polynomial((Fraction(0),) * 3, [Fraction(0), Fraction(0), Fraction(1)])
    limit = limit_subspace(kernel_curve(bundle, axis))
    assert limit == Subspace(3, [[0, 0, 1]])
    assert convergence_errors(bundle, axis, limit, ORACLE_TIMES) == [0, 0, 0]


def test_criterion_5_veronese_rays():
    bundle = vanishing_order_bundle(2, 2)
    lambdas = [Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)]
    limits = []
    for lam in lambdas:
        curve = CurveGerm.polynomial((Fraction(0), Fraction(0)), [Fraction(1), lam])
        limit = limit_subspace(kernel_curve(bundle, curve))
        annihilators = [
            [Fraction(1), lam, lam * lam, Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1), lam, lam * lam],
        ]
        assert limit == Subspace(6, frac_kernel(annihilators, 6))
        limits.append(limit)
    for i, u in enumerate(limits):
        for w in limits[i + 1 :]:
            assert u != w


def test_criterion_6_property_suite():
    rng = Random(606)
    limits_checked = 0
    for name, sc in _scenarios():
        bundle, bracket = _bundle_and_bracket(sc)
        vs = bundle.base_vars
        n = bundle.fiber_rank

        if isinstance(sc.algebroid, AlmostLieAlgebroid):
            assert morphism_defect_pairs(sc.algebroid) == []
            assert is_lie_algebroid(sc.algebroid)

        if bracket is not None:
            # Leibniz identity for random sections: [a, f b] = f [a, b] + (rho(a) f) b
            for _ in range(2):
                a_sec = [_random_poly(rng, vs) for _ in range(n)]
                b_sec = [_random_poly(rng, vs) for _ in range(n)]
                f = _random_poly(rng, vs)
                lhs = section_bracket(bracket, a_sec, [f * bk for bk in b_sec])
                base = section_bracket(bracket, a_sec, b_sec)
                rho_a = bracket.bundle.anchor_of_section(a_sec)
                drift = lie_derivative(rho_a, f)
                rhs = [f * c + drift * bk for c, bk in zip(base, b_sec)]
                assert lhs == rhs, name

        gens = generic_kernel_sections(bundle)
        x = sc.points.get("origin") or next(iter(sc.points.values()))
        for arc in smaller_arc_budget(x, rng.randint(0, 9999), rays=3, quadratics=1):
            try:
                limit = limit_subspace(kernel_curve(bundle, arc))
            except CurveInSingularLocusError:
                continue
            limits_checked += 1
            assert check_flag(bundle, gens, limit, x), name
            assert unpluecker(limit.pluecker()) == limit, name
            if bracket is not None:
                assert check_limit_subalgebra(bracket, limit, x), name

        if sc.bivector is not None:
            for _ in range(20):
                pt = [Fraction(rng.randint(-8, 8)) for _ in sc.bivector.vars]
                flag, _ = annihilator_duality_check(sc.bivector.matrix, pt)
                assert flag, name

        _assert_frame_change_invariance(rng, bundle, x, name)
    assert limits_checked >= 50


def _random_poly(rng, vs):
    p = MultiPoly.constant(vs, rng.randint(-2, 2))
    for v in vs:
        if rng.random() < 0.5:
            p = p + parse_poly(v, vs) * Fraction(rng.randint(-2, 2))
    return p


def _assert_frame_change_invariance(rng, bundle, x, name):
    """A constant frame change u sends each kernel to its u-preimage, so the
    fiber must transform exactly equivariantly: pushing the new limits back
    through u recovers the original fiber, subspace for subspace."""
    arcs = smaller_arc_budget(x, 777, rays=2, quadratics=1)
    base = {rec.subspace for rec in nash_fiber_sample(bundle, x, arcs).limits}
    n = bundle.fiber_rank
    d = len(bundle.base_vars)
    changes = 0
    while changes < 5:
        u = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if frac_rank([[u[i][j] for i in range(n)] for j in range(n)]) < n:
            continue
        changed_anchor = [
            [
                sum(
                    (bundle.anchor[i][k] * u[k][j] for k in range(n)),
                    MultiPoly.zero(bundle.base_vars),
                )
                for j in range(n)
            ]
            for i in range(d)
        ]
        changed = AnchoredBundle(bundle.base_vars, changed_anchor)
        after = {rec.subspace for rec in nash_fiber_sample(changed, x, arcs).limits}
        pushed = {
            Subspace(
                n,
                [
                    [sum(u[i][j] * w[j] for j in range(n)) for i in range(n)]
                    for w in sub.rows
                ],
            )
            for sub in after
        }
        assert pushed == base, name
        changes += 1


def test_criterion_7_regular_point_collapse():
    for name, sc in _scenarios():
        bundle, _ = _bundle_and_bracket(sc)
        for idx, x in enumerate(_seeded_points(bundle, seed=sum(name.encode()), count=10)):
            arcs = smaller_arc_budget(x, idx, rays=2, quadratics=1)
            sample = nash_fiber_sample(bundle, x, arcs)
            assert len(sample.limits) == 1, (name, x)
            assert sample.limits[0].subspace == kernel_at(bundle, x), (name, x)


def test_criterion_8_su2_abelian_limits():
    a = rotation_action_algebroid()
    origin = (Fraction(0), Fraction(0), Fraction(0))
    arcs = default_arcs(origin, seed=8)
    sample = nash_fiber_sample(a.bundle, origin, arcs)
    assert len(sample.limits) > 1
    gens = generic_kernel_sections(a.bundle)
    assert anchor_rank_generic(a.bundle) - rank_at(a.bundle, origin) == 2
    for rec in sample.limits:
        v = rec.subspace
        assert v.dim == 1
        assert check_limit_subalgebra(a, v, origin)
        image, codim = isotropy_image(a, gens, v, origin)
        assert image.dim == 1 and codim == 2


def test_criterion_9_negative_controls():
    good = sphere_generators_algebroid()
    vs = good.bundle.base_vars
    bad_structure = dict(good.structure)
    bad_structure[(0, 1)] = _polys(vs, "x", "0", "0")
    corrupted = AlmostLieAlgebroid(good.bundle, bad_structure)
    assert morphism_defect_pairs(corrupted) != []

    with pytest.raises(NotDecomposableError):
        unpluecker(PlueckerVector(4, 2, [1, 0, 0, 0, 0, 1]))

    stripe = AnchoredBundle(
        ("x1", "x2"),
        [_polys(("x1", "x2"), "x1", "0"), _polys(("x1", "x2"), "0", "x1")],
    )
    trapped = CurveGerm(
        (Fraction(0), Fraction(0)),
        tuple(_polys(("t",), "0", "t")),
    )
    with pytest.raises(CurveInSingularLocusError):
        kernel_curve(stripe, trapped)
