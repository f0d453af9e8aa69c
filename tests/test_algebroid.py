import math
import random
from fractions import Fraction
from functools import cache, partial
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nashfol.algebroid as algebroid_module
import nashfol.nash as nash_module
from nashfol.algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    NotInKernelError,
    NotInKernelModuleError,
    WellDefinednessFailureError,
    anchor_rank_generic,
    anchor_row_basis,
    bracket_with_basis,
    generic_kernel_sections,
    is_lie_algebroid,
    isotropy_algebra_at,
    jacobiator,
    kernel_at,
    morphism_defect_pairs,
    section_bracket,
    singular_locus,
    strong_kernel_at,
    vf_bracket,
)
from nashfol.grassmann import Subspace
from nashfol.nash import CurveGerm, kernel_curve
from nashfol.poly import ArityMismatchError, InternalInvariantError, MultiPoly, parse_poly
from nashfol.scenario import load_scenario, run_scenario
from checks import kernel_bracket_at, linear_lift, pointwise_kernel_bracket, rank_at
from encoders import algebroid_to_doc
from models import (
    basis_section,
    corpus_names,
    load_corpus_scenario,
    matrix_action_algebroid,
    rotation_action_algebroid,
    special_linear_2_algebroid,
    sphere_generators_algebroid,
    vanishing_order_algebroid,
)

XYZ = ("x", "y", "z")


def V(variables, *comps):
    return [parse_poly(c, variables) for c in comps]


def test_vf_bracket_basics():
    assert vf_bracket(V(("x",), "1"), V(("x",), "x")) == V(("x",), "1")
    x_field = V(XYZ, "0", "z", "-y")
    y_field = V(XYZ, "z", "0", "-x")
    assert vf_bracket(x_field, y_field) == V(XYZ, "-y", "x", "0")
    assert all(p.is_zero() for p in vf_bracket(x_field, x_field))


def test_section_bracket_on_basis_gives_structure():
    alg = special_linear_2_algebroid()
    e = partial(basis_section, alg.bundle)
    assert section_bracket(alg, e(0), e(1)) == alg.structure_section(0, 1)
    # [h, e] = 2e in the frame order (h, e, f)
    assert section_bracket(alg, e(0), e(1)) == V(("x", "y"), "0", "2", "0")


def test_section_bracket_leibniz_random():
    alg = special_linear_2_algebroid()
    rng = random.Random(404)
    vs = alg.bundle.base_vars

    def rand_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            e = (rng.randrange(0, 3), rng.randrange(0, 3))
            terms[e] = Fraction(rng.randrange(-3, 4))
        return MultiPoly(vs, terms)

    for _ in range(10):
        a = [rand_poly() for _ in range(3)]
        b = [rand_poly() for _ in range(3)]
        f = rand_poly()
        lhs = section_bracket(alg, a, [f * bk for bk in b])
        rho_a = alg.bundle.anchor_of_section(a)
        from nashfol.algebroid import lie_derivative

        deriv = lie_derivative(rho_a, f)
        rhs = [f * c + deriv * bk for c, bk in zip(section_bracket(alg, a, b), b)]
        assert lhs == rhs


def test_lie_derivative_skips_zero_terms_and_keeps_the_ring_check(monkeypatch):
    """Zero components and zero partial derivatives are not multiplied, and
    a zero component over another variable tuple is still refused."""
    from nashfol.algebroid import lie_derivative

    f = parse_poly("x*y + x", XYZ)  # df/dz = 0
    field, expected = V(XYZ, "z", "0", "x"), parse_poly("y*z + z", XYZ)
    products = []
    original = MultiPoly.__mul__

    def spy(a, b):
        products.append((str(a), str(b)))
        return original(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", spy)
    assert lie_derivative(field, f) == expected
    assert products == [("z", "y + 1")]
    with pytest.raises(ArityMismatchError):
        lie_derivative([*V(XYZ, "z", "x"), MultiPoly.zero(("x", "y"))], f)


def test_anchor_morphism_for_golden_models():
    for alg in (
        special_linear_2_algebroid(),
        matrix_action_algebroid(2),
        sphere_generators_algebroid(),
    ):
        assert morphism_defect_pairs(alg) == []


def test_anchor_morphism_detects_corruption():
    alg = special_linear_2_algebroid()
    bad = dict(alg.structure)
    bad[(0, 1)] = V(("x", "y"), "0", "3", "0")  # should be (0, 2, 0)
    corrupted = AlmostLieAlgebroid(alg.bundle, bad)
    assert morphism_defect_pairs(corrupted) == [(0, 1)]


def test_morphism_transfers_to_random_sections():
    alg = matrix_action_algebroid(2)
    rng = random.Random(7)
    vs = alg.bundle.base_vars

    def rand_poly():
        terms = {
            (rng.randrange(0, 2), rng.randrange(0, 2)): Fraction(rng.randrange(-2, 3))
            for _ in range(2)
        }
        return MultiPoly(vs, terms)

    for _ in range(5):
        a = [rand_poly() for _ in range(4)]
        b = [rand_poly() for _ in range(4)]
        lhs = alg.bundle.anchor_of_section(section_bracket(alg, a, b))
        rhs = vf_bracket(alg.bundle.anchor_of_section(a), alg.bundle.anchor_of_section(b))
        assert lhs == rhs


def test_jacobiator_vanishes_for_lie_models():
    gl2 = matrix_action_algebroid(2)
    for i, j, k in ((0, 1, 2), (0, 2, 3), (1, 2, 3)):
        assert all(p.is_zero() for p in jacobiator(gl2, i, j, k))
    assert is_lie_algebroid(gl2)
    assert is_lie_algebroid(special_linear_2_algebroid())


def test_jacobiator_detects_broken_jacobi():
    # zero anchor passes the morphism axiom trivially; brackets chosen to
    # break Jacobi: [e0,e1]=e2, [e0,e2]=e0, [e1,e2]=0
    alg = _broken_jacobi_algebroid()
    assert morphism_defect_pairs(alg) == []
    assert any(not p.is_zero() for p in jacobiator(alg, 0, 1, 2))
    assert not is_lie_algebroid(alg)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _broken_jacobi_algebroid():
    vs = ("x", "y")
    zero = MultiPoly.zero(vs)
    one = MultiPoly.constant(vs, 1)
    bundle = AnchoredBundle(vs, [[zero] * 3 for _ in range(2)])
    return AlmostLieAlgebroid(
        bundle, {(0, 1): [zero, zero, one], (0, 2): [one, zero, zero]}
    )


def test_equal_algebroids_each_compute_their_own_verdict(monkeypatch):
    calls = _count_calls(monkeypatch, algebroid_module, "jacobiator")
    first, second = matrix_action_algebroid(2), matrix_action_algebroid(2)
    assert first is not second
    assert (first.bundle, first.structure) == (second.bundle, second.structure)
    one_scan = math.comb(first.bundle.fiber_rank, 3)
    assert is_lie_algebroid(first) and is_lie_algebroid(first)
    assert len(calls) == one_scan
    assert is_lie_algebroid(second) and is_lie_algebroid(second)
    assert len(calls) == 2 * one_scan
    # a corrupted copy sharing the bundle gets its own (failing) verdict
    bad = dict(first.structure)
    bad[(0, 1)] = [p * 2 for p in bad[(0, 1)]]
    corrupted = AlmostLieAlgebroid(first.bundle, bad)
    assert morphism_defect_pairs(corrupted) == [(0, 1)]
    assert not is_lie_algebroid(corrupted)
    assert morphism_defect_pairs(first) == []


def test_validate_and_isotropy_share_one_jacobi_scan(monkeypatch):
    calls = _count_calls(monkeypatch, algebroid_module, "jacobiator")
    sc = load_corpus_scenario("sl2")
    sc.steps = [s for s in sc.steps if s["op"] in ("validate", "isotropy")]
    report = run_scenario(sc, seed=0)
    assert [step.op for step in report.steps] == ["validate", "isotropy"]
    assert report.passed
    assert report.steps[0].details["lie"] is True
    assert len(calls) == math.comb(sc.algebroid.bundle.fiber_rank, 3)


def test_non_lie_verdict_holds_in_every_step():
    validate = {"op": "validate", "expect": {"anchor_morphism": True, "lie": False}}
    sc = load_scenario(
        {
            "name": "not-lie",
            "algebroid": algebroid_to_doc(_broken_jacobi_algebroid()),
            "steps": [
                validate,
                {"op": "isotropy", "point": ["0", "0"], "expect": {"dim": 0}},
                validate,
            ],
        }
    )
    report = run_scenario(sc, seed=0)
    assert report.passed
    assert [step.details.get("lie") for step in report.steps] == [False, None, False]
    assert not is_lie_algebroid(sc.algebroid)


def test_defect_pairs_are_returned_as_copies():
    alg = _broken_jacobi_algebroid()
    anchor = alg.bundle.anchor
    corrupted = AlmostLieAlgebroid(
        AnchoredBundle(alg.bundle.base_vars, [[p + 1 for p in row] for row in anchor]),
        alg.structure,
    )
    pairs = morphism_defect_pairs(corrupted)
    assert pairs
    pairs.clear()
    assert morphism_defect_pairs(corrupted)


def test_generic_rank_is_ranked_once_per_bundle(monkeypatch):
    calls = _count_calls(monkeypatch, algebroid_module, "rank")
    sl2 = special_linear_2_algebroid()
    assert anchor_rank_generic(sl2.bundle) == 2
    assert anchor_rank_generic(sl2.bundle) == 2
    assert generic_kernel_sections(sl2.bundle)
    assert len(calls) == 1
    assert anchor_rank_generic(special_linear_2_algebroid().bundle) == 2
    assert len(calls) == 2


def test_bivector_run_ranks_the_sharp_map_once(monkeypatch):
    # every bivector step anchors on the one cotangent algebroid's bundle,
    # and kernel_curve reads each arc's rank from its kernel
    calls = [_count_calls(monkeypatch, m, "rank") for m in (algebroid_module, nash_module)]
    assert run_scenario(load_corpus_scenario("duval2"), seed=0).passed
    assert sum(map(len, calls)) == 1


def test_kernel_curve_on_a_rank_deficient_anchor_skips_rank(monkeypatch):
    calls = _count_calls(monkeypatch, nash_module, "rank")
    gl2 = matrix_action_algebroid(2).bundle
    assert anchor_rank_generic(gl2) < gl2.fiber_rank
    ray = CurveGerm.polynomial([Fraction(0)] * 2, [Fraction(1), Fraction(2)])
    assert len(kernel_curve(gl2, ray)) == gl2.fiber_rank - anchor_rank_generic(gl2)
    assert calls == []


def test_pivot_rows_must_number_the_generic_rank(monkeypatch):
    gl2 = matrix_action_algebroid(2).bundle
    monkeypatch.setattr(algebroid_module, "independent_rows", lambda m: [0])
    with pytest.raises(InternalInvariantError, match="^anchor pivot rows miss the generic rank$"):
        anchor_row_basis(gl2)
    monkeypatch.undo()
    assert anchor_row_basis(gl2) == (0, 1)


def test_generic_rank_and_singular_locus():
    sl2 = special_linear_2_algebroid()
    assert anchor_rank_generic(sl2.bundle) == 2
    locus = singular_locus(sl2.bundle)
    vs = ("x", "y")
    assert locus == [parse_poly(t, vs) for t in ("x^2", "y^2", "-x*y")]

    gl2 = matrix_action_algebroid(2)
    assert anchor_rank_generic(gl2.bundle) == 2
    nonzero = sorted(str(p) for p in singular_locus(gl2.bundle) if not p.is_zero())
    assert nonzero == ["-x1*x2", "x1*x2", "x1^2", "x2^2"]


def test_kernel_at_points():
    gl2 = matrix_action_algebroid(2)
    ker = kernel_at(gl2.bundle, [Fraction(1), Fraction(0)])
    assert ker == Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert rank_at(gl2.bundle, [Fraction(1), Fraction(0)]) == 2
    assert kernel_at(gl2.bundle, [Fraction(0), Fraction(0)]).dim == 4
    # semicontinuity: kernel dim is n - r exactly off the singular locus
    locus = singular_locus(gl2.bundle)
    for pt in ([1, 2], [3, 0], [0, 0], [0, 5]):
        point = [Fraction(c) for c in pt]
        on_locus = all(p.eval(point) == 0 for p in locus)
        assert (kernel_at(gl2.bundle, point).dim == 2) == (not on_locus)
        assert kernel_at(gl2.bundle, point).dim >= 2


def test_generic_kernel_sections():
    gl2 = matrix_action_algebroid(2)
    gens = generic_kernel_sections(gl2.bundle)
    vs = ("x1", "x2")
    assert gens == [
        V(vs, "-x2", "0", "x1", "0"),
        V(vs, "0", "-x2", "0", "x1"),
    ]
    rot = sphere_generators_algebroid()
    assert generic_kernel_sections(rot.bundle) == [V(XYZ, "x", "-y", "z")]


def test_strong_kernel_validation_and_span():
    gl2 = matrix_action_algebroid(2)
    gens = generic_kernel_sections(gl2.bundle)
    origin = [Fraction(0), Fraction(0)]
    assert strong_kernel_at(gl2.bundle, gens, origin).dim == 0
    at_reg = strong_kernel_at(gl2.bundle, gens, [Fraction(1), Fraction(0)])
    assert at_reg == kernel_at(gl2.bundle, [Fraction(1), Fraction(0)])
    bad = [V(("x1", "x2"), "1", "0", "0", "0")]
    with pytest.raises(NotInKernelModuleError) as exc:
        strong_kernel_at(gl2.bundle, bad, origin)
    assert exc.value.index == 0


def test_pointwise_kernel_bracket_gl2():
    gl2 = matrix_action_algebroid(2)
    origin = [Fraction(0), Fraction(0)]
    e12 = [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]
    e21 = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
    got = pointwise_kernel_bracket(gl2, origin, e12, e21)
    assert got == [Fraction(1), Fraction(0), Fraction(0), Fraction(-1)]
    assert pointwise_kernel_bracket(gl2, origin, e12, e12) == [Fraction(0)] * 4
    with pytest.raises(NotInKernelError):
        pointwise_kernel_bracket(gl2, [Fraction(1), Fraction(0)], e12, e21)


def test_isotropy_at_origin_is_full_matrix_algebra():
    gl2 = matrix_action_algebroid(2)
    origin = [Fraction(0), Fraction(0)]
    iso = isotropy_algebra_at(gl2, [], origin)
    assert iso.dim == 4
    # representatives are the standard basis; constants are the commutators
    assert iso.structure[(1, 2)] == (Fraction(1), Fraction(0), Fraction(0), Fraction(-1))
    assert iso.structure[(0, 1)] == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))


def test_isotropy_trivial_at_regular_points():
    gl2 = matrix_action_algebroid(2)
    gens = generic_kernel_sections(gl2.bundle)
    iso = isotropy_algebra_at(gl2, gens, [Fraction(1), Fraction(0)])
    assert iso.dim == 0
    assert iso.structure == {}


def test_isotropy_well_definedness_guard():
    # scaling-by-x algebroid on the line: anchor (x, x), kernel section
    # (1, -1); feeding a wrong-but-valid generator set stays fine, while a
    # bracket pushing Sker outside itself must be flagged
    vs = ("x",)
    x = parse_poly("x", vs)
    zero = MultiPoly.zero(vs)
    one = MultiPoly.constant(vs, 1)
    bundle = AnchoredBundle(vs, [[x, x, zero]])
    # c_01 = e_2, c_02 = c_12 = 0; anchor of e_2 is 0, and
    # [rho(e0), rho(e1)] = [x d/dx, x d/dx] = 0 so the morphism axiom holds
    alg = AlmostLieAlgebroid(bundle, {(0, 1): [zero, zero, one]})
    assert morphism_defect_pairs(alg) == []
    gens = [[one, -one, zero]]
    with pytest.raises(WellDefinednessFailureError):
        isotropy_algebra_at(alg, gens, [Fraction(0)])


ISOTROPY_MODELS = {
    "sl2": special_linear_2_algebroid,
    "gl2": partial(matrix_action_algebroid, 2),
    "gl3": partial(matrix_action_algebroid, 3),
    "order-2": partial(vanishing_order_algebroid, 2, 2),
    "rotations": rotation_action_algebroid,
    "spheres": sphere_generators_algebroid,
}


@cache
def _isotropy_model(name: str):
    alg = ISOTROPY_MODELS[name]()
    return alg, generic_kernel_sections(alg.bundle)


_COORDINATE = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def _model_points(draw):
    name = draw(st.sampled_from(sorted(ISOTROPY_MODELS)))
    d = _isotropy_model(name)[0].bundle.base_dim
    return name, draw(st.lists(_COORDINATE, min_size=d, max_size=d))


@settings(max_examples=80, deadline=None)
@given(_model_points(), st.booleans())
@example(("gl3", [Fraction(0), Fraction(1), Fraction(0)]), True)
@example(("gl3", [Fraction(1), Fraction(0), Fraction(0)]), True)
@example(("gl2", [Fraction(0), Fraction(0)]), False)
def test_isotropy_brackets_match_the_per_pair_oracle(model_point, with_gens):
    """Each structure constant is the per-pair bracket of two representatives
    in quotient coordinates, and [Sker, ker] is refused exactly when a
    bracket of a Sker row with a kernel row leaves Sker."""
    name, x = model_point
    alg, sections = _isotropy_model(name)
    gens = sections if with_gens else []
    bracket = kernel_bracket_at(alg, x)
    ker, sker = kernel_at(alg.bundle, x), strong_kernel_at(alg.bundle, gens, x)
    if any(not sker.contains(bracket(s, u)) for s in sker.rows for u in ker.rows):
        with pytest.raises(WellDefinednessFailureError, match="Sker, ker"):
            isotropy_algebra_at(alg, gens, x)
        return
    iso = isotropy_algebra_at(alg, gens, x)
    assert list(iso.structure) == list(combinations(range(iso.dim), 2))
    for (a, b), coords in iso.structure.items():
        assert coords == iso.coordinates(bracket(iso.basis[a], iso.basis[b]))


def _kernel_escape_algebroid() -> AlmostLieAlgebroid:
    """Anchor (x, 0, 1) with c_01 = e_2: at x = 0, e_0 and e_1 span the
    kernel, and their bracket e_2 leaves it, since the anchor fails the
    morphism axiom (rho(e_2) = d/dx, not [x d/dx, 0] = 0)."""
    vs = ("x",)
    zero, one = MultiPoly.zero(vs), MultiPoly.constant(vs, 1)
    bundle = AnchoredBundle(vs, [[parse_poly("x", vs), zero, one]])
    return AlmostLieAlgebroid(bundle, {(0, 1): [zero, zero, one]})


@pytest.mark.parametrize("gens", [[], [["0", "1", "0"]]], ids=["no-generators", "e1"])
def test_isotropy_refuses_a_bracket_that_leaves_the_kernel(gens):
    alg = _kernel_escape_algebroid()
    sections = [[parse_poly(c, ("x",)) for c in g] for g in gens]
    with pytest.raises(InternalInvariantError, match="^pointwise bracket left the kernel$"):
        isotropy_algebra_at(alg, sections, [Fraction(0)])


def test_linear_lift_of_constant_sections():
    gl2 = matrix_action_algebroid(2)
    e = partial(basis_section, gl2.bundle)
    x_field, b = linear_lift(gl2, e(0))
    assert x_field == gl2.bundle.anchor_of_section(e(0))
    # B is the negative adjoint: entry (k, j) = -coeff_k([e_0, e_j])
    for j in range(4):
        col = section_bracket(gl2, e(0), e(j))
        for k in range(4):
            assert b[k][j] == -col[k]


def test_linear_lift_bracket_contract():
    # for Lie algebroids the lift is bracket-compatible; with the negative
    # orientation of B the matrix part composes contravariantly:
    # B_[a,b] = B_b B_a - B_a B_b + X_a[B_b] - X_b[B_a]
    from nashfol.algebroid import lie_derivative
    from nashfol.linalg import poly_mat_mul

    for alg in (special_linear_2_algebroid(), matrix_action_algebroid(2)):
        n = alg.bundle.fiber_rank
        rng = random.Random(99 + n)
        vs = alg.bundle.base_vars

        def rand_poly():
            terms = {
                tuple(rng.randrange(0, 2) for _ in vs): Fraction(rng.randrange(-2, 3))
                for _ in range(2)
            }
            return MultiPoly(vs, terms)

        for _ in range(3):
            a = [rand_poly() for _ in range(n)]
            b = [rand_poly() for _ in range(n)]
            xa, ba = linear_lift(alg, a)
            xb, bb = linear_lift(alg, b)
            xab, bab = linear_lift(alg, section_bracket(alg, a, b))
            assert xab == vf_bracket(xa, xb)
            commutator = poly_mat_mul(bb, ba)
            neg = poly_mat_mul(ba, bb)
            expected = [
                [
                    commutator[k][j]
                    - neg[k][j]
                    + lie_derivative(xa, bb[k][j])
                    - lie_derivative(xb, ba[k][j])
                    for j in range(n)
                ]
                for k in range(n)
            ]
            assert bab == expected


def test_zero_anchor_rank():
    vs = ("x",)
    zero = MultiPoly.zero(vs)
    bundle = AnchoredBundle(vs, [[zero, zero]])
    assert anchor_rank_generic(bundle) == 0
    assert singular_locus(bundle) == []


XY = ("x", "y")

_xy_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-3, 3).map(Fraction),
    max_size=3,
).map(lambda terms: MultiPoly(XY, terms))


@st.composite
def _algebroid_and_section(draw):
    """Almost Lie algebroids over Q[x,y] with random anchors and constants (so
    the anchor morphism and Jacobi usually fail), and a section with zeros."""
    n = draw(st.integers(1, 4))
    vec = st.lists(_xy_poly, min_size=n, max_size=n)
    anchor = draw(st.lists(vec, min_size=2, max_size=2))
    pairs = list(combinations(range(n), 2))
    structure = draw(st.dictionaries(st.sampled_from(pairs), vec)) if pairs else {}
    section = draw(vec)
    for idx in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        section[idx] = MultiPoly.zero(XY)
    return AlmostLieAlgebroid(AnchoredBundle(XY, anchor), structure), section


@settings(max_examples=150, deadline=None)
@given(_algebroid_and_section())
@example((_broken_jacobi_algebroid(), V(XY, "x", "0", "y")))
@example((special_linear_2_algebroid(), V(XY, "x*y", "0", "y^2 - 1")))
def test_bracket_with_basis_matches_leibniz(case):
    alg, section = case
    for c in range(alg.bundle.fiber_rank):
        expected = section_bracket(alg, section, basis_section(alg.bundle, c))
        assert bracket_with_basis(alg, section, c) == expected


def test_bracket_with_basis_matches_leibniz_on_corpus_structure():
    # the jacobiator's brackets [c_ab, e_c], on every corpus algebroid
    for name in corpus_names():
        alg = load_corpus_scenario(name).algebroid
        if not isinstance(alg, AlmostLieAlgebroid):
            continue
        for a, b in alg.structure:
            sec = alg.structure_section(a, b)
            for c in range(alg.bundle.fiber_rank):
                expected = section_bracket(alg, sec, basis_section(alg.bundle, c))
                assert bracket_with_basis(alg, sec, c) == expected


def test_bracket_with_basis_checks_its_arguments():
    sl2 = special_linear_2_algebroid()
    with pytest.raises(IndexError):
        bracket_with_basis(sl2, basis_section(sl2.bundle, 0), 3)
    # the jacobiator's indices are range-checked as the basis side of a term
    for triple, bad in (((5, 0, 1), 5), ((0, 5, 1), 5), ((0, 1, 5), 5), ((-1, 0, 1), -1)):
        with pytest.raises(IndexError, match=f"basis index {bad} out of range"):
            jacobiator(sl2, *triple)
    with pytest.raises(ValueError):
        bracket_with_basis(sl2, V(XY, "x", "y"), 0)
