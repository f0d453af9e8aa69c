from fractions import Fraction

from nashfol.algebroid import (
    anchor_rank_generic,
    generic_kernel_sections,
    is_lie_algebroid,
    isotropy_algebra_at,
    kernel_at,
    morphism_defect_pairs,
    singular_locus,
)
from nashfol.grassmann import Subspace
from nashfol.poisson import cotangent_algebroid
from nashfol.poly import parse_poly
from models import (
    degree_monomials,
    linear_poisson_so3,
    matrix_action_algebroid,
    rotation_action_algebroid,
    special_linear_2_algebroid,
    sphere_generators_algebroid,
    surface_function,
    vanishing_order_algebroid,
    vanishing_order_bundle,
)

XYZ = ("x", "y", "z")


def test_gl3_is_a_lie_algebroid():
    gl3 = matrix_action_algebroid(3)
    assert gl3.bundle.fiber_rank == 9
    assert morphism_defect_pairs(gl3) == []
    assert anchor_rank_generic(gl3.bundle) == 3


def test_gl3_kernel_sections():
    gl3 = matrix_action_algebroid(3)
    gens = generic_kernel_sections(gl3.bundle)
    assert len(gens) == 6
    for g in gens:
        assert all(p.is_zero() for p in gl3.bundle.anchor_of_section(g))


def test_gl3_singular_locus_is_all_cubics():
    gl3 = matrix_action_algebroid(3)
    nonzero = {str(p.primitive()) for p in singular_locus(gl3.bundle) if not p.is_zero()}
    expected = {
        str(parse_poly(t, ("x1", "x2", "x3")))
        for t in (
            "x1^3", "x1^2*x2", "x1^2*x3", "x1*x2^2", "x1*x2*x3",
            "x1*x3^2", "x2^3", "x2^2*x3", "x2*x3^2", "x3^3",
        )
    }
    assert nonzero == expected


def test_vanishing_order_one_matches_matrix_action():
    f1 = vanishing_order_algebroid(1, 2)
    assert morphism_defect_pairs(f1) == []
    assert is_lie_algebroid(f1)
    # same foliation as the matrix action, reordered frame
    gl2 = matrix_action_algebroid(2)
    assert anchor_rank_generic(f1.bundle) == anchor_rank_generic(gl2.bundle)


def test_vanishing_order_two_anchor_layout():
    bundle = vanishing_order_bundle(2, 2)
    vs = bundle.base_vars
    assert vs == ("x", "y")
    expected = [
        [parse_poly(e, vs) for e in row]
        for row in (
            ["x^2", "x*y", "y^2", "0", "0", "0"],
            ["0", "0", "0", "x^2", "x*y", "y^2"],
        )
    ]
    assert bundle.anchor == expected
    assert anchor_rank_generic(bundle) == 2


def test_vanishing_order_two_bracket_fails_morphism():
    # the divisibility-convention bracket is only anchor-compatible at order 1
    f2 = vanishing_order_algebroid(2, 2)
    assert morphism_defect_pairs(f2) != []


def test_degree_monomials_order():
    assert degree_monomials(("x", "y"), 2) == [(2, 0), (1, 1), (0, 2)]
    assert degree_monomials(("x", "y", "z"), 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_rotation_model_is_cotangent_of_linear_poisson():
    rot, cot = rotation_action_algebroid(), cotangent_algebroid(linear_poisson_so3())
    assert (rot.bundle, rot.structure) == (cot.bundle, cot.structure)
    assert is_lie_algebroid(rotation_action_algebroid())


def test_rotation_model_kernel_is_radial():
    rot = rotation_action_algebroid()
    assert generic_kernel_sections(rot.bundle) == [
        [parse_poly(e, XYZ) for e in ("x", "y", "z")]
    ]
    pt = [Fraction(1), Fraction(2), Fraction(-2)]
    assert kernel_at(rot.bundle, pt) == Subspace(3, [[1, 2, -2]])


def test_sphere_generators_model():
    alg = sphere_generators_algebroid()
    assert morphism_defect_pairs(alg) == []
    assert is_lie_algebroid(alg)
    assert anchor_rank_generic(alg.bundle) == 2
    assert generic_kernel_sections(alg.bundle) == [
        [parse_poly(e, XYZ) for e in ("x", "-y", "z")]
    ]


def test_sphere_isotropy_at_origin():
    alg = cotangent_algebroid(linear_poisson_so3())
    iso = isotropy_algebra_at(alg, generic_kernel_sections(alg.bundle), [Fraction(0)] * 3)
    assert iso.dim == 3
    assert iso.strong_kernel.dim == 0
    # cyclic rotation constants on the standard representatives
    assert iso.structure[(0, 1)] == (Fraction(0), Fraction(0), Fraction(1))
    assert iso.structure[(0, 2)] == (Fraction(0), Fraction(-1), Fraction(0))
    assert iso.structure[(1, 2)] == (Fraction(1), Fraction(0), Fraction(0))


def test_sl2_isotropy_at_origin():
    sl2 = special_linear_2_algebroid()
    iso = isotropy_algebra_at(sl2, generic_kernel_sections(sl2.bundle), [Fraction(0)] * 2)
    assert iso.dim == 3
    assert iso.structure[(0, 1)] == (Fraction(0), Fraction(2), Fraction(0))


def test_surface_function_family():
    phi = surface_function(2)
    assert phi == parse_poly("x*y - 1/3*z^3", XYZ)
    assert surface_function(3) == parse_poly("x*y - 1/4*z^4", XYZ)
