import random
from fractions import Fraction

import pytest

from nashfol.algebroid import (
    AnchoredBundle,
    anchor_rank_generic,
    generic_kernel_sections,
    kernel_at,
)
from nashfol.grassmann import Subspace
from nashfol.linalg import poly_mat_mul
from nashfol.nash import (
    AllCurvesSingularError,
    CurveGerm,
    CurveInSingularLocusError,
    check_flag,
    default_arcs,
    kernel_curve,
    limit_subspace,
    nash_fiber_sample,
)
from nashfol.poisson import pi_sharp
from nashfol.poly import MultiPoly, parse_poly
from checks import check_limit_subalgebra, convergence_errors, isotropy_image
from models import (
    linear_poisson_so3,
    matrix_action_algebroid,
    reparametrize,
    smaller_arc_budget,
    sphere_generators_algebroid,
    surface_bivector,
    vanishing_order_bundle,
)

T = ("t",)
ORIGIN2 = (Fraction(0), Fraction(0))
ORIGIN3 = (Fraction(0), Fraction(0), Fraction(0))


def ray(target, direction):
    return CurveGerm.polynomial([Fraction(c) for c in target], [Fraction(c) for c in direction])


def test_curve_germ_validation():
    with pytest.raises(ValueError):
        CurveGerm((Fraction(1),), (parse_poly("t", T),))
    c = ray([1, 2], [3, 4])
    assert [p.eval([Fraction(1, 2)]) for p in c.components] == [Fraction(5, 2), Fraction(4)]


def test_kernel_curve_rotation_axis():
    bundle = pi_sharp(linear_poisson_so3())
    basis = kernel_curve(bundle, ray([0, 0, 0], [1, 0, 0]))
    one = MultiPoly.constant(T, 1)
    zero = MultiPoly.zero(T)
    assert basis == [[one, zero, zero]]


def test_kernel_curve_gl2_diagonal():
    gl2 = matrix_action_algebroid(2)
    basis = kernel_curve(gl2.bundle, ray([0, 0], [1, 1]))
    assert len(basis) == 2
    # spans the fixed subspace a11 + a21 = 0, a12 + a22 = 0
    sub = Subspace(4, [[p.eval([Fraction(1)]) for p in vec] for vec in basis])
    assert sub == Subspace(4, [[1, 0, -1, 0], [0, 1, 0, -1]])


def test_kernel_curve_singular_arc():
    gl2 = matrix_action_algebroid(2)
    constant = CurveGerm(ORIGIN2, (MultiPoly.zero(T), MultiPoly.zero(T)))
    with pytest.raises(CurveInSingularLocusError):
        kernel_curve(gl2.bundle, constant)


def test_limit_subspace_constant_kernel():
    bundle = pi_sharp(linear_poisson_so3())
    basis = kernel_curve(bundle, ray([0, 0, 0], [1, 0, 0]))
    assert limit_subspace(basis) == Subspace(3, [[1, 0, 0]])


def test_limit_subspace_surface_ray():
    pi = surface_bivector(2)
    bundle = pi_sharp(pi)
    basis = kernel_curve(bundle, ray([0, 0, 0], [1, 2, 3]))
    assert limit_subspace(basis) == Subspace(3, [[2, 1, 0]])


def test_limit_subspace_veronese_rays():
    f2 = vanishing_order_bundle(2, 2)
    for lam in (0, 1, 2):
        basis = kernel_curve(f2, ray([0, 0], [1, lam]))
        v = limit_subspace(basis)
        assert v.dim == 4
        ann1 = [Fraction(1), Fraction(lam), Fraction(lam * lam), 0, 0, 0]
        ann2 = [0, 0, 0, Fraction(1), Fraction(lam), Fraction(lam * lam)]
        for row in v.rows:
            assert sum(a * b for a, b in zip(row, ann1)) == 0
            assert sum(a * b for a, b in zip(row, ann2)) == 0


def test_nash_fiber_axes_give_coordinate_lines():
    bundle = pi_sharp(linear_poisson_so3())
    curves = [ray([0, 0, 0], d) for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    sample = nash_fiber_sample(bundle, ORIGIN3, curves)
    got = [rec.subspace for rec in sample.limits]
    assert len(got) == 3
    for i in range(3):
        e = [[Fraction(int(j == i)) for j in range(3)]]
        assert Subspace(3, e) in got


def test_nash_fiber_at_regular_point_is_single():
    gl2 = matrix_action_algebroid(2)
    x = (Fraction(1), Fraction(0))
    sample = nash_fiber_sample(gl2.bundle, x, default_arcs(x, seed=5))
    assert len(sample.limits) == 1
    assert sample.limits[0].subspace == kernel_at(gl2.bundle, x)
    assert sample.limits[0].subspace == Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]])


def test_nash_fiber_dedup_and_sorting():
    bundle = pi_sharp(linear_poisson_so3())
    curves = [
        ray([0, 0, 0], (1, 0, 0)),
        ray([0, 0, 0], (2, 0, 0)),  # same limit, different arc
        ray([0, 0, 0], (0, 1, 0)),
    ]
    sample = nash_fiber_sample(bundle, ORIGIN3, curves)
    assert len(sample.limits) == 2
    assert sample.curve_status == ("ok", "ok", "ok")
    plueckers = [rec.pluecker for rec in sample.limits]
    assert plueckers == sorted(plueckers)


def test_nash_fiber_all_singular():
    gl2 = matrix_action_algebroid(2)
    constant = CurveGerm(ORIGIN2, (MultiPoly.zero(T), MultiPoly.zero(T)))
    with pytest.raises(AllCurvesSingularError):
        nash_fiber_sample(gl2.bundle, ORIGIN2, [constant])


def test_full_rank_anchor_gives_zero_dimensional_fiber():
    vs = ("x", "y")
    one = MultiPoly.constant(vs, 1)
    zero = MultiPoly.zero(vs)
    bundle = AnchoredBundle(vs, [[one, zero], [zero, one]])
    x = (Fraction(2), Fraction(3))
    sample = nash_fiber_sample(bundle, x, smaller_arc_budget(x, 1, rays=2, quadratics=0))
    assert len(sample.limits) == 1
    assert sample.limits[0].subspace.dim == 0
    assert sample.limits[0].pluecker.coords == (1,)


def test_check_flag():
    gl2 = matrix_action_algebroid(2)
    gens = generic_kernel_sections(gl2.bundle)
    v = Subspace(4, [[1, 0, -1, 0], [0, 1, 0, -1]])
    assert check_flag(gl2.bundle, gens, v, ORIGIN2)
    not_in_kernel = Subspace(4, [[1, 0, 0, 0]])
    assert check_flag(gl2.bundle, gens, not_in_kernel, ORIGIN2)  # ker at 0 is everything
    x = (Fraction(1), Fraction(0))
    assert not check_flag(gl2.bundle, gens, not_in_kernel, x)
    assert check_flag(gl2.bundle, gens, kernel_at(gl2.bundle, x), x)


def test_check_limit_subalgebra():
    gl2 = matrix_action_algebroid(2)
    diagonal_limit = Subspace(4, [[1, 0, -1, 0], [0, 1, 0, -1]])
    assert check_limit_subalgebra(gl2, diagonal_limit, ORIGIN2)
    off_diagonal = Subspace(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    assert not check_limit_subalgebra(gl2, off_diagonal, ORIGIN2)
    line = Subspace(3, [[1, 0, 0]])
    from nashfol.poisson import cotangent_algebroid

    assert check_limit_subalgebra(
        cotangent_algebroid(linear_poisson_so3()), line, ORIGIN3
    )


def test_isotropy_image_gl2():
    gl2 = matrix_action_algebroid(2)
    gens = generic_kernel_sections(gl2.bundle)
    v = Subspace(4, [[1, 0, -1, 0], [0, 1, 0, -1]])
    image, codim = isotropy_image(gl2, gens, v, ORIGIN2)
    assert image.dim == 2
    assert codim == 2
    # Sker = 0 at the origin, so the image is v itself in kernel coordinates
    assert image == Subspace(4, [[1, 0, -1, 0], [0, 1, 0, -1]])


def test_isotropy_image_at_regular_point():
    gl2 = matrix_action_algebroid(2)
    gens = generic_kernel_sections(gl2.bundle)
    x = (Fraction(1), Fraction(0))
    image, codim = isotropy_image(gl2, gens, kernel_at(gl2.bundle, x), x)
    assert image.dim == 0
    assert codim == 0


def test_isotropy_image_rotation():
    alg = sphere_generators_algebroid()
    gens = generic_kernel_sections(alg.bundle)
    sample = nash_fiber_sample(alg.bundle, ORIGIN3, default_arcs(ORIGIN3, seed=7))
    for rec in sample.limits:
        image, codim = isotropy_image(alg, gens, rec.subspace, ORIGIN3)
        assert image.dim == 1
        assert codim == 2


def test_scaling_invariance():
    bundle = pi_sharp(linear_poisson_so3())
    curve = ray([0, 0, 0], [2, -3, 1])
    scaled = reparametrize(curve, Fraction(3, 2))
    a = limit_subspace(kernel_curve(bundle, curve))
    b = limit_subspace(kernel_curve(bundle, scaled))
    assert a == b


def test_frame_change_invariance_basic():
    alg = sphere_generators_algebroid()
    vs = alg.bundle.base_vars
    g_rows = [[2, 1, 0], [0, 1, 0], [1, 0, 1]]
    g = [[MultiPoly.constant(vs, e) for e in row] for row in g_rows]
    changed = AnchoredBundle(vs, poly_mat_mul(alg.bundle.anchor, g))
    curves = smaller_arc_budget(ORIGIN3, 3, rays=4, quadratics=2)
    before = nash_fiber_sample(alg.bundle, ORIGIN3, curves)
    after = nash_fiber_sample(changed, ORIGIN3, curves)
    # G^{-1} maps original limits onto transformed ones
    from oracles import frac_solve

    g_frac = [[Fraction(e) for e in row] for row in g_rows]
    cols = [[g_frac[i][j] for i in range(3)] for j in range(3)]
    after_by_curve = {id(rec.curve): rec.subspace for rec in after.limits}
    assert len(before.limits) == len(after.limits)
    for rec in before.limits:
        mapped = Subspace(
            3, [frac_solve(cols, list(row)) for row in rec.subspace.rows]
        )
        assert mapped == after_by_curve[id(rec.curve)]


def test_default_arcs_deterministic():
    a = default_arcs(ORIGIN3, seed=42)
    b = default_arcs(ORIGIN3, seed=42)
    assert a == b
    c = default_arcs(ORIGIN3, seed=43)
    assert a != c
    assert len(a) == 6 + 16 + 8


def test_convergence_oracle_rotation():
    bundle = pi_sharp(linear_poisson_so3())
    curve = ray([0, 0, 0], [1, 2, 2])
    limit = limit_subspace(kernel_curve(bundle, curve))
    times = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]
    errors = convergence_errors(bundle, curve, limit, times)
    for earlier, later in zip(errors, errors[1:]):
        assert later <= earlier / 5 or (earlier == 0 and later == 0)
