import itertools
import random
from fractions import Fraction

import pytest

from nashfol.algebroid import (
    is_lie_algebroid,
    jacobiator,
    kernel_at,
    morphism_defect_pairs,
    vf_bracket,
)
from nashfol.grassmann import Subspace
from nashfol.poisson import Bivector, NotSkewError, cotangent_algebroid, pi_sharp
from nashfol.poly import MultiPoly, parse_poly
from nashfol.scenario import load_scenario, run_single_step
from checks import (
    annihilator_duality_check,
    hamiltonian_vf,
    is_poisson,
    poisson_bracket,
    schouten_self_bracket,
)
from models import jacobian_bivector, linear_poisson_so3, surface_bivector, surface_function

XYZ = ("x", "y", "z")


def V(*comps):
    return [parse_poly(c, XYZ) for c in comps]


def test_bivector_skew_validation():
    with pytest.raises(NotSkewError):
        Bivector(XYZ, [[parse_poly(e, XYZ) for e in row] for row in
                       [["0", "x", "0"], ["x", "0", "0"], ["0", "0", "0"]]])
    pi = linear_poisson_so3()
    assert pi.entry(1, 0) == parse_poly("z", XYZ)


def test_pi_sharp_columns_are_the_stated_generators():
    bundle = pi_sharp(linear_poisson_so3())
    cols = [[bundle.anchor[i][j] for i in range(3)] for j in range(3)]
    assert cols[0] == V("0", "z", "-y")
    assert cols[1] == V("-z", "0", "x")
    assert cols[2] == V("y", "-x", "0")


def test_zero_bivector():
    zero = MultiPoly.zero(XYZ)
    pi = Bivector(XYZ, [[zero] * 3 for _ in range(3)])
    bundle = pi_sharp(pi)
    assert all(p.is_zero() for row in bundle.anchor for p in row)
    alg = cotangent_algebroid(pi)
    assert alg.structure == {}


def test_hamiltonian_of_radius_function_vanishes():
    pi = linear_poisson_so3()
    h = parse_poly("x^2 + y^2 + z^2", XYZ)
    assert all(p.is_zero() for p in hamiltonian_vf(pi, h))
    # coordinate Hamiltonians are the anchor columns
    assert hamiltonian_vf(pi, parse_poly("x", XYZ)) == V("0", "z", "-y")


def test_surface_function_is_conserved():
    for n in (2, 3, 4):
        pi = surface_bivector(n)
        phi = surface_function(n)
        assert all(p.is_zero() for p in hamiltonian_vf(pi, phi))


def test_hamiltonian_bracket_identity():
    # [X_h, X_g] = X_{{g,h}} for Poisson bivectors, checked symbolically
    rng = random.Random(2718)
    for pi in (linear_poisson_so3(), surface_bivector(2)):
        for _ in range(4):
            h = MultiPoly(
                XYZ,
                {
                    tuple(rng.randrange(0, 2) for _ in XYZ): Fraction(rng.randrange(-2, 3))
                    for _ in range(3)
                },
            )
            g = MultiPoly(
                XYZ,
                {
                    tuple(rng.randrange(0, 2) for _ in XYZ): Fraction(rng.randrange(-2, 3))
                    for _ in range(3)
                },
            )
            lhs = vf_bracket(hamiltonian_vf(pi, h), hamiltonian_vf(pi, g))
            rhs = hamiltonian_vf(pi, poisson_bracket(pi, g, h))
            assert lhs == rhs


def test_schouten_vanishes_for_poisson_inputs():
    assert is_poisson(linear_poisson_so3())
    for n in (2, 3, 4):
        assert is_poisson(surface_bivector(n))


def test_schouten_nonzero_negative_control():
    x = parse_poly("x", XYZ)
    y = parse_poly("y", XYZ)
    pi = Bivector.from_upper_entries(XYZ, {(0, 1): x, (0, 2): y, (1, 2): y})
    comps = schouten_self_bracket(pi)
    assert any(not p.is_zero() for p in comps.values())
    assert not is_poisson(pi)


def test_cotangent_algebroid_is_lie_when_poisson():
    alg = cotangent_algebroid(linear_poisson_so3())
    assert morphism_defect_pairs(alg) == []
    assert all(
        all(p.is_zero() for p in jacobiator(alg, i, j, k))
        for i, j, k in ((0, 1, 2),)
    )
    assert is_lie_algebroid(alg)
    assert is_lie_algebroid(cotangent_algebroid(surface_bivector(2)))


def test_cotangent_algebroid_tracks_schouten():
    # jacobiator vanishes iff the self-bracket does, on test inputs
    x = parse_poly("x", XYZ)
    y = parse_poly("y", XYZ)
    bad = Bivector.from_upper_entries(XYZ, {(0, 1): x, (0, 2): y, (1, 2): y})
    alg = cotangent_algebroid(bad)
    assert any(
        any(not p.is_zero() for p in jacobiator(alg, i, j, k))
        for i, j, k in ((0, 1, 2),)
    )


def test_cotangent_structure_sections_so3():
    alg = cotangent_algebroid(linear_poisson_so3())
    # c_ij = -grad(pi^ij): the cyclic rotation constants
    assert alg.structure_section(0, 1) == V("0", "0", "1")
    assert alg.structure_section(0, 2) == V("0", "-1", "0")
    assert alg.structure_section(1, 2) == V("1", "0", "0")


def test_kernel_of_surface_sharp_map_is_gradient_line():
    pi = surface_bivector(2)
    point = [Fraction(1), Fraction(2), Fraction(1)]
    ker = kernel_at(pi_sharp(pi), point)
    assert ker == Subspace(3, [[Fraction(2), Fraction(1), Fraction(-1)]])
    phi = surface_function(2)
    grad_at = [phi.diff(v).eval(point) for v in XYZ]
    assert ker.contains(grad_at)


def test_annihilator_duality():
    pi = linear_poisson_so3()
    ok, cert = annihilator_duality_check(pi.matrix, [Fraction(1), Fraction(1), Fraction(1)])
    assert ok
    assert cert["kernel"] == cert["image_annihilator"]
    rng = random.Random(31)
    for _ in range(10):
        entries = {
            (i, j): MultiPoly(
                XYZ, {tuple(rng.randrange(0, 2) for _ in XYZ): Fraction(rng.randrange(-2, 3))}
            )
            for i in range(3)
            for j in range(i + 1, 3)
        }
        pi = Bivector.from_upper_entries(XYZ, entries)
        pt = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
        assert annihilator_duality_check(pi.matrix, pt)[0]


def test_duality_negative_control_symmetric_matrix():
    x = parse_poly("x", XYZ)
    zero = MultiPoly.zero(XYZ)
    one = MultiPoly.constant(XYZ, 1)
    sym = [[zero, one, zero], [one, zero, zero], [zero, zero, x]]
    ok, _ = annihilator_duality_check(sym, [Fraction(1), Fraction(2), Fraction(0)])
    # kernel is the z-axis, image is the xy-plane whose annihilator is also
    # the z-axis: symmetric matrices can pass; pick one that cannot
    skewless = [[one, zero, zero], [zero, zero, zero], [zero, zero, zero]]
    ok2, _ = annihilator_duality_check(skewless, [Fraction(1), Fraction(1), Fraction(1)])
    assert ok2  # rank-1 symmetric still self-dual here
    asym = [[zero, one, zero], [zero, zero, zero], [zero, zero, zero]]
    ok3, _ = annihilator_duality_check(asym, [Fraction(1), Fraction(1), Fraction(1)])
    assert not ok3


def test_jacobian_bivector_shape():
    phi = surface_function(2)
    pi = jacobian_bivector(phi)
    assert pi.entry(0, 1) == parse_poly("-z^2", XYZ)
    assert pi.entry(0, 2) == parse_poly("-x", XYZ)
    assert pi.entry(1, 2) == parse_poly("y", XYZ)


def _random_bivector_doc(rng: random.Random) -> dict:
    """Upper entries of degree at most 2 over 2-4 variables, sparse enough
    that both verdicts occur."""
    names = ("x", "y", "z", "w")[: rng.randrange(2, 5)]
    monomials = [e for e in itertools.product(range(3), repeat=len(names)) if sum(e) <= 2]
    pi = {}
    for i, j in itertools.combinations(range(len(names)), 2):
        if rng.random() < 0.4:
            continue
        terms = {rng.choice(monomials): Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(2)}
        pi[f"{i},{j}"] = str(MultiPoly(names, terms))
    return {"vars": list(names), "pi": pi}


def test_validate_verdict_matches_the_schouten_oracle():
    rng = random.Random(20241018)
    verdicts = set()
    for _ in range(600):
        doc = _random_bivector_doc(rng)
        scenario = load_scenario({"name": "random", "bivector": doc})
        poisson = run_single_step(scenario, {"op": "validate"}).details["poisson"]
        assert poisson is is_poisson(scenario.bivector), doc
        if len(doc["vars"]) > 2:  # every bivector in two variables is Poisson
            verdicts.add(poisson)
    assert verdicts == {True, False}
