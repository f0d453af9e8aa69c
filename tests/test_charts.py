from fractions import Fraction

import pytest

from nashfol.algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    is_lie_algebroid,
    kernel_at,
)
from nashfol.charts import (
    ChartFrame,
    ChartMap,
    FrameReductionFailedError,
    NotResolvedByChartError,
    check_debord_on_chart,
    check_ideal,
    debord_generators,
    exceptional_samples,
    nash_anchor_on_chart,
    pullback_bivector,
    pullback_vector_field,
    tautological_frame,
)
from nashfol.grassmann import Subspace
from nashfol.models import (
    linear_poisson_so3,
    matrix_action_algebroid,
    special_linear_2_algebroid,
    sphere_generators_algebroid,
)
from nashfol.poisson import Bivector
from nashfol.poly import ArityMismatchError, MultiPoly, RatFunc, parse_poly

XY = ("x", "y")
XYZ = ("x", "y", "z")


def polys(variables, *texts):
    return [parse_poly(t, variables) for t in texts]


def col_strs(frame):
    return [[str(p) for p in col] for col in frame.columns]


def test_blowup_preset_shape():
    ch = ChartMap.blowup(XYZ, 0)
    assert [str(p) for p in ch.phi] == ["x", "x*y", "x*z"]
    assert str(ch.jac_det) == "x^2"
    assert str(ch.exceptional_poly()) == "x"
    ch2 = ChartMap.blowup(XYZ, 2)
    assert [str(p) for p in ch2.phi] == ["x*z", "y*z", "z"]
    with pytest.raises(ValueError):
        ChartMap.blowup(XYZ, 5)


def test_chart_validation():
    with pytest.raises(ValueError):
        ChartMap(XY, XY, polys(XY, "x", "x"))
    with pytest.raises(ArityMismatchError):
        ChartMap(XY, XY, polys(XY, "x"))
    with pytest.raises(ValueError):
        ChartMap(XY, XY, polys(XY, "x", "y"), exceptional=parse_poly("x", XY))


def test_identity_chart_is_trivial():
    ch = ChartMap.identity(XYZ)
    field = polys(XYZ, "x*y", "z^2 - 1", "3")
    pb = pullback_vector_field(ch, field)
    assert pb.polynomial_flag and pb.denominator is None
    assert pb.polynomial_components() == field
    pi = linear_poisson_so3()
    mat, pole = pullback_bivector(ch, pi)
    assert pole is None
    assert all(
        mat[i][j] == RatFunc(pi.matrix[i][j]) for i in range(3) for j in range(3)
    )
    so3 = sphere_generators_algebroid()
    assert nash_anchor_on_chart(so3, ch).algebroid == so3
    assert exceptional_samples(ch) == []


def test_pullback_of_constant_field_is_not_liftable():
    ch = ChartMap.blowup(("a", "b"), 0, chart_vars=("u", "v"))
    pb = pullback_vector_field(ch, polys(("a", "b"), "0", "1"))
    assert not pb.polynomial_flag
    assert str(pb.denominator) == "u"
    assert [str(c) for c in pb.components] == ["0", "(1) / (u)"]
    with pytest.raises(ValueError):
        pb.polynomial_components()


def test_nash_anchor_rejects_unresolved_chart():
    vs = ("a", "b")
    bundle = AnchoredBundle(vs, [polys(vs, "0"), polys(vs, "1")])
    ch = ChartMap.blowup(vs, 0, chart_vars=("u", "v"))
    with pytest.raises(NotResolvedByChartError) as err:
        nash_anchor_on_chart(AlmostLieAlgebroid(bundle, {}), ch)
    assert [(i, str(d)) for i, d in err.value.failures] == [(0, "u")]


def test_sl2_chart_pullbacks_and_relation():
    sl2 = special_linear_2_algebroid()
    ch = ChartMap.blowup(XY, 0)
    nca = nash_anchor_on_chart(sl2, ch)
    got = [[str(c) for c in pb.components] for pb in nca.pullbacks]
    assert got == [["x", "-2*y"], ["0", "1"], ["x*y", "-y^2"]]
    _, relations = debord_generators(sl2, ch)
    assert len(relations) == 1
    rel = relations[0]
    assert rel.index == 2 and rel.basis == (0, 1) and rel.polynomial
    assert [str(c) for c in rel.coefficients] == ["y", "y^2"]


def test_sl2_chart_frame_and_quotient():
    sl2 = special_linear_2_algebroid()
    ch = ChartMap.blowup(XY, 0)
    nca = nash_anchor_on_chart(sl2, ch)
    frame = tautological_frame(nca)
    assert col_strs(frame) == [["-y", "-y^2", "1"]]
    ok, report = check_ideal(nca, frame)
    assert ok and report["label"] == "generic + sampled"
    ok, cert = check_debord_on_chart(nca, frame)
    assert ok
    assert cert["frame_rank"] == 1 and cert["quotient_rank"] == 2
    assert cert["ambient_rank"] == 3 and cert["sum_matches"]


def test_sl2_chart_algebroid_stays_lie():
    sl2 = special_linear_2_algebroid()
    chart_alg = nash_anchor_on_chart(sl2, ChartMap.blowup(XY, 0)).algebroid
    assert is_lie_algebroid(chart_alg)


def test_so3_chart_pullbacks_and_relation():
    so3 = sphere_generators_algebroid()
    ch = ChartMap.blowup(XYZ, 0)
    nca = nash_anchor_on_chart(so3, ch)
    got = [[str(c) for c in pb.components] for pb in nca.pullbacks]
    assert got == [
        ["0", "z", "-y"],
        ["x*z", "-y*z", "-z^2 - 1"],
        ["x*y", "-y^2 - 1", "-y*z"],
    ]
    _, relations = debord_generators(so3, ch)
    assert len(relations) == 1
    rel = relations[0]
    assert rel.index == 0 and rel.basis == (1, 2) and rel.polynomial
    assert [str(c) for c in rel.coefficients] == ["y", "-z"]


def test_so3_chart_frame_and_quotient():
    so3 = sphere_generators_algebroid()
    ch = ChartMap.blowup(XYZ, 0)
    nca = nash_anchor_on_chart(so3, ch)
    frame = tautological_frame(nca)
    assert col_strs(frame) == [["1", "-y", "z"]]
    ok, _ = check_ideal(nca, frame)
    assert ok
    ok, cert = check_debord_on_chart(nca, frame)
    assert ok
    assert cert["frame_rank"] == 1 and cert["quotient_rank"] == 2
    assert cert["frame_rank"] + cert["quotient_rank"] == cert["ambient_rank"]


def test_so3_bivector_pullback_pole():
    ch = ChartMap.blowup(XYZ, 0)
    mat, pole = pullback_bivector(ch, linear_poisson_so3())
    assert str(pole) == "x"
    assert str(mat[0][1]) == "-z"
    assert str(mat[0][2]) == "y"
    expected = RatFunc(parse_poly("-y^2 - z^2 - 1", XYZ), parse_poly("x", XYZ))
    assert mat[1][2] == expected
    assert mat[2][1] == -expected
    # the symmetric chart puts the pole on the other coordinate
    chy = ChartMap.blowup(XYZ, 1)
    _, pole_y = pullback_bivector(chy, linear_poisson_so3())
    assert str(pole_y) == "y"


def test_frame_fiber_matches_kernel_at_regular_point():
    so3 = sphere_generators_algebroid()
    ch = ChartMap.blowup(XYZ, 0)
    frame = tautological_frame(nash_anchor_on_chart(so3, ch))
    u = (Fraction(2), Fraction(1, 2), Fraction(1, 3))
    image = [p.eval(u) for p in ch.phi]
    fiber = Subspace(3, [[col[i].eval(u) for i in range(3)] for col in frame.columns])
    assert fiber == kernel_at(so3, image)
    assert frame.rank_at(u) == 1
    for sample in exceptional_samples(ch):
        assert frame.rank_at(sample) == 1


def test_gl2_chart_pullbacks_and_frame():
    gl2 = matrix_action_algebroid(2)
    ch = ChartMap.blowup(("x1", "x2"), 0, chart_vars=("y1", "y2"))
    nca = nash_anchor_on_chart(gl2, ch)
    got = [[str(c) for c in pb.components] for pb in nca.pullbacks]
    assert got == [["y1", "-y2"], ["0", "1"], ["y1*y2", "-y2^2"], ["0", "y2"]]
    _, relations = debord_generators(gl2, ch)
    assert [(r.index, r.basis) for r in relations] == [(2, (0, 1)), (3, (0, 1))]
    assert [[str(c) for c in r.coefficients] for r in relations] == [
        ["y2", "0"],
        ["0", "y2"],
    ]
    frame = tautological_frame(nca)
    assert col_strs(frame) == [["-y2", "0", "1", "0"], ["0", "-y2", "0", "1"]]
    ok, cert = check_debord_on_chart(nca, frame)
    assert ok and cert["frame_rank"] == 2 and cert["quotient_rank"] == 2
    ok, _ = check_ideal(nca, frame)
    assert ok


def test_gl3_chart_relations_all_polynomial():
    gl3 = matrix_action_algebroid(3)
    ch = ChartMap.blowup(("x1", "x2", "x3"), 0, chart_vars=("y1", "y2", "y3"))
    _, relations = debord_generators(gl3, ch)
    assert [r.index for r in relations] == [3, 4, 5, 6, 7, 8]
    assert all(r.basis == (0, 1, 2) and r.polynomial for r in relations)
    coeff_strs = [[str(c) for c in r.coefficients] for r in relations]
    assert coeff_strs == [
        ["y2", "0", "0"],
        ["0", "y2", "0"],
        ["0", "0", "y2"],
        ["y3", "0", "0"],
        ["0", "y3", "0"],
        ["0", "0", "y3"],
    ]
    nca = nash_anchor_on_chart(gl3, ch)
    frame = tautological_frame(nca)
    assert frame.width == 6
    ok, cert = check_debord_on_chart(nca, frame)
    assert ok and cert["frame_rank"] + cert["quotient_rank"] == 9


def test_frame_reduction_failure_is_reported():
    vs = ("x1", "x2")
    bundle = AnchoredBundle(vs, [polys(vs, "x1^2", "-x2"), polys(vs, "0", "0")])
    ch = ChartMap.blowup(vs, 0, chart_vars=("y1", "y2"))
    nca = nash_anchor_on_chart(AlmostLieAlgebroid(bundle, {}), ch)
    with pytest.raises(FrameReductionFailedError) as err:
        tautological_frame(nca)
    assert (Fraction(0), Fraction(0)) in err.value.samples
    assert "no polynomial frame" in str(err.value)


def test_check_ideal_rejects_corrupted_frame():
    sl2 = special_linear_2_algebroid()
    ch = ChartMap.blowup(XY, 0)
    nca = nash_anchor_on_chart(sl2, ch)
    frame = tautological_frame(nca)
    frame.columns[0][0] = parse_poly("1", XY)
    ok, report = check_ideal(nca, frame)
    assert not ok
    assert "precondition" in report
    ok, cert = check_debord_on_chart(nca, frame)
    assert not ok
    assert cert["frame_in_kernel"] is False


def test_check_ideal_fails_only_pointwise():
    # On the chart e_1 pulls back to d/dy, so [y e_0, e_1] = -e_0: it lies in
    # the span of the frame y e_0 over the fraction field, but not at the
    # exceptional sample (0, 0), where the frame vanishes.
    bundle = AnchoredBundle(XY, [polys(XY, "0", "0"), polys(XY, "0", "x")])
    ch = ChartMap.blowup(XY, 0)
    nca = nash_anchor_on_chart(AlmostLieAlgebroid(bundle, {}), ch)
    frame = ChartFrame(ch, [polys(XY, "y", "0")])
    ok, report = check_ideal(nca, frame)
    assert not ok
    assert report["generic"] is True
    assert report["pointwise"] is False
    assert report["pairs_checked"] == 2


def test_exceptional_samples_are_deterministic():
    ch = ChartMap.blowup(XYZ, 0)
    first = exceptional_samples(ch, seed=3)
    again = exceptional_samples(ch, seed=3)
    other = exceptional_samples(ch, seed=4)
    assert first == again
    assert first != other
    assert first[0] == (Fraction(0), Fraction(0), Fraction(0))
    assert all(p[0] == 0 for p in first)


def test_pullback_bivector_through_linear_chart():
    # a linear chart acts by congruence with the constant inverse Jacobian
    vs = ("u", "v")
    ch = ChartMap(vs, XY, polys(vs, "u + v", "v"))
    pi = Bivector.from_upper_entries(XY, {(0, 1): parse_poly("x", XY)})
    mat, pole = pullback_bivector(ch, pi)
    assert pole is None
    assert str(mat[0][1]) == "u + v"
