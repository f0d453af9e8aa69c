import sys
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nashfol.algebroid as algebroid_module
import nashfol.charts as charts_module
import nashfol.linalg as linalg_module
from nashfol.algebroid import (
    AlmostLieAlgebroid,
    AnchoredBundle,
    anchor_rank_generic,
    is_lie_algebroid,
    kernel_at,
)
from nashfol.charts import (
    MAX_ROOT_COEFFICIENT,
    ChartFrame,
    ChartMap,
    ChartPullback,
    FrameCertificate,
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
from nashfol.nash import CURVE_VAR, CurveGerm, limit_along
from nashfol.poisson import Bivector
from nashfol.poly import (
    ArityMismatchError,
    InternalInvariantError,
    MultiPoly,
    RatFunc,
    parse_poly,
)
from nashfol.scenario import run_scenario
from checks import frame_rank_at
from oracles import check_ideal_sampled, in_span_by_rref
from models import (
    blowup,
    identity_chart,
    linear_poisson_so3,
    load_corpus_scenario,
    matrix_action_algebroid,
    rotation_action_algebroid,
    special_linear_2_algebroid,
    sphere_generators_algebroid,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def polys(variables, *texts):
    return [parse_poly(t, variables) for t in texts]


def col_strs(frame):
    return [[str(p) for p in col] for col in frame.columns]


def on_chart(algebroid, chart):
    return nash_anchor_on_chart(algebroid, ChartPullback(algebroid.bundle, chart))


def field_strs(bundle, chart):
    return [[str(c) for c in pb.components] for pb in ChartPullback(bundle, chart).fields]


def test_blowup_preset_shape():
    ch = blowup(XYZ, 0)
    assert [str(p) for p in ch.phi] == ["x", "x*y", "x*z"]
    assert str(ch.jac_det) == "x^2"
    assert str(ch.exceptional_poly()) == "x"
    ch2 = blowup(XYZ, 2)
    assert [str(p) for p in ch2.phi] == ["x*z", "y*z", "z"]
    with pytest.raises(ValueError):
        blowup(XYZ, 5)


def test_chart_validation():
    with pytest.raises(ValueError):
        ChartMap(XY, XY, polys(XY, "x", "x"))
    with pytest.raises(ArityMismatchError):
        ChartMap(XY, XY, polys(XY, "x"))
    with pytest.raises(ValueError):
        ChartMap(XY, XY, polys(XY, "x", "y"), exceptional=parse_poly("x", XY))


def test_identity_chart_is_trivial():
    ch = identity_chart(XYZ)
    field = polys(XYZ, "x*y", "z^2 - 1", "3")
    pb = pullback_vector_field(ch, field)
    assert pb.polynomial_flag and pb.denominator is None
    assert [c.as_poly() for c in pb.components] == field
    pi = linear_poisson_so3()
    mat, pole = pullback_bivector(ch, pi)
    assert pole is None
    assert all(
        mat[i][j] == RatFunc(pi.matrix[i][j]) for i in range(3) for j in range(3)
    )
    so3 = sphere_generators_algebroid()
    chart_alg = on_chart(so3, ch).algebroid
    assert (chart_alg.bundle, chart_alg.structure) == (so3.bundle, so3.structure)
    assert exceptional_samples(ch) == []


@pytest.mark.parametrize("field, polynomial", [(("x", "y", "z"), True), (("0", "1", "x"), False)])
def test_pullback_identity_check_refuses_a_wrong_solution(field, polynomial, monkeypatch):
    """J * Y = X o phi is checked in Q[u] after clearing Y's denominators:
    one perturbed component, polynomial or not, is refused."""
    ch = blowup(XYZ, 0)
    original = charts_module.solve

    def perturbed(m, b):
        comps = original(m, b)
        comps[-1] = RatFunc(comps[-1].num + comps[-1].den, comps[-1].den)
        return comps

    assert pullback_vector_field(ch, polys(XYZ, *field)).polynomial_flag is polynomial
    monkeypatch.setattr(charts_module, "solve", perturbed)
    with pytest.raises(InternalInvariantError, match="pullback does not satisfy its defining"):
        pullback_vector_field(ch, polys(XYZ, *field))


def test_pullback_of_constant_field_is_not_liftable():
    ch = blowup(("a", "b"), 0, chart_vars=("u", "v"))
    pb = pullback_vector_field(ch, polys(("a", "b"), "0", "1"))
    assert not pb.polynomial_flag
    assert str(pb.denominator) == "u"
    assert [str(c) for c in pb.components] == ["0", "(1) / (u)"]
    bundle = AnchoredBundle(("a", "b"), [polys(("a", "b"), "0"), polys(("a", "b"), "1")])
    with pytest.raises(NotResolvedByChartError, match="e_0 has denominator u"):
        ChartPullback(bundle, ch).anchor


def test_nash_anchor_rejects_unresolved_chart():
    vs = ("a", "b")
    bundle = AnchoredBundle(vs, [polys(vs, "0"), polys(vs, "1")])
    ch = blowup(vs, 0, chart_vars=("u", "v"))
    with pytest.raises(NotResolvedByChartError) as err:
        on_chart(AlmostLieAlgebroid(bundle, {}), ch)
    assert [(i, str(d)) for i, d in err.value.failures] == [(0, "u")]


def test_chart_pullback_refuses_another_base_and_another_anchor():
    sl2 = special_linear_2_algebroid()
    with pytest.raises(ArityMismatchError, match="different base variables"):
        ChartPullback(sl2.bundle, blowup(("a", "b"), 0))
    other = ChartPullback(rotation_action_algebroid().bundle, blowup(XYZ, 0))
    with pytest.raises(ValueError, match="another anchor"):
        nash_anchor_on_chart(sphere_generators_algebroid(), other)


def test_sl2_chart_pullbacks_and_relation():
    sl2 = special_linear_2_algebroid()
    ch = blowup(XY, 0)
    assert field_strs(sl2.bundle, ch) == [["x", "-2*y"], ["0", "1"], ["x*y", "-y^2"]]
    relations = debord_generators(ChartPullback(sl2.bundle, ch))
    assert len(relations) == 1
    rel = relations[0]
    assert rel.index == 2 and rel.basis == (0, 1) and rel.polynomial
    assert [str(c) for c in rel.coefficients] == ["y", "y^2"]


def test_sl2_chart_frame_and_quotient():
    sl2 = special_linear_2_algebroid()
    ch = blowup(XY, 0)
    nca = on_chart(sl2, ch)
    frame = tautological_frame(nca)
    assert col_strs(frame) == [["-y", "-y^2", "1"]]
    ok, report = check_ideal(frame)
    assert ok and report["label"] == "generic + sampled"
    ok, cert = check_debord_on_chart(frame)
    assert ok
    assert cert["frame_rank"] == 1 and cert["quotient_rank"] == 2
    assert cert["ambient_rank"] == 3


def test_sl2_chart_algebroid_stays_lie():
    sl2 = special_linear_2_algebroid()
    chart_alg = on_chart(sl2, blowup(XY, 0)).algebroid
    assert is_lie_algebroid(chart_alg)


def test_so3_chart_pullbacks_and_relation():
    so3 = sphere_generators_algebroid()
    ch = blowup(XYZ, 0)
    assert field_strs(so3.bundle, ch) == [
        ["0", "z", "-y"],
        ["x*z", "-y*z", "-z^2 - 1"],
        ["x*y", "-y^2 - 1", "-y*z"],
    ]
    relations = debord_generators(ChartPullback(so3.bundle, ch))
    assert len(relations) == 1
    rel = relations[0]
    assert rel.index == 0 and rel.basis == (1, 2) and rel.polynomial
    assert [str(c) for c in rel.coefficients] == ["y", "-z"]


def test_so3_chart_frame_and_quotient():
    so3 = sphere_generators_algebroid()
    ch = blowup(XYZ, 0)
    nca = on_chart(so3, ch)
    frame = tautological_frame(nca)
    assert col_strs(frame) == [["1", "-y", "z"]]
    ok, _ = check_ideal(frame)
    assert ok
    ok, cert = check_debord_on_chart(frame)
    assert ok
    assert cert["frame_rank"] == 1 and cert["quotient_rank"] == 2
    assert cert["frame_rank"] + cert["quotient_rank"] == cert["ambient_rank"]


def test_so3_bivector_pullback_pole():
    ch = blowup(XYZ, 0)
    mat, pole = pullback_bivector(ch, linear_poisson_so3())
    assert str(pole) == "x"
    assert str(mat[0][1]) == "-z"
    assert str(mat[0][2]) == "y"
    expected = RatFunc(parse_poly("-y^2 - z^2 - 1", XYZ), parse_poly("x", XYZ))
    assert mat[1][2] == expected
    assert mat[2][1] == RatFunc(parse_poly("y^2 + z^2 + 1", XYZ), parse_poly("x", XYZ))
    # the symmetric chart puts the pole on the other coordinate
    chy = blowup(XYZ, 1)
    _, pole_y = pullback_bivector(chy, linear_poisson_so3())
    assert str(pole_y) == "y"


def test_frame_fiber_matches_kernel_at_regular_point():
    so3 = sphere_generators_algebroid()
    ch = blowup(XYZ, 0)
    frame = tautological_frame(on_chart(so3, ch))
    u = (Fraction(2), Fraction(1, 2), Fraction(1, 3))
    image = [p.eval(u) for p in ch.phi]
    fiber = Subspace(3, [[col[i].eval(u) for i in range(3)] for col in frame.columns])
    assert fiber == kernel_at(so3.bundle, image)
    assert frame_rank_at(frame, u) == 1
    for sample in exceptional_samples(ch):
        assert frame_rank_at(frame, sample) == 1


def test_gl2_chart_pullbacks_and_frame():
    gl2 = matrix_action_algebroid(2)
    ch = blowup(("x1", "x2"), 0, chart_vars=("y1", "y2"))
    pullback = ChartPullback(gl2.bundle, ch)
    nca = nash_anchor_on_chart(gl2, pullback)
    got = [[str(c) for c in pb.components] for pb in pullback.fields]
    assert got == [["y1", "-y2"], ["0", "1"], ["y1*y2", "-y2^2"], ["0", "y2"]]
    relations = debord_generators(pullback)
    assert [(r.index, r.basis) for r in relations] == [(2, (0, 1)), (3, (0, 1))]
    assert [[str(c) for c in r.coefficients] for r in relations] == [
        ["y2", "0"],
        ["0", "y2"],
    ]
    frame = tautological_frame(nca)
    assert col_strs(frame) == [["-y2", "0", "1", "0"], ["0", "-y2", "0", "1"]]
    ok, cert = check_debord_on_chart(frame)
    assert ok and cert["frame_rank"] == 2 and cert["quotient_rank"] == 2
    ok, _ = check_ideal(frame)
    assert ok


def test_gl3_chart_relations_all_polynomial():
    gl3 = matrix_action_algebroid(3)
    ch = blowup(("x1", "x2", "x3"), 0, chart_vars=("y1", "y2", "y3"))
    pullback = ChartPullback(gl3.bundle, ch)
    relations = debord_generators(pullback)
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
    nca = nash_anchor_on_chart(gl3, pullback)
    frame = tautological_frame(nca)
    assert frame.width == 6
    ok, cert = check_debord_on_chart(frame)
    assert ok and cert["frame_rank"] + cert["quotient_rank"] == 9


def test_frame_reduction_failure_is_reported():
    vs = ("x1", "x2")
    bundle = AnchoredBundle(vs, [polys(vs, "x1^2", "-x2"), polys(vs, "0", "0")])
    ch = blowup(vs, 0, chart_vars=("y1", "y2"))
    nca = on_chart(AlmostLieAlgebroid(bundle, {}), ch)
    with pytest.raises(FrameReductionFailedError) as err:
        tautological_frame(nca)
    assert (Fraction(0), Fraction(0)) in err.value.samples
    assert "no polynomial frame" in str(err.value)


def test_check_ideal_rejects_corrupted_frame():
    sl2 = special_linear_2_algebroid()
    ch = blowup(XY, 0)
    nca = on_chart(sl2, ch)
    good = tautological_frame(nca)
    corrupted = [parse_poly("1", XY)] + good.columns[0][1:]
    with pytest.raises(InternalInvariantError, match="frame column 1 is not a kernel section"):
        ChartFrame(nca, [good.columns[0], corrupted], good.samples)


def test_exceptional_samples_refuse_coefficients_above_the_cap():
    # phi = (x^2 - 2c*x, y) has det J = 2x - 2c: the root search on each
    # sample line through x meets the constant c.
    def chart(c):
        x, y = polys(XY, "x", "y")
        return ChartMap(XY, XY, [x * x - x * (2 * c), y])

    samples = exceptional_samples(chart(MAX_ROOT_COEFFICIENT))
    assert samples and all(u0[0] == MAX_ROOT_COEFFICIENT for u0 in samples)
    with pytest.raises(ValueError, match="above"):
        exceptional_samples(chart(MAX_ROOT_COEFFICIENT + 1))


def test_check_ideal_fails_only_pointwise():
    # On the chart e_1 pulls back to d/dy, so [y e_0, e_1] = -e_0: it lies in
    # the span of the frame y e_0 over the fraction field, but not at the
    # exceptional sample (0, 0), where the frame vanishes.
    bundle = AnchoredBundle(XY, [polys(XY, "0", "0"), polys(XY, "0", "x")])
    ch = blowup(XY, 0)
    nca = on_chart(AlmostLieAlgebroid(bundle, {}), ch)
    frame = ChartFrame(nca, [polys(XY, "y", "0")], exceptional_samples(ch))
    assert frame.certificate is None
    ok, report = check_ideal(frame)
    assert not ok
    assert report["generic"] is True
    assert report["pointwise"] is False
    assert report["pairs_checked"] == 2
    assert (ok, report) == check_ideal_sampled(frame)


def test_exceptional_samples_are_deterministic():
    ch = blowup(XYZ, 0)
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


def test_chart_report_samples_and_kernel_test_once(monkeypatch):
    counts = {"exceptional_samples": 0, "poly_mat_vec": 0, "rank": 0}
    frame_check = charts_module.ChartFrame.__init__.__code__
    for name in counts:
        module = algebroid_module if name == "rank" else charts_module
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            # poly_mat_vec also checks each pullback's identity; only the
            # frame's kernel check is counted
            if _name != "poly_mat_vec" or sys._getframe(1).f_code is frame_check:
                counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    sc = load_corpus_scenario("sl2")
    sc.steps = [s for s in sc.steps if s["op"] == "nash-chart-report"]
    report = run_scenario(sc, seed=0)
    assert [step.op for step in report.steps] == ["nash-chart-report"]
    assert report.passed
    # one sample search, one anchor product for the frame's single column,
    # and one elimination of an anchor: the source's generic rank, since the
    # chart anchor's rank is read from its kernel
    assert counts == {"exceptional_samples": 1, "poly_mat_vec": 1, "rank": 1}


# ---------------------------------------------------------------------------
# the chart layer against the Nash-limit layer
# ---------------------------------------------------------------------------
# J * P = A o phi with det J != 0 off the exceptional locus, so along the arc
# phi(u0 + t*w) of a line leaving det J = 0 the kernel of A is the kernel of
# P, spanned by the frame F.  Where F has full rank at u0 the kernel limit of
# A along that arc is span F(u0).


def _chart_arc(chart, u0, w):
    """phi(u0 + t*w), or None when the line stays inside det J = 0."""
    t = MultiPoly.variable(CURVE_VAR, "t")
    line = [MultiPoly.constant(CURVE_VAR, a) + t * b for a, b in zip(u0, w)]
    if chart.jac_det.subst(CURVE_VAR, line).is_zero():
        return None
    target = tuple(p.eval(u0) for p in chart.phi)
    return CurveGerm(target, tuple(p.subst(CURVE_VAR, line) for p in chart.phi))


def _frame_and_bundle(name):
    sc = load_corpus_scenario(name)
    step = next(s for s in sc.steps if s["op"] == "nash-chart-report")
    bundle = sc.sources["algebroid"].bundle
    chart = sc.charts[step["chart"]]
    return tautological_frame(on_chart(AlmostLieAlgebroid(bundle, {}), chart)), bundle


def _assert_limit_is_frame_span(frame, bundle, u0, w):
    chart = frame.nca.pullback.chart
    arc = _chart_arc(chart, u0, w)
    assert arc is not None
    n = bundle.fiber_rank
    assert frame_rank_at(frame, u0) == frame.width
    span = Subspace(n, [[p.eval(u0) for p in col] for col in frame.columns])
    assert limit_along(bundle, arc) == span


@pytest.mark.parametrize("name", ["gl2", "gl3", "sl2", "so3"])
def test_chart_frame_is_the_kernel_limit_along_chart_arcs(name):
    frame, bundle = _frame_and_bundle(name)
    d = frame.nca.pullback.chart.dim
    rng = Random(f"chart-arcs-{name}")
    seeded = [tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(d))
              for _ in range(2)]
    assert frame.samples
    for u0 in frame.samples + seeded:
        while True:
            w = [rng.randint(-2, 2) for _ in range(d)]
            if _chart_arc(frame.nca.pullback.chart, u0, w) is not None:
                break
        _assert_limit_is_frame_span(frame, bundle, u0, w)


_COORD = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_CHART_FRAMES = {name: _frame_and_bundle(name) for name in ("sl2", "so3")}


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["sl2", "so3"]),
    st.lists(_COORD, min_size=3, max_size=3),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
)
def test_chart_frame_is_the_kernel_limit_at_generated_points(name, point, direction):
    frame, bundle = _CHART_FRAMES[name]
    d = frame.nca.pullback.chart.dim
    u0, w = tuple(point[:d]), direction[:d]
    assume(_chart_arc(frame.nca.pullback.chart, u0, w) is not None)
    _assert_limit_is_frame_span(frame, bundle, u0, w)


# ---------------------------------------------------------------------------
# certified frames: a constant invertible maximal minor decides check_ideal
# ---------------------------------------------------------------------------


def _corpus_frame(name):
    """The frame of the scenario's chart report, on its bracketed algebroid."""
    sc = load_corpus_scenario(name)
    step = next(s for s in sc.steps if s["op"] == "nash-chart-report")
    algebroid = sc.sources["algebroid"].algebroid
    assert algebroid is not None
    return tautological_frame(on_chart(algebroid, sc.charts[step["chart"]]))


_CORPUS_FRAMES = {name: _corpus_frame(name) for name in ("gl2", "gl3", "sl2", "so3")}
# the same frames with zero brackets, whose brackets leave the span
_UNBRACKETED_FRAMES = {name: _frame_and_bundle(name)[0] for name in _CORPUS_FRAMES}
_CERTIFIED_ROWS = {"gl2": (2, 3), "gl3": (3, 4, 5, 6, 7, 8), "sl2": (2,), "so3": (0,)}


@pytest.mark.parametrize("name, eliminations", [("gl2", 1), ("gl3", 1), ("sl2", 1), ("so3", 3)])
def test_chart_anchor_is_eliminated_once_per_chart(name, eliminations, monkeypatch):
    """The Debord relations and the frame read one cached kernel of P; only a
    Debord subset after the first eliminates P again, and so3's first
    subset is dependent, so two more follow there."""
    sc = load_corpus_scenario(name)
    step = next(s for s in sc.steps if s["op"] == "nash-chart-report")
    nca = on_chart(sc.sources["algebroid"].algebroid, sc.charts[step["chart"]])
    # the source's generic rank is taken once per bundle; take it first, as
    # sl2 and so3 name their chart variables as the base's
    anchor_rank_generic(nca.pullback.bundle)
    chart_vars = nca.pullback.chart.chart_vars
    eliminated = []
    bareiss = linalg_module._bareiss

    def spy(m):
        if m and m[0] and m[0][0].vars == chart_vars:
            eliminated.append(m)
        return bareiss(m)

    # a module that imports _bareiss by name holds a binding of its own
    for module in (linalg_module, charts_module):
        monkeypatch.setattr(module, "_bareiss", spy, raising=False)
    debord_generators(nca.pullback)
    tautological_frame(nca)
    assert len(eliminated) == eliminations


def test_chart_kernel_checks_rank_plus_nullity(monkeypatch):
    sl2 = special_linear_2_algebroid()
    pullback = ChartPullback(sl2.bundle, blowup(XY, 0))
    monkeypatch.setattr(charts_module, "anchor_rank_generic", lambda bundle: 1)
    with pytest.raises(InternalInvariantError, match="lost the source's generic rank"):
        debord_generators(pullback)
    with pytest.raises(InternalInvariantError, match="lost the source's generic rank"):
        tautological_frame(nash_anchor_on_chart(sl2, pullback))


@pytest.mark.parametrize("name", sorted(_CORPUS_FRAMES))
def test_corpus_frames_are_certified_and_check_ideal_builds_no_subspace(name, monkeypatch):
    frame = _CORPUS_FRAMES[name]
    cert = frame.certificate
    assert cert is not None and cert.rows == _CERTIFIED_ROWS[name]
    # the certified rows are the identity block of every corpus frame
    k = frame.width
    assert cert.inverse == tuple(tuple(Fraction(int(a == b)) for b in range(k)) for a in range(k))
    built = []

    def spy(*args):
        built.append(args)
        return Subspace(*args)

    monkeypatch.setattr(charts_module, "Subspace", spy)
    ok, report = check_ideal(frame)
    assert built == []
    assert ok
    assert (ok, report) == check_ideal_sampled(frame)


def test_empty_frame_is_certified():
    vs = ("x", "y")
    bundle = AnchoredBundle(vs, [polys(vs, "x"), polys(vs, "y")])
    frame = tautological_frame(on_chart(AlmostLieAlgebroid(bundle, {}), blowup(vs, 0)))
    assert frame.width == 0
    assert frame.certificate == FrameCertificate((), ())
    ok, report = check_ideal(frame)
    assert ok and report["pairs_checked"] == 0
    assert (ok, report) == check_ideal_sampled(frame)


def test_certified_frame_reports_a_bracket_outside_its_span():
    # the repaired frame of the CLI chart report: rows 0 and 2 are constant,
    # and with zero brackets [kappa, e_j] = -rho(e_j)(kappa) leaves the span
    vs, uv = ("x", "y"), ("u", "v")
    bundle = AnchoredBundle(vs, [polys(vs, "x^2", "x", "x"), polys(vs, "x*y", "y", "y")])
    chart = ChartMap(uv, vs, polys(uv, "u", "u*v"))
    for seed in (0, 3):
        frame = tautological_frame(on_chart(AlmostLieAlgebroid(bundle, {}), chart), seed=seed)
        assert col_strs(frame) == [["-1", "u", "0"], ["0", "-1", "1"]]
        assert frame.certificate.rows == (0, 2)
        ok, report = check_ideal(frame)
        assert not ok and report["generic"] is False
        assert (ok, report) == check_ideal_sampled(frame)


@pytest.mark.parametrize("name", sorted(_CORPUS_FRAMES))
def test_debord_rank_comes_from_the_certificate_else_from_rank(name, monkeypatch):
    frame = _CORPUS_FRAMES[name]
    chart_vars = frame.nca.pullback.chart.chart_vars
    # a column and a non-constant multiple of it: no certificate, rank 1
    factor = MultiPoly.variable(chart_vars, chart_vars[0]) + 1
    col = frame.columns[0]
    dependent = _reframed(frame, [col, [p * factor for p in col]])
    assert dependent.certificate is None
    ok, cert = check_debord_on_chart(dependent)
    assert not ok and cert["frame_rank"] == 1
    # a certified frame's rank is its width, which `rank` confirms; the
    # report reads it without computing a rank
    want = check_debord_on_chart(_reframed(frame, frame.columns))
    assert want[1]["frame_rank"] == frame.width == _reframed(frame, frame.columns).rank
    ranked = []
    monkeypatch.setattr(charts_module, "rank", lambda *args: ranked.append(args))
    assert check_debord_on_chart(_reframed(frame, frame.columns)) == want
    assert ranked == []


def _unimodular(draw, k):
    """A product of integer elementary column operations and sign flips."""
    u = [[int(a == b) for b in range(k)] for a in range(k)]
    for _ in range(draw(st.integers(0, 3)) if k > 1 else 0):
        a, b = draw(st.sampled_from([(a, b) for a in range(k) for b in range(k) if a != b]))
        m = draw(st.integers(-2, 2))
        for row in u:
            row[b] += m * row[a]
    if k:
        flip = draw(st.integers(0, k - 1))
        for row in u:
            row[flip] = -row[flip]
    return u


def _reframed(frame, columns):
    return ChartFrame(frame.nca, columns, frame.samples)


_FRAMES = st.builds(
    lambda name, bracketed: (_CORPUS_FRAMES if bracketed else _UNBRACKETED_FRAMES)[name],
    st.sampled_from(sorted(_CORPUS_FRAMES)),
    st.booleans(),
)


@settings(max_examples=30, deadline=None)
@given(_FRAMES, st.data())
def test_check_ideal_matches_the_sampled_oracle_on_mixed_columns(frame, data):
    k, cols = frame.width, frame.columns
    u = _unimodular(data.draw, k)
    zero = MultiPoly.zero(frame.nca.pullback.chart.chart_vars)
    mixed = [
        [sum((cols[a][i] * u[a][b] for a in range(k)), zero) for i in range(len(cols[0]))]
        for b in range(k)
    ]
    mixed_frame = _reframed(frame, mixed)
    assert mixed_frame.certificate is not None
    assert check_ideal(mixed_frame) == check_ideal_sampled(mixed_frame)


_FACTORS = ["{0}", "{0} + 1", "{1} - 2", "{0}*{1} + 3"]


@settings(max_examples=30, deadline=None)
@given(_FRAMES, st.data())
def test_check_ideal_matches_the_sampled_oracle_on_a_scaled_column(frame, data):
    chart_vars = frame.nca.pullback.chart.chart_vars
    factor = parse_poly(data.draw(st.sampled_from(_FACTORS)).format(*chart_vars), chart_vars)
    j = data.draw(st.integers(0, frame.width - 1))
    columns = [[p * factor for p in col] if a == j else col for a, col in enumerate(frame.columns)]
    scaled = _reframed(frame, columns)
    assert check_ideal(scaled) == check_ideal_sampled(scaled)


@settings(max_examples=40, deadline=None)
@given(_FRAMES, st.data())
def test_uncertified_frame_spans_match_the_rref_oracle(frame, data):
    """A column joined by a non-constant multiple of another leaves the
    frame without a certificate; its span test then reads the stacked rank,
    and agrees with reduction over Q(u) on vectors inside and outside."""
    chart_vars = frame.nca.pullback.chart.chart_vars

    def poly():
        return parse_poly(data.draw(st.sampled_from(_FACTORS)).format(*chart_vars), chart_vars)

    columns = [list(col) for col in frame.columns]
    factor = poly()
    columns.append([p * factor for p in columns[data.draw(st.integers(0, frame.width - 1))]])
    uncertified = _reframed(frame, columns)
    assert uncertified.certificate is None
    zero = MultiPoly.zero(chart_vars)
    n = len(columns[0])
    if data.draw(st.booleans()):
        coeffs = [poly() if data.draw(st.booleans()) else zero for _ in columns]
        v = [sum((c * col[i] for c, col in zip(coeffs, columns)), zero) for i in range(n)]
        assert uncertified.spans(v)
    else:
        v = [poly() if data.draw(st.booleans()) else zero for _ in range(n)]
    assert uncertified.spans(v) == in_span_by_rref(columns, v)
