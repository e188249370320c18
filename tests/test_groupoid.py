import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeflow import curves as cv
from schemeflow import groupoid as gp
from schemeflow.cring import SchemePoint, SchemePresentation, sample_zero_set
from schemeflow.curves import CurveClass, IntegratorOptions, integrate_max_curve
from schemeflow.derivation import LiftedField
from schemeflow.expr import GuardViolation, SmoothExpr, VarList, const, parse_expr
from schemeflow.flow import MemoFlow, closed_form_flow
from schemeflow.groupoid import (
    Arrow,
    IncompleteFieldError,
    NonComposableError,
    check_axioms,
    check_ideal_inclusions,
    compose,
    inverse,
    sample_arrows,
    source,
    target,
    unit,
)

from helpers import (
    XY,
    count_integrations,
    curves_identical,
    rotation_field,
    shear_field,
    square,
    thickened_line,
)

OPTS = IntegratorOptions(horizon=20.0)
XYT = XY.extended("t")
PSI = (parse_expr("x + t", XYT), parse_expr("y*exp(t)", XYT))
LINE_BOX = ((-3.0, 3.0), (-1.0, 1.0))
XYZ = VarList(("x", "y", "z"))
SPHERE_PSI = tuple(
    parse_expr(c, XYZ.extended("t"))
    for c in ("x*cos(t) - y*sin(t)", "x*sin(t) + y*cos(t)", "z")
)


def line_setup():
    line = thickened_line()
    return line, shear_field(line)


def sphere_setup():
    # the unit sphere with the rotation about z, as schemes/sphere_rotation.json
    sphere = SchemePresentation(XYZ, ideal_gens=(parse_expr("x^2 + y^2 + z^2 - 1", XYZ),))
    return sphere, LiftedField.from_strings(["-y", "x", "0"], sphere)


LINE = (*line_setup(), PSI)
SPHERE = (*sphere_setup(), SPHERE_PSI)


@st.composite
def flow_batches(draw):
    """A scheme (line or sphere) with its field and closed form, and a batch
    of its points as columns, with repeated points, and times with 0."""
    scheme, field, psi = draw(st.sampled_from([LINE, SPHERE]))
    angle = st.floats(-math.pi, math.pi)
    if scheme is LINE[0]:
        base = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.just(0.0)), min_size=1, max_size=3))
    else:
        base = [
            (math.cos(a) * math.sin(b), math.sin(a) * math.sin(b), math.cos(b))
            for a, b in draw(st.lists(st.tuples(angle, angle), min_size=1, max_size=3))
        ]
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=6))
    times = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=len(picks),
                 max_size=len(picks))
    )
    cols = np.array([base[i] for i in picks], dtype=float).T
    return field, psi, scheme, cols, np.array(times)


class TestStructureMaps:
    def test_source_and_target(self):
        line, v = line_setup()
        a = Arrow(line.point((1.0, 0.0)), 2.0)
        assert source(a).coords == (1.0, 0.0)
        assert np.allclose(target(a, MemoFlow(v, OPTS)), [3.0, 0.0], atol=1e-9)

    def test_zero_time_target_is_source(self):
        line, v = line_setup()
        a = Arrow(line.point((4.0, 0.0)), 0.0)
        assert tuple(target(a, MemoFlow(v, OPTS))) == (4.0, 0.0)

    def test_corner_arrow_has_no_target(self):
        from schemeflow.curves import OutsideDefinitionInterval

        sq = square()
        a = Arrow(sq.point((1.0, 1.0)), 0.3)
        with pytest.raises(OutsideDefinitionInterval):
            target(a, MemoFlow(rotation_field(sq), OPTS))

    def test_compose_adds_times_on_first_base(self):
        line, v = line_setup()
        a1 = Arrow(line.point((1.0, 0.0)), 2.0)
        a2 = Arrow(line.point((3.0, 0.0)), 5.0)
        flow = MemoFlow(v, OPTS)
        m = compose(a2, a1, flow)
        assert m.point.coords == (1.0, 0.0) and m.t == 7.0
        assert np.allclose(target(m, flow), [8.0, 0.0], atol=1e-8)

    def test_compose_with_unit_is_identity(self):
        line, v = line_setup()
        a = Arrow(line.point((1.0, 0.0)), 2.0)
        m = compose(a, unit(a.point), MemoFlow(v, OPTS))
        assert m.point.coords == a.point.coords and m.t == a.t

    def test_non_composable_rejected(self):
        line, v = line_setup()
        a1 = Arrow(line.point((1.0, 0.0)), 2.0)
        a2 = Arrow(line.point((9.0, 0.0)), 1.0)
        with pytest.raises(NonComposableError):
            compose(a2, a1, MemoFlow(v, OPTS))

    def test_unit_shape(self):
        line, _ = line_setup()
        u = unit(line.point((4.0, 0.0)))
        assert u.point.coords == (4.0, 0.0) and u.t == 0.0

    def test_inverse_anchors_negated_time_at_target(self):
        line, v = line_setup()
        a = Arrow(line.point((1.0, 0.0)), 2.0)
        flow = MemoFlow(v, OPTS)
        inv = inverse(a, flow)
        assert np.allclose(inv.point.coords, (3.0, 0.0), atol=1e-9)
        assert inv.t == -2.0
        back = compose(inv, a, flow)
        assert back.t == 0.0 and back.point.coords == (1.0, 0.0)

    def test_inverse_of_unit_is_unit(self):
        line, v = line_setup()
        u = unit(line.point((2.0, 0.0)))
        assert inverse(u, MemoFlow(v, OPTS)) == u


class TestSampleArrows:
    @pytest.mark.parametrize("count", [3, 300])
    def test_arrows_cycle_through_the_full_sample(self, count):
        # the sphere's sample has 242 points: 3 arrows read a prefix of it,
        # 300 read all of it and wrap around
        sphere, _ = sphere_setup()
        points = sample_zero_set(sphere, sphere.default_box(), 15)
        assert 3 < len(points) < 300
        rng = random.Random(11)
        want = [Arrow(points[i % len(points)], rng.uniform(-3.0, 3.0)) for i in range(count)]
        assert sample_arrows(sphere, count, seed=11) == want

    @pytest.mark.parametrize("count", [0, -2])
    def test_no_arrows_below_one(self, count):
        line, v = line_setup()
        assert sample_arrows(line, count, box=LINE_BOX) == []
        with pytest.raises(ValueError, match="need at least one arrow"):
            check_axioms(MemoFlow(v, OPTS), sample_arrows(line, count, box=LINE_BOX))


class TestAxioms:
    def test_numeric_flow_passes(self):
        line, v = line_setup()
        arrows = sample_arrows(line, 100, seed=0, box=LINE_BOX)
        report = check_axioms(MemoFlow(v, OPTS), arrows, tol=1e-6)
        assert report.passed
        assert max(report.residuals.values()) <= 1e-6

    def test_closed_form_flow_much_tighter(self):
        line, v = line_setup()
        arrows = sample_arrows(line, 100, seed=0, box=LINE_BOX)
        phi = closed_form_flow(PSI)
        report = check_axioms(MemoFlow(v, OPTS), arrows, tol=1e-12, phi=phi)
        assert report.passed

    def test_unit_arrows_have_zero_residuals(self):
        line, v = line_setup()
        arrows = [unit(line.point((float(k), 0.0))) for k in range(-2, 3)]
        report = check_axioms(MemoFlow(v, OPTS), arrows, tol=1e-12)
        assert report.passed
        assert max(report.residuals.values()) == 0.0

    def test_fault_injected_flow_fails_flow_law(self):
        line, v = line_setup()
        arrows = sample_arrows(line, 40, seed=1, box=LINE_BOX)
        bad_psi = (
            parse_expr("x + t + t^2/100", XYT),
            parse_expr("y*exp(t)", XYT),
        )
        bad_phi = closed_form_flow(bad_psi)
        report = check_axioms(MemoFlow(v, OPTS), arrows, tol=1e-6, phi=bad_phi)
        assert not report.passed
        assert report.residuals["flow_law"] > 1e-6
        # the inverse of (p, t) flows back to p + t^2/50, not to p
        assert report.residuals["inverse_right"] > 1e-6

    def test_incomplete_field_refused(self):
        sq = square()
        arrows = sample_arrows(sq, 10, seed=0, box=((-2, 2), (-2, 2)), resolution=9)
        with pytest.raises(IncompleteFieldError):
            check_axioms(MemoFlow(rotation_field(sq), OPTS), arrows)

    def test_each_base_point_integrated_once(self, monkeypatch):
        line, v = line_setup()
        arrows = sample_arrows(line, 12, seed=3, box=LINE_BOX)
        memo = MemoFlow(v, OPTS)
        log = count_integrations(monkeypatch)
        assert check_axioms(memo, arrows).passed
        calls = Counter(log.points)
        assert max(calls.values()) == 1
        assert {a.point.coords for a in arrows} <= set(calls)
        # three batches: the sources to the horizon, then their targets and
        # the targets' targets only as far as the sweep reads them
        assert len(log.batches) == 3
        assert log.reaches == [None] + 2 * [max(abs(a.t) for a in arrows)]
        # the flow keeps the gate's curves for the caller
        before = len(log.points)
        for a in arrows:
            memo.curve(a.point.coords)
        assert len(log.points) == before

    def test_sweep_wave_errors_raise_in_sweep_order(self):
        # the field is defined only for x in [-6.5, 6.5].  A curve through x0
        # integrated to the sweep's reach of 3 still spans [x0 - 5, x0 + 5],
        # because its last step runs to the horizon 5, so the curves through
        # the sources (x = 0) and the targets q1 = 1 and 0.5 stay inside;
        # the curve through the target q1 = 3 of arrow 1 leaves it (second
        # wave), and so does the curve through q12 = 1 + 3 of arrow 0 (third
        # wave).  The second wave is read before the third, so arrow 1's
        # target error is the one raised.
        line = thickened_line()
        fenced = SmoothExpr(
            "div", XY, (const(1, XY), const(1, XY)), guard=((-6.5, 6.5), (-10.0, 10.0))
        )
        v = LiftedField((fenced, parse_expr("y", XY)), line)
        opts = IntegratorOptions(horizon=5.0)
        origin = line.point((0.0, 0.0))
        arrows = [Arrow(origin, 1.0), Arrow(origin, 3.0), Arrow(origin, 0.5)]
        with pytest.raises(GuardViolation) as swept:
            check_axioms(MemoFlow(v, opts), arrows)
        memo = MemoFlow(v, opts)
        q1 = memo((0.0, 0.0), 3.0)
        assert abs(q1[0] - 3.0) <= 1e-9
        with pytest.raises(GuardViolation) as alone:
            integrate_max_curve(v, SchemePoint(tuple(float(c) for c in q1)), opts)
        assert str(swept.value) == str(alone.value)
        # and the third-wave failure of arrow 0 alone is a different error
        q12 = memo(memo((0.0, 0.0), 1.0), 3.0)
        assert abs(q12[0] - 4.0) <= 1e-9
        with pytest.raises(GuardViolation) as other:
            memo.curve(tuple(float(c) for c in q12))
        assert str(other.value) != str(swept.value)

    def test_reused_memo_serves_full_curves_to_the_gate(self, monkeypatch):
        # the second call's sources are the first call's targets, which the
        # first sweep integrated only to the arrows' reach
        line, v = line_setup()
        arrows = sample_arrows(line, 6, seed=5, box=LINE_BOX)
        memo = MemoFlow(v, OPTS)
        log = count_integrations(monkeypatch)
        assert check_axioms(memo, arrows).passed
        targets = [Arrow(inverse(a, memo).point, a.t) for a in arrows]
        keys = {a.point.coords for a in targets}
        assert keys <= set(log.batches[1]) and log.reaches[1] == max(abs(a.t) for a in arrows)
        gated = []
        real = MemoFlow.curve

        def recording(self, coords):
            gated.append(real(self, coords))
            return gated[-1]

        monkeypatch.setattr(MemoFlow, "curve", recording)
        first = len(log.batches)
        assert check_axioms(memo, targets).passed
        # the short curves are integrated again, to the horizon, for the gate
        assert set(log.batches[first]) == keys and log.reaches[first] is None
        assert len(gated) == len(targets)
        for c in gated:
            assert c.classification == CurveClass.HORIZON_COMPLETE
            assert (c.interval.lo, c.interval.hi) == (-OPTS.horizon, OPTS.horizon)
            assert {d["end"] for d in c.diagnostics.values()} == {"horizon"}
        q1 = targets[0].point.coords
        assert curves_identical(real(memo, q1), integrate_max_curve(v, SchemePoint(q1), OPTS))

    def test_cached_failure_raises_every_time(self):
        line = thickened_line()
        fenced = SmoothExpr(
            "div", XY, (const(1, XY), const(1, XY)), guard=((-2.0, 2.0), (-10.0, 10.0))
        )
        memo = MemoFlow(LiftedField((fenced, parse_expr("y", XY)), line), OPTS)
        memo.fill([(0.0, 0.0), (1.0, 0.0)])
        for _ in range(2):
            with pytest.raises(GuardViolation):
                memo.curve((0.0, 0.0))

    def test_deterministic_sampling(self):
        line, _ = line_setup()
        a = sample_arrows(line, 25, seed=7, box=LINE_BOX)
        b = sample_arrows(line, 25, seed=7, box=LINE_BOX)
        assert a == b
        c = sample_arrows(line, 25, seed=8, box=LINE_BOX)
        assert a != c


class TestBatchedFlow:
    @settings(max_examples=20, deadline=None)
    @given(flow_batches())
    def test_memo_batch_equals_point_calls(self, batch):
        field, _, _, cols, times = batch
        states = MemoFlow(field, OPTS)(cols, times)
        along = MemoFlow(field, OPTS)(cols[:, 0], times)  # one point at many times
        alone = MemoFlow(field, OPTS)
        assert states.shape == along.shape == cols.shape
        for j in range(len(times)):
            assert states[:, j].tobytes() == alone(cols[:, j], times[j]).tobytes()
            assert along[:, j].tobytes() == alone(cols[:, 0], times[j]).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(flow_batches())
    def test_closed_form_batch_equals_point_calls(self, batch):
        _, psi, scheme, cols, times = batch
        phi = closed_form_flow(psi)
        states = phi(cols, times)
        along = phi(cols[:, 0], times)  # one point at many times
        assert states.shape == along.shape == cols.shape
        for j in range(len(times)):
            assert states[:, j].tobytes() == phi(cols[:, j], times[j]).tobytes()
            assert along[:, j].tobytes() == phi(cols[:, 0], times[j]).tobytes()

    def test_one_batch_per_read_to_its_largest_time(self, monkeypatch):
        line, v = line_setup()
        memo = MemoFlow(v, OPTS)
        log = count_integrations(monkeypatch)
        cols = np.array([[0.0, 1.0, 0.0, 2.5], [0.0, 0.0, 0.0, 0.0]])
        memo(cols, np.array([0.5, -2.0, 1.5, 0.0]))
        assert log.batches == [[(0.0, 0.0), (1.0, 0.0), (2.5, 0.0)]]
        assert log.reaches == [2.0]
        # within the reach nothing is integrated; beyond it, again
        memo(cols[:, :2], np.array([-2.0, 1.0]))
        assert len(log.batches) == 1
        memo((1.0, 0.0), 3.0)
        assert log.batches[1:] == [[(1.0, 0.0)]] and log.reaches[1:] == [3.0]

    def test_sweep_reads_each_curve_once_per_wave(self, monkeypatch):
        line, v = line_setup()
        sampled = sample_arrows(line, 4, seed=2, box=LINE_BOX)
        arrows = sampled + sampled[:2]  # repeated sources and targets
        memo = MemoFlow(v, OPTS)
        real = cv.evaluate_curve
        read = []

        def logging(curve, t):
            read.append(curve.base.coords)
            return real(curve, t)

        monkeypatch.setattr(cv, "evaluate_curve", logging)
        assert check_axioms(memo, arrows).passed
        swept = list(read)
        n = len(arrows)
        q1 = [tuple(memo(a.point.coords, a.t).tolist()) for a in arrows]
        q12 = [tuple(memo(q, arrows[(i + 1) % n].t).tolist()) for i, q in enumerate(q1)]
        waves = [{a.point.coords for a in arrows}, set(q1), set(q12)]
        assert len(waves[0]) == 4 and len(waves[1]) == 4
        assert len(swept) == sum(len(w) for w in waves)
        start = 0
        for w in waves:
            assert set(swept[start : start + len(w)]) == w
            start += len(w)


class TestIdealInclusions:
    def test_pointwise_identities_hold(self):
        line, _ = line_setup()
        arrows = sample_arrows(line, 100, seed=0, box=LINE_BOX)
        report = check_ideal_inclusions(line, PSI, arrows, tol=1e-9)
        assert report.passed
        assert report.projection_identity <= 1e-12
        assert report.flow_identity <= 1e-9

    def test_identities_off_the_zero_set_too(self):
        # the factorization that makes the flow identity work is exact even
        # for base points with y != 0
        line, _ = line_setup()
        arrows = [
            Arrow(SchemePoint((0.5, 0.7)), 1.3),
            Arrow(SchemePoint((-1.0, 0.2)), -0.8),
            Arrow(SchemePoint((2.0, -0.4)), 0.5),
        ]
        report = check_ideal_inclusions(line, PSI, arrows, tol=1e-9)
        assert report.passed

    def test_constant_generator_trivial(self):
        from schemeflow.cring import SchemePresentation
        from helpers import expr_xy

        # augment with a generator that is identically zero
        aug = SchemePresentation(XY, ideal_gens=(expr_xy("y^2"), expr_xy("0")))
        arrows = [Arrow(SchemePoint((1.0, 0.0)), 2.0)]
        report = check_ideal_inclusions(aug, PSI, arrows, tol=1e-12)
        assert report.passed

    def test_composite_with_wrong_source_fails(self, monkeypatch):
        line, _ = line_setup()
        arrows = sample_arrows(line, 20, seed=4, box=LINE_BOX)
        real = gp.compose

        def off_source(a2, a1, *args, **kwargs):
            # a composite anchored off the zero set instead of at a1's source
            m = real(a2, a1, *args, **kwargs)
            return Arrow(SchemePoint((m.point.coords[0], m.point.coords[1] + 0.5)), m.t)

        monkeypatch.setattr(gp, "compose", off_source)
        report = check_ideal_inclusions(line, PSI, arrows, tol=1e-9)
        assert report.projection_identity > 1e-12
        assert not report.passed

    def test_fault_injected_flow_fails(self):
        line, _ = line_setup()
        arrows = sample_arrows(line, 40, seed=2, box=LINE_BOX)
        bad_psi = (
            parse_expr("x + t", XYT),
            parse_expr("y*exp(t) + t^2/100", XYT),
        )
        report = check_ideal_inclusions(line, bad_psi, arrows, tol=1e-9)
        assert not report.passed
