from collections import Counter

import numpy as np
import pytest

from schemeflow import groupoid as gp
from schemeflow.cring import SchemePoint
from schemeflow.curves import CurveClass, IntegratorOptions, integrate_max_curve
from schemeflow.derivation import LiftedField
from schemeflow.expr import GuardViolation, SmoothExpr, const, parse_expr
from schemeflow.flow import closed_form_flow
from schemeflow.groupoid import (
    Arrow,
    IncompleteFieldError,
    MemoFlow,
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


def line_setup():
    line = thickened_line()
    return line, shear_field(line)


class TestStructureMaps:
    def test_source_and_target(self):
        line, v = line_setup()
        a = Arrow(line.point((1.0, 0.0)), 2.0)
        assert source(a).coords == (1.0, 0.0)
        assert np.allclose(target(a, v, OPTS), [3.0, 0.0], atol=1e-9)

    def test_zero_time_target_is_source(self):
        line, v = line_setup()
        a = Arrow(line.point((4.0, 0.0)), 0.0)
        assert tuple(target(a, v, OPTS)) == (4.0, 0.0)

    def test_corner_arrow_has_no_target(self):
        from schemeflow.curves import OutsideDefinitionInterval

        sq = square()
        a = Arrow(sq.point((1.0, 1.0)), 0.3)
        with pytest.raises(OutsideDefinitionInterval):
            target(a, rotation_field(sq), OPTS)

    def test_compose_adds_times_on_first_base(self):
        line, v = line_setup()
        a1 = Arrow(line.point((1.0, 0.0)), 2.0)
        a2 = Arrow(line.point((3.0, 0.0)), 5.0)
        m = compose(a2, a1, v, OPTS)
        assert m.point.coords == (1.0, 0.0) and m.t == 7.0
        assert np.allclose(target(m, v, OPTS), [8.0, 0.0], atol=1e-8)

    def test_compose_with_unit_is_identity(self):
        line, v = line_setup()
        a = Arrow(line.point((1.0, 0.0)), 2.0)
        m = compose(a, unit(a.point), v, OPTS)
        assert m.point.coords == a.point.coords and m.t == a.t

    def test_non_composable_rejected(self):
        line, v = line_setup()
        a1 = Arrow(line.point((1.0, 0.0)), 2.0)
        a2 = Arrow(line.point((9.0, 0.0)), 1.0)
        with pytest.raises(NonComposableError):
            compose(a2, a1, v, OPTS)

    def test_unit_shape(self):
        line, _ = line_setup()
        u = unit(line.point((4.0, 0.0)))
        assert u.point.coords == (4.0, 0.0) and u.t == 0.0

    def test_inverse_anchors_negated_time_at_target(self):
        line, v = line_setup()
        a = Arrow(line.point((1.0, 0.0)), 2.0)
        inv = inverse(a, v, OPTS)
        assert np.allclose(inv.point.coords, (3.0, 0.0), atol=1e-9)
        assert inv.t == -2.0
        back = compose(inv, a, v, OPTS)
        assert back.t == 0.0 and back.point.coords == (1.0, 0.0)

    def test_inverse_of_unit_is_unit(self):
        line, v = line_setup()
        u = unit(line.point((2.0, 0.0)))
        assert inverse(u, v, OPTS) == u


class TestAxioms:
    def test_numeric_flow_passes(self):
        line, v = line_setup()
        arrows = sample_arrows(line, 100, seed=0, box=LINE_BOX)
        report = check_axioms(v, arrows, tol=1e-6, opts=OPTS)
        assert report.passed
        assert max(report.residuals.values()) <= 1e-6

    def test_closed_form_flow_much_tighter(self):
        line, v = line_setup()
        arrows = sample_arrows(line, 100, seed=0, box=LINE_BOX)
        phi = closed_form_flow(line, PSI)
        report = check_axioms(v, arrows, tol=1e-12, opts=OPTS, flow=phi)
        assert report.passed

    def test_unit_arrows_have_zero_residuals(self):
        line, v = line_setup()
        arrows = [unit(line.point((float(k), 0.0))) for k in range(-2, 3)]
        report = check_axioms(v, arrows, tol=1e-12, opts=OPTS)
        assert report.passed
        assert max(report.residuals.values()) == 0.0

    def test_fault_injected_flow_fails_flow_law(self):
        line, v = line_setup()
        arrows = sample_arrows(line, 40, seed=1, box=LINE_BOX)
        bad_psi = (
            parse_expr("x + t + t^2/100", XYT),
            parse_expr("y*exp(t)", XYT),
        )
        bad_phi = closed_form_flow(line, bad_psi)
        report = check_axioms(v, arrows, tol=1e-6, opts=OPTS, flow=bad_phi)
        assert not report.passed
        assert report.residuals["flow_law"] > 1e-6

    def test_incomplete_field_refused(self):
        sq = square()
        arrows = sample_arrows(sq, 10, seed=0, box=((-2, 2), (-2, 2)), resolution=9)
        with pytest.raises(IncompleteFieldError):
            check_axioms(rotation_field(sq), arrows, opts=OPTS)

    def test_each_base_point_integrated_once(self, monkeypatch):
        line, v = line_setup()
        arrows = sample_arrows(line, 12, seed=3, box=LINE_BOX)
        log = count_integrations(monkeypatch)
        assert check_axioms(v, arrows, opts=OPTS).passed
        calls = Counter(log.points)
        assert max(calls.values()) == 1
        assert {a.point.coords for a in arrows} <= set(calls)
        # three batches: the sources to the horizon, then their targets and
        # the targets' targets only as far as the sweep reads them
        assert len(log.batches) == 3
        assert log.reaches == [None] + 2 * [max(abs(a.t) for a in arrows)]
        # a MemoFlow passed in keeps the gate's curves for the caller
        memo = MemoFlow(v, OPTS)
        check_axioms(v, arrows, opts=OPTS, flow=memo)
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
        # wave).  The sweep reads q12 of arrow 0 first, so its error is the
        # one raised.
        line = thickened_line()
        fenced = SmoothExpr(
            "div", XY, (const(1, XY), const(1, XY)), guard=((-6.5, 6.5), (-10.0, 10.0))
        )
        v = LiftedField((fenced, parse_expr("y", XY)), line)
        opts = IntegratorOptions(horizon=5.0)
        origin = line.point((0.0, 0.0))
        arrows = [Arrow(origin, 1.0), Arrow(origin, 3.0), Arrow(origin, 0.5)]
        with pytest.raises(GuardViolation) as swept:
            check_axioms(v, arrows, opts=opts)
        memo = MemoFlow(v, opts)
        q12 = memo(memo((0.0, 0.0), 1.0), 3.0)
        assert abs(q12[0] - 4.0) <= 1e-9
        with pytest.raises(GuardViolation) as alone:
            integrate_max_curve(v, SchemePoint(tuple(float(c) for c in q12)), opts)
        assert str(swept.value) == str(alone.value)
        # and the second-wave failure alone is a different error
        with pytest.raises(GuardViolation) as other:
            memo.curve(tuple(float(c) for c in memo((0.0, 0.0), 3.0)))
        assert str(other.value) != str(swept.value)

    def test_reused_memo_serves_full_curves_to_the_gate(self, monkeypatch):
        # the second call's sources are the first call's targets, which the
        # first sweep integrated only to the arrows' reach
        line, v = line_setup()
        arrows = sample_arrows(line, 6, seed=5, box=LINE_BOX)
        memo = MemoFlow(v, OPTS)
        log = count_integrations(monkeypatch)
        assert check_axioms(v, arrows, opts=OPTS, flow=memo).passed
        targets = [Arrow(inverse(a, v, OPTS, flow=memo).point, a.t) for a in arrows]
        keys = {a.point.coords for a in targets}
        assert keys <= set(log.batches[1]) and log.reaches[1] == max(abs(a.t) for a in arrows)
        gated = []
        real = gp.MemoFlow.curve

        def recording(self, coords):
            gated.append(real(self, coords))
            return gated[-1]

        monkeypatch.setattr(gp.MemoFlow, "curve", recording)
        first = len(log.batches)
        assert check_axioms(v, targets, opts=OPTS, flow=memo).passed
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
