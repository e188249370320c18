import math
from dataclasses import replace

import numpy as np
import pytest

from schemeflow.cring import sample_zero_set
from schemeflow.curves import CurveClass, IntegratorOptions, integrate_max_curve, evaluate_curve
from schemeflow.expr import GuardViolation, evaluate, parse_expr
from schemeflow.flow import (
    MemoFlow,
    _probe_residuals,
    closed_form_flow,
    domain_to_csv,
    flow_domain,
    flow_eval,
    flow_ideal,
    scale_row_bounds,
    t_convexity_check,
    validate_closed_form,
)

from helpers import (
    XY,
    circle,
    count_integrations,
    forbid_evaluate,
    rotation_field,
    shear_field,
    square,
    thickened_line,
)

OPTS = IntegratorOptions(horizon=20.0)
XYT = XY.extended("t")


def line_domain(resolution=25):
    line = thickened_line()
    grid = sample_zero_set(line, ((-3, 3), (-1, 1)), resolution)
    return line, shear_field(line), flow_domain(shear_field(line), grid, OPTS)


def square_domain():
    sq = square()
    grid = [sq.point(c) for c in [
        (0.0, 0.0), (0.5, 0.5), (-0.5, 0.5), (0.9, 0.9), (1.0, 1.0),
        (0.3, -0.8), (-0.9, -0.9), (0.0, 0.99),
    ]]
    return sq, rotation_field(sq), flow_domain(rotation_field(sq), grid, OPTS)


class TestFlowDomain:
    def test_line_rows_all_horizon_complete(self):
        _, _, W = line_domain()
        assert len(W.rows) == 25
        assert W.all_horizon_complete
        assert all((p.point.coords, p.interval.lo, p.interval.hi) == (p.point.coords, -20.0, 20.0) for p in W.rows)

    def test_square_rows_mixed(self):
        _, _, W = square_domain()
        classes = {
            row.point.coords: row.classification for row in W.rows
        }
        assert classes[(1.0, 1.0)] == CurveClass.SINGLETON
        assert classes[(0.9, 0.9)] == CurveClass.CLOSED
        assert classes[(0.0, 0.0)] == CurveClass.HORIZON_COMPLETE
        assert not W.all_horizon_complete

    def test_empty_grid(self):
        line = thickened_line()
        W = flow_domain(shear_field(line), [], OPTS)
        assert W.rows == ()

    def test_unit_section_inside(self):
        _, _, W = square_domain()
        for row in W.rows:
            assert row.interval.contains(0.0)

    def test_csv_format(self):
        _, _, W = square_domain()
        lines = domain_to_csv(W).strip().splitlines()
        assert lines[0] == "x1,x2,Kp_lo,Kp_hi,lo_closed,hi_closed,class"
        assert len(lines) == 1 + len(W.rows)
        assert domain_to_csv(W) == domain_to_csv(W)


class TestFlowEval:
    def test_translation(self):
        line = thickened_line()
        out = flow_eval(shear_field(line), line.point((1.0, 0.0)), 2.0, OPTS)
        assert np.allclose(out, [3.0, 0.0], atol=1e-9)

    def test_time_zero_identity(self):
        sq = square()
        p = sq.point((0.9, 0.9))
        assert tuple(flow_eval(rotation_field(sq), p, 0.0, OPTS)) == (0.9, 0.9)

    def test_outside_interval_errors(self):
        from schemeflow.curves import OutsideDefinitionInterval

        sq = square()
        with pytest.raises(OutsideDefinitionInterval):
            flow_eval(rotation_field(sq), sq.point((1.0, 1.0)), 0.5, OPTS)

    def test_bit_identical_to_curve_evaluation(self):
        line = thickened_line()
        p = line.point((1.0, 0.0))
        c = integrate_max_curve(shear_field(line), p, OPTS)
        for t in (-3.0, 0.25, 7.5):
            a = flow_eval(shear_field(line), p, t, OPTS)
            b = evaluate_curve(c, t)
            assert a.tobytes() == b.tobytes()


class TestTConvexity:
    def test_line_domain_clean(self):
        _, _, W = line_domain()
        report = t_convexity_check(W)
        assert report.ok and report.checks > 0

    def test_square_domain_clean(self):
        _, _, W = square_domain()
        report = t_convexity_check(W)
        assert report.ok

    def test_fault_injection_detected(self):
        _, _, W = square_domain()
        bad = scale_row_bounds(W, 3, 1.1)  # inflate the (0.9, 0.9) chord row
        report = t_convexity_check(bad)
        assert not report.ok
        assert any(v.point.coords == (0.9, 0.9) for v in report.violations)

    def test_recorded_residuals_read_without_integration(self, monkeypatch):
        _, _, W = square_domain()
        for row in W.rows:
            # only the probe times are kept, not the curve
            endpoints = {row.interval.lo, row.interval.hi} - {0.0}
            probes = {a * e for e in endpoints for a in np.linspace(0.0, 1.0, 11)}
            assert row.residuals.keys() == probes
        log = count_integrations(monkeypatch)
        assert t_convexity_check(W).ok
        assert log.points == []

    def test_recorded_residuals_are_those_of_each_state(self):
        # the probe states go through the residual in one call; each value
        # is, bit for bit, the residual of its state alone
        circ = circle()
        v = rotation_field(circ)
        opts = IntegratorOptions(horizon=5.0)
        W = flow_domain(v, [circ.point(p) for p in ((1.0, 0.0), (0.6, 0.8))], opts)
        residual = circ.residual_fn()
        for row in W.rows:
            c = integrate_max_curve(v, row.point, opts)
            assert any(r > 0.0 for r in row.residuals.values())
            for t, r in row.residuals.items():
                assert r == residual(evaluate_curve(c, t))

    def test_probe_residual_error_leaves_the_times_to_the_check(self):
        sq = square()
        c = integrate_max_curve(rotation_field(sq), sq.point((0.9, 0.9)), OPTS)

        def raising(states):
            raise GuardViolation("outside a guard box")

        assert _probe_residuals(c, raising) == {}
        assert len(_probe_residuals(c, sq.residual_fn())) == 21

    def test_rows_without_residuals_integrate_again(self, monkeypatch):
        _, _, W = square_domain()
        bare = replace(W, rows=tuple(replace(r, residuals={}) for r in W.rows))
        log = count_integrations(monkeypatch)
        assert t_convexity_check(bare) == t_convexity_check(W)
        non_singleton = [r for r in W.rows if {r.interval.lo, r.interval.hi} - {0.0}]
        assert len(log.points) == len(non_singleton)
        assert len(log.batches) == 1
        # and the fault is found the same way
        report = t_convexity_check(scale_row_bounds(bare, 3, 1.1))
        assert any(v.point.coords == (0.9, 0.9) for v in report.violations)

    def test_rows_integrate_again_with_the_domain_options(self, monkeypatch):
        sq = square()
        opts = IntegratorOptions(rel_tol=1e-6, abs_tol=1e-8, horizon=5.0)
        grid = [sq.point(c) for c in [(0.0, 0.0), (0.5, 0.5), (0.9, 0.9)]]
        W = flow_domain(rotation_field(sq), grid, opts)
        assert W.opts == opts
        bare = replace(W, rows=tuple(replace(r, residuals={}) for r in W.rows))
        log = count_integrations(monkeypatch)
        assert t_convexity_check(bare) == t_convexity_check(W)
        assert log.options == [opts]


class TestClosedForm:
    PSI = (parse_expr("x + t", XYT), parse_expr("y*exp(t)", XYT))

    def test_validate_against_numeric_flow(self):
        _, field, W = line_domain(9)
        pts = [row.point for row in W.rows]
        rep = validate_closed_form(
            MemoFlow(field, OPTS), self.PSI, pts, [-5.0, -1.0, 0.0, 2.0, 5.0]
        )
        assert rep.ok and rep.max_deviation <= 1e-6

    def test_flow_map_callable(self):
        line = thickened_line()
        phi = closed_form_flow(self.PSI)
        assert np.allclose(phi((1.0, 0.0), 2.0), [3.0, 0.0])
        assert np.allclose(phi((0.0, 2.0), 1.0), [1.0, 2.0 * math.e])

    def test_memo_curves_serve_validation(self, monkeypatch):
        # a flow that holds the points' curves integrates nothing; a fresh
        # one integrates every point in one batch, to the same report
        _, field, W = line_domain(9)
        pts = [row.point for row in W.rows]
        times = [-5.0, -1.0, 0.0, 2.0, 5.0]
        filled = MemoFlow(field, OPTS)
        filled.fill([p.coords for p in pts])
        log = count_integrations(monkeypatch)
        with_curves = validate_closed_form(filled, self.PSI, pts, times)
        assert log.points == []
        fresh = validate_closed_form(MemoFlow(field, OPTS), self.PSI, pts, times)
        assert len(log.points) == len(pts) and len(log.batches) == 1
        assert with_curves == fresh

    def test_broken_form_flagged(self):
        _, field, W = line_domain(9)
        bad = (parse_expr("x + t + t^2/10", XYT), parse_expr("y*exp(t)", XYT))
        rep = validate_closed_form(MemoFlow(field, OPTS), bad, [row.point for row in W.rows], [1.0, 3.0])
        assert not rep.ok


class TestFlowIdeal:
    def test_generators_with_closed_form(self):
        line, _, W = line_domain(9)
        psi = TestClosedForm.PSI
        fip = flow_ideal(line, psi, domain=W)
        assert [g for g in fip.pr_generators] == [parse_expr("y^2", XYT)]
        assert len(fip.psi_generators) == 1
        # pulled generator is e^{2t} y^2 pointwise
        g = fip.psi_generators[0]
        for p in [(0.0, 1.0, 0.0), (1.0, 0.5, 2.0), (-2.0, 1.5, -1.0)]:
            assert evaluate(g, p) == pytest.approx(
                math.exp(2 * p[2]) * p[1] ** 2, rel=1e-12
            )

    def test_zero_sets_of_both_generator_families_agree(self):
        # both y^2 and (y e^t)^2 vanish exactly on y = 0
        line, _, _ = line_domain(9)
        fip = flow_ideal(line, TestClosedForm.PSI)
        for x in np.linspace(-2, 2, 5):
            for y in np.linspace(-2, 2, 5):
                for t in np.linspace(-2, 2, 5):
                    pr_zero = all(
                        abs(evaluate(g, (x, y, t))) <= 1e-9 for g in fip.pr_generators
                    )
                    psi_zero = all(
                        abs(evaluate(g, (x, y, t))) <= 1e-9 for g in fip.psi_generators
                    )
                    assert pr_zero == psi_zero == (abs(y) <= 1e-9)

    def test_without_closed_form(self):
        line, _, W = line_domain(9)
        fip = flow_ideal(line, None, domain=W)
        assert fip.psi_generators == ()
        assert fip.psi is None

    def test_time_zero_identity_enforced(self):
        line, _, _ = line_domain(9)
        bad = (parse_expr("x + t^2 + 1", XYT), parse_expr("y", XYT))
        with pytest.raises(ValueError, match="t=0 identity"):
            flow_ideal(line, bad)

    def test_iprime_membership(self):
        line, _, W = line_domain(9)
        fip = flow_ideal(line, TestClosedForm.PSI, domain=W)
        # t*y vanishes on the sampled domain (y=0 there) and restricts to 0
        assert fip.iprime_member(parse_expr("t*y", XYT))
        # y^2 * t has zero restriction and vanishes on the domain
        assert fip.iprime_member(parse_expr("y^2*t", XYT))
        # x is nonzero on the domain
        assert not fip.iprime_member(parse_expr("x", XYT))
        # y vanishes on the domain sample but its restriction y is not in <y^2>
        assert not fip.iprime_member(parse_expr("y", XYT))

    def test_iprime_restriction_sampled_in_one_batch(self, monkeypatch):
        # a restriction to t = 0 that is not polynomial is checked on the
        # zero-set sample, in one batched call
        forbid_evaluate(monkeypatch)
        line, _, _ = line_domain(9)
        fip = flow_ideal(line, TestClosedForm.PSI)
        assert fip.iprime_member(parse_expr("y*exp(x) + t*x", XYT))
        assert not fip.iprime_member(parse_expr("exp(x) - 1 + t", XYT))

    def test_pullback_zero_set_is_preimage_of_zero_set(self):
        # sampled form of the pullback law for the closed-form flow map
        line, _, _ = line_domain(9)
        fip = flow_ideal(line, TestClosedForm.PSI)
        phi = closed_form_flow(TestClosedForm.PSI)
        line_residual = line.residual_fn()
        for x in np.linspace(-2, 2, 9):
            for y in np.linspace(-2, 2, 9):
                for t in np.linspace(-2, 2, 9):
                    pulled = all(
                        abs(evaluate(g, (x, y, t))) <= 1e-7
                        for g in fip.psi_generators
                    )
                    image_on_z = line_residual(tuple(phi((x, y), t))) <= 1e-7
                    assert pulled == image_on_z

    def test_unit_section_vanishing(self):
        line, _, W = line_domain(9)
        fip = flow_ideal(line, TestClosedForm.PSI, domain=W)
        for row in W.rows:
            args = tuple(row.point.coords) + (0.0,)
            for g in fip.generators():
                assert abs(evaluate(g, args)) <= line.eps_z
