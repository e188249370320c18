import functools
import math
import random

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeflow import curves as cv
from schemeflow import derivation as dv
from schemeflow.cring import PointNotOnScheme, SchemePoint, SchemePresentation
from schemeflow.curves import (
    CurveClass,
    IntegratorOptions,
    OutsideDefinitionInterval,
    classify_interval,
    curve_to_csv,
    StepLimitExceeded,
    evaluate_curve,
    integrate_max_curve,
    integrate_max_curves,
)
from schemeflow.derivation import LiftedField
from schemeflow.expr import GuardViolation, SmoothExpr, VarList, as_callable, const, parse_expr

from helpers import (
    XY,
    circle,
    curves_identical,
    expr_xy,
    first_steps,
    reference_locate,
    reference_integrate_max_curve,
    rotation_field,
    shear_field,
    square,
    square_exit_time,
    steps_identical,
    thickened_line,
)

OPTS = IntegratorOptions(horizon=20.0)


class TestTranslationOnLine:
    def test_runs_to_horizon_and_translates(self):
        line = thickened_line()
        v = shear_field(line)
        for x0 in (-3.0, 0.0, 2.0):
            c = integrate_max_curve(v, line.point((x0, 0.0)), OPTS)
            assert c.classification == CurveClass.HORIZON_COMPLETE
            for t in np.linspace(-10, 10, 41):
                state = evaluate_curve(c, t)
                assert abs(state[0] - (x0 + t)) <= 1e-7
                assert abs(state[1]) <= 1e-7

    def test_time_zero_is_exact(self):
        line = thickened_line()
        c = integrate_max_curve(shear_field(line), line.point((2.0, 0.0)), OPTS)
        assert tuple(evaluate_curve(c, 0.0)) == (2.0, 0.0)

    def test_evaluation_at_three(self):
        line = thickened_line()
        c = integrate_max_curve(shear_field(line), line.point((2.0, 0.0)), OPTS)
        state = evaluate_curve(c, 3.0)
        assert abs(state[0] - 5.0) <= 1e-8 and abs(state[1]) <= 1e-8

    def test_point_off_scheme_rejected(self):
        line = thickened_line()
        with pytest.raises(PointNotOnScheme):
            integrate_max_curve(shear_field(line), _raw_point(0.0, 0.5), OPTS)


class TestSquareRotation:
    def test_corner_is_singleton(self):
        sq = square()
        c = integrate_max_curve(rotation_field(sq), sq.point((1.0, 1.0)), OPTS)
        assert c.classification == CurveClass.SINGLETON
        assert c.interval.lo == 0.0 and c.interval.hi == 0.0

    def test_corner_evaluation_outside_errors(self):
        sq = square()
        c = integrate_max_curve(rotation_field(sq), sq.point((1.0, 1.0)), OPTS)
        assert tuple(evaluate_curve(c, 0.0)) == (1.0, 1.0)
        with pytest.raises(OutsideDefinitionInterval):
            evaluate_curve(c, 0.1)

    def test_chord_interval_matches_bisection_oracle(self):
        sq = square()
        c = integrate_max_curve(rotation_field(sq), sq.point((0.9, 0.9)), OPTS)
        t_exit = square_exit_time()
        assert c.classification == CurveClass.CLOSED
        assert abs(c.interval.hi - t_exit) <= 1e-5
        assert abs(c.interval.lo + t_exit) <= 1e-5
        assert c.interval.lo_closed and c.interval.hi_closed

    def test_interior_orbit_is_horizon_complete(self):
        sq = square()
        for p in ((0.5, 0.5), (0.0, 0.0), (-0.6, 0.3)):
            c = integrate_max_curve(rotation_field(sq), sq.point(p), OPTS)
            assert c.classification == CurveClass.HORIZON_COMPLETE

    def test_first_exit_rule_despite_reentry(self):
        # the exact rotation of (0.9, 0.9) leaves the square, then re-enters
        # it within the horizon; the interval must stop at the first exit
        sq = square()

        def rotated(t):
            x, y = 0.9, 0.9
            return (x * math.cos(t) - y * math.sin(t), x * math.sin(t) + y * math.cos(t))

        inside = [sq.residual_fn()(rotated(t)) <= sq.eps_z for t in (0.0, math.pi / 4, math.pi / 2)]
        assert inside == [True, False, True] and math.pi / 2 < OPTS.horizon
        c = integrate_max_curve(rotation_field(sq), sq.point((0.9, 0.9)), OPTS)
        assert c.interval.hi < 0.2


class TestSingletonRule:
    """A point is a singleton when both its lanes exit within probe_step of
    0.  The reference decides it independently, from states at
    +-probe_step, 2*probe_step and 4*probe_step of a step of its own; near
    the square's corners and edges both give the same curve, bit for bit."""

    OPTS = IntegratorOptions(horizon=5.0)
    CORNERS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))

    def _same_as_reference(self, x, y):
        sq = square()
        v, p = rotation_field(sq), sq.point((x, y))
        c = integrate_max_curve(v, p, self.OPTS)
        assert curves_identical(c, reference_integrate_max_curve(v, p, self.OPTS))
        return c

    @settings(max_examples=40, deadline=None)
    @given(
        corner=st.sampled_from(CORNERS),
        dx=st.floats(0.0, 1e-5),
        dy=st.floats(0.0, 1e-5),
    )
    def test_near_corners(self, corner, dx, dy):
        cx, cy = corner
        self._same_as_reference(cx * (1.0 - dx), cy * (1.0 - dy))

    @settings(max_examples=20, deadline=None)
    @given(
        axis=st.sampled_from((0, 1)),
        side=st.sampled_from((1.0, -1.0)),
        depth=st.floats(0.0, 1e-5),
        along=st.floats(-1.0, 1.0),
    )
    def test_near_edges(self, axis, side, depth, along):
        edge = side * (1.0 - depth)
        self._same_as_reference(*((edge, along) if axis == 0 else (along, edge)))

    def test_corner_distances_around_probe_step(self):
        # exits at about the corner distance d, so the sweep crosses
        # probe_step (1e-6) on every corner
        classes = set()
        for cx, cy in self.CORNERS:
            for d in np.logspace(-7.5, -5.0, 26).tolist():
                c = self._same_as_reference(cx * (1.0 - d), cy * (1.0 - d))
                classes.add((d < self.OPTS.probe_step, c.classification))
        assert classes == {(True, CurveClass.SINGLETON), (False, CurveClass.CLOSED)}


class TestCircleIdeal:
    def test_stays_on_circle_to_horizon(self):
        circ = circle()
        opts = IntegratorOptions(horizon=10.0)
        c = integrate_max_curve(rotation_field(circ), circ.point((1.0, 0.0)), opts)
        assert c.classification == CurveClass.HORIZON_COMPLETE

    def test_trajectory_matches_closed_form(self):
        circ = circle()
        opts = IntegratorOptions(horizon=10.0)
        c = integrate_max_curve(rotation_field(circ), circ.point((1.0, 0.0)), opts)
        worst = 0.0
        for t in np.linspace(-10, 10, 81):
            state = evaluate_curve(c, t)
            worst = max(
                worst,
                abs(state[0] - math.cos(t)),
                abs(state[1] - math.sin(t)),
            )
        assert worst <= 1e-7


class TestStructuralProperties:
    def test_dense_samples_pass_membership(self):
        fixtures = [
            (thickened_line(), shear_field(thickened_line())),
            (square(), rotation_field(square())),
        ]
        for scheme, field_ in fixtures:
            field_ = LiftedField(field_.coeffs, scheme)
            start = scheme.point((0.5, 0.0)) if scheme.ideal_gens else scheme.point((0.5, 0.5))
            c = integrate_max_curve(field_, start, OPTS)
            residual = scheme.residual_fn()
            lo, hi = c.interval.lo, c.interval.hi
            for t in np.linspace(lo, hi, 101):
                assert residual(evaluate_curve(c, t)) <= scheme.eps_z * 10

    def test_half_horizon_is_restriction(self):
        rng = random.Random(17)
        line = thickened_line()
        sq = square()
        fixtures = []
        for _ in range(10):
            fixtures.append((line, shear_field(line), (rng.uniform(-2, 2), 0.0)))
        for _ in range(10):
            r = rng.uniform(0, 0.95)
            a = rng.uniform(0, 2 * math.pi)
            fixtures.append(
                (sq, rotation_field(sq), (r * math.cos(a), r * math.sin(a)))
            )
        for scheme, field_, coords in fixtures:
            full = integrate_max_curve(field_, scheme.point(coords), IntegratorOptions(horizon=16.0))
            half = integrate_max_curve(field_, scheme.point(coords), IntegratorOptions(horizon=8.0))
            assert half.interval.lo >= full.interval.lo - 1e-12
            assert half.interval.hi <= full.interval.hi + 1e-12
            for t in np.linspace(half.interval.lo, half.interval.hi, 21):
                delta = np.abs(evaluate_curve(full, t) - evaluate_curve(half, t))
                assert float(np.max(delta)) <= 1e-8

    def test_representative_independence(self):
        # coefficients shifted by ideal multiples produce the same curve
        rng = random.Random(23)
        line = thickened_line()
        base = shear_field(line)
        for _ in range(5):
            q1 = _random_poly_src(rng)
            q2 = _random_poly_src(rng)
            shifted = LiftedField(
                (
                    parse_expr(f"1 + y^2*({q1})", XY),
                    parse_expr(f"y + y^2*({q2})", XY),
                ),
                line,
            )
            a = integrate_max_curve(base, line.point((1.0, 0.0)), OPTS)
            b = integrate_max_curve(shifted, line.point((1.0, 0.0)), OPTS)
            for t in np.linspace(-5, 5, 21):
                delta = np.abs(evaluate_curve(a, t) - evaluate_curve(b, t))
                assert float(np.max(delta)) <= 1e-6


class TestClassification:
    def test_singleton_tag(self):
        sq = square()
        c = integrate_max_curve(rotation_field(sq), sq.point((1.0, 1.0)), OPTS)
        assert classify_interval(c) == CurveClass.SINGLETON

    def test_closed_tag(self):
        sq = square()
        c = integrate_max_curve(rotation_field(sq), sq.point((0.9, 0.9)), OPTS)
        assert classify_interval(c) == CurveClass.CLOSED

    def test_horizon_tag(self):
        line = thickened_line()
        c = integrate_max_curve(shear_field(line), line.point((0.0, 0.0)), OPTS)
        assert classify_interval(c) == CurveClass.HORIZON_COMPLETE

    def test_half_open_tag_for_one_sided_exit(self):
        # translation on the half plane x <= 0 from (-1, 0): forward bound at
        # x = 0 is a genuine boundary, backward runs to the horizon
        from schemeflow.cring import SchemePresentation

        half = SchemePresentation(XY, region=(expr_xy("x"),))
        v = LiftedField.from_strings(["1", "0"], half)
        c = integrate_max_curve(v, half.point((-1.0, 0.0)), OPTS)
        assert c.interval.lo_at_horizon and not c.interval.hi_at_horizon
        assert abs(c.interval.hi - 1.0) <= 1e-6
        assert classify_interval(c) == CurveClass.HALF_OPEN


class TestBlowup:
    def test_finite_time_escape_gives_open_end(self):
        # dx/dt = 1 + x^2 blows up at t = pi/2 - arctan(x0); membership never
        # fails (whole plane), existence does
        from schemeflow.cring import SchemePresentation

        plane = SchemePresentation(XY, region=(expr_xy("0 - 1"),))  # always true
        v = LiftedField.from_strings(["1 + x^2", "0"], plane)
        c = integrate_max_curve(v, plane.point((0.0, 0.0)), IntegratorOptions(horizon=5.0))
        assert not c.interval.hi_at_horizon
        assert not c.interval.hi_closed
        assert abs(c.interval.hi - math.pi / 2) <= 1e-3
        assert classify_interval(c) in (CurveClass.OPEN, CurveClass.HALF_OPEN)


class TestIntegratorInternals:
    def test_dense_output_weights_consistent_with_step(self):
        # the interpolant at the far end of a step reproduces the step's new
        # state, and at its start the old one
        rhs = dv.lift(LiftedField.from_strings(["exp(y)/(1 + x^2) - y", "sin(x)*y^3 + x"], square()))
        y = np.array([[0.3, -0.4], [1.0, 0.5], [-0.7, 0.2]])
        h = np.array([0.3, -0.2, 0.05])
        y_new, K, _, _ = cv._attempt(rhs, y, h, rhs(y.T).T)
        c = cv._dense_coeffs(rhs, y, h, K)
        for j in range(len(y)):
            at = cv._dense(y[j][:, None], h[j], c[j].T[..., None], np.array([0.0, 1.0]))
            assert at[:, 0].tobytes() == y[j].tobytes()
            assert np.max(np.abs(at[:, 1] - y_new[j])) <= 4e-16 * np.max(np.abs(y_new[j]))

    def test_dense_output_accuracy_within_steps(self):
        # against the closed-form circle trajectory, sampled far from step
        # endpoints
        circ = circle()
        c = integrate_max_curve(
            rotation_field(circ), circ.point((1.0, 0.0)), IntegratorOptions(horizon=6.0)
        )
        rng = np.random.default_rng(99)
        for t in rng.uniform(-6.0, 6.0, size=200):
            state = evaluate_curve(c, float(t))
            assert abs(state[0] - math.cos(t)) <= 1e-8
            assert abs(state[1] - math.sin(t)) <= 1e-8

    def test_curve_samples_pass_membership_on_circle(self):
        circ = circle()
        c = integrate_max_curve(
            rotation_field(circ), circ.point((1.0, 0.0)), IntegratorOptions(horizon=10.0)
        )
        residual = circ.residual_fn()
        for t in np.linspace(c.interval.lo, c.interval.hi, 201):
            assert residual(evaluate_curve(c, t)) <= circ.eps_z * 10


def _transcendental_rhs():
    """The field of ``test_transcendental_field_on_a_disc``, compiled, and
    the same field on Python floats for scipy."""
    disc = SchemePresentation(XY, region=(expr_xy("x^2 + y^2 - 4"),))
    v = LiftedField.from_strings(["exp(y)/(1 + x^2) - y", "sin(x)*y^3 + x"], disc)

    def fun(t, p):
        x, y = p
        return np.array([math.exp(y) / (1 + x * x) - y, math.sin(x) * y**3 + x])

    return dv.lift(v), fun


class TestDop853:
    """The tableau, one attempt, its error norm and its dense output against
    scipy's DOP853, another implementation of the same method."""

    def test_tableau_matches_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert np.max(np.abs(cv._A - ref.A)) <= 1e-16
        assert np.max(np.abs(cv._B - ref.B)) <= 1e-16
        assert np.max(np.abs(cv._E5 - ref.E5[:12])) <= 1e-16 and ref.E5[12] == 0.0
        assert np.max(np.abs(cv._E3 - ref.E3[:12])) <= 1e-16 and ref.E3[12] == 0.0
        assert np.max(np.abs(cv._D - ref.D)) <= 1e-16
        # each stage's node is its row sum (the field is autonomous, so the
        # nodes are not stored)
        assert np.max(np.abs(cv._A.sum(axis=1) - ref.C)) <= 1e-15

    def test_attempt_and_error_norm_match_scipy(self):
        from scipy.integrate._ivp.rk import DOP853, rk_step

        rhs, fun = _transcendental_rhs()
        opts = IntegratorOptions()
        for y0, h in (((0.3, -0.4), 0.2), ((1.0, 0.5), -0.35), ((-0.7, 0.2), 0.05)):
            y0 = np.array(y0)
            K_ref = np.empty((DOP853.n_stages + 1, 2))
            y_ref, _ = rk_step(fun, 0.0, y0, fun(0.0, y0), h, DOP853.A, DOP853.B, DOP853.C, K_ref)
            y_new, K, e5, e3 = cv._attempt(rhs, y0[None], np.array([h]), rhs(y0)[None])
            assert np.max(np.abs(y_new[0] - y_ref)) <= 1e-15
            assert np.max(np.abs(K[0, :13] - K_ref)) <= 1e-14 * np.max(np.abs(K_ref))
            # the norm of the same stages: the estimate cancels, so the
            # field's own rounding would show in it
            solver = DOP853(fun, 0.0, y0, 1.0, rtol=opts.rel_tol, atol=opts.abs_tol)
            scale = opts.abs_tol + np.maximum(np.abs(y0), np.abs(y_new[0])) * opts.rel_tol
            norm_ref = solver._estimate_error_norm(K[0, :13], h, scale)
            norm = cv._error_norms(np.array([h]), y0[None], y_new, e5, e3, opts)[0]
            assert abs(norm - norm_ref) <= 1e-14 * norm_ref

    def test_dense_output_matches_scipy(self):
        from scipy.integrate._ivp.rk import DOP853

        rhs, fun = _transcendental_rhs()
        y0, h = np.array([0.3, -0.4]), 0.25
        solver = DOP853(fun, 0.0, y0, h, first_step=h, rtol=1e-3, atol=1e-6)
        solver.step()
        assert solver.t == h  # one accepted step of the requested size
        _, K, _, _ = cv._attempt(rhs, y0[None], np.array([h]), rhs(y0)[None])
        c = cv._dense_coeffs(rhs, y0[None], np.array([h]), K)[0]
        u = np.linspace(0.0, 1.0, 41)
        got = cv._dense(y0[:, None], h, c.T[..., None], u)
        assert np.max(np.abs(got - solver.dense_output()(u * h))) <= 1e-15

    def test_order_eight_on_rotation(self):
        # fixed steps over [0, 1] from (1, 0): halving h cuts the error by
        # at least 2^7 (the method's order is 8)
        rhs = dv.lift(rotation_field(square()))
        errors = []
        for steps in (2, 4, 8):
            y, h = np.array([[1.0, 0.0]]), np.array([1.0 / steps])
            k1 = rhs(y.T).T
            for _ in range(steps):
                y, K, _, _ = cv._attempt(rhs, y, h, k1)
                k1 = K[:, 12]
            errors.append(np.max(np.abs(y[0] - [math.cos(1.0), math.sin(1.0)])))
        assert errors[0] < 1e-6
        assert errors[0] / errors[1] >= 2**7 and errors[1] / errors[2] >= 2**7


class TestWorkAndScan:
    """What the high-order pair buys, and what the scan keeps."""

    def _rotation(self):
        sq = square()
        return integrate_max_curve(rotation_field(sq), sq.point((0.5, 0.1)), OPTS)

    def test_few_steps_on_the_rotation(self):
        c = self._rotation()
        assert c.classification == CurveClass.HORIZON_COMPLETE
        for side in ("forward", "backward"):
            assert c.diagnostics[side]["accepted"] <= 80

    def test_scan_spacing_in_time(self):
        c = self._rotation()
        for side in ("forward", "backward"):
            assert c.diagnostics[side]["max_h"] / cv.CHECKPOINTS_PER_STEP <= 2.4e-3

    def test_short_excursion_found(self):
        # from radius 1 + 1e-6 at angle pi/4 the orbit leaves the square for
        # about 2.8e-3 time units near t = +-0.784; the scan must see it
        sq = square()
        r = 1.0 + 1e-6
        c = integrate_max_curve(
            rotation_field(sq), sq.point((r * math.cos(math.pi / 4), r * math.sin(math.pi / 4))), OPTS
        )
        # the first time y^2 - 1 (forward) or x^2 - 1 (backward) reaches eps_z
        exact = math.asin(math.sqrt(1.0 + sq.eps_z) / r) - math.pi / 4
        assert c.classification == CurveClass.CLOSED
        assert abs(c.interval.hi - exact) <= 1e-6 and abs(c.interval.lo + exact) <= 1e-6


def _circle_point(theta):
    return (math.cos(theta), math.sin(theta))


def _sphere_point(theta, z):
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(theta), r * math.sin(theta), z)


def _assert_exits_closed(c):
    """Every end that is a membership exit is closed, and the curve's state
    at the bound passes membership."""
    residual = c.scheme.residual_fn()
    rec = c.interval
    for side, bound, closed in (("forward", rec.hi, rec.hi_closed), ("backward", rec.lo, rec.lo_closed)):
        if c.diagnostics[side]["end"] == "exit":
            assert closed
            assert residual(evaluate_curve(c, bound)) <= c.scheme.eps_z


class TestMembershipExitsClosed:
    """A membership exit's bound is the last time whose state passed."""

    LONG = IntegratorOptions(horizon=1000.0)

    def test_circle_at_tight_eps(self):
        circ = circle(eps_z=1e-11)
        c = integrate_max_curve(rotation_field(circ), circ.point((1.0, 0.0)), self.LONG)
        assert {d["end"] for d in c.diagnostics.values()} == {"exit"}
        _assert_exits_closed(c)

    def test_sphere_about_z(self):
        scheme, v = _sphere()
        c = integrate_max_curve(v, scheme.point((0.6, 0.0, 0.8)), self.LONG)
        _assert_exits_closed(c)

    def test_square_exits(self):
        sq = square()
        for p in ((0.9, 0.9), (1.0, -0.2), (-0.95, 0.6)):
            c = integrate_max_curve(rotation_field(sq), sq.point(p), OPTS)
            assert c.classification == CurveClass.CLOSED
            _assert_exits_closed(c)

    @settings(max_examples=12, deadline=None)
    @given(
        eps_z=st.sampled_from([1e-9, 1e-10, 1e-11]),
        theta=st.floats(0.0, 2 * math.pi),
        z=st.one_of(st.none(), st.floats(-0.95, 0.95)),
    )
    def test_exits_closed_on_circle_and_sphere(self, eps_z, theta, z):
        if z is None:
            scheme = circle(eps_z=eps_z)
            v, coords = rotation_field(scheme), _circle_point(theta)
        else:
            scheme = SchemePresentation(
                XYZ, ideal_gens=(parse_expr("x^2 + y^2 + z^2 - 1", XYZ),), eps_z=eps_z
            )
            v = LiftedField.from_strings(["-y", "x", "0"], scheme)
            coords = _sphere_point(theta, z)
        c = integrate_max_curve(v, scheme.point(coords), IntegratorOptions(horizon=400.0))
        _assert_exits_closed(c)


def _linear_scan_eval(curve, t):
    """Step lookup by scanning every step, as a reference for the
    ``searchsorted`` lookup in evaluate_curve."""
    if t == 0.0 or curve.interval.is_singleton:
        return np.array(curve.base.coords, dtype=float)
    steps = curve.forward if t > 0 else curve.backward
    t = min(max(t, curve.interval.lo), curve.interval.hi)
    for i in range(len(steps)):
        t0, h = steps.t0[i], steps.h[i]
        if min(t0, t0 + h) <= t <= max(t0, t0 + h) or i == len(steps) - 1:
            return cv._dense(steps.y0[i], h, steps.coeffs[i].T, (t - t0) / h)


def _lookup_times(c) -> list:
    """Interval ends, +-1e-300, every step's ends and midpoint and a
    uniform grid, all inside the curve's interval."""
    times = [c.interval.lo, c.interval.hi, 1e-300, -1e-300]
    for s in (c.forward, c.backward):
        times += s.t0.tolist() + (s.t0 + s.h).tolist() + (s.t0 + 0.5 * s.h).tolist()
    times += np.linspace(c.interval.lo, c.interval.hi, 101).tolist()
    return [t for t in times if c.interval.contains(t)]


def _square_curve(start):
    sq = square()
    return integrate_max_curve(rotation_field(sq), sq.point(start), OPTS)


class TestSegmentLookup:
    @pytest.mark.parametrize("start", [(0.9, 0.9), (0.0, 0.5), (1.0, 0.0)])
    def test_bisection_matches_linear_scan_bit_for_bit(self, start):
        c = _square_curve(start)
        for t in _lookup_times(c):
            assert evaluate_curve(c, t).tobytes() == _linear_scan_eval(c, t).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        start=st.sampled_from([(0.9, 0.9), (0.0, 0.5), (1.0, 0.0), (1.0, 1.0), (0.3, -0.7)]),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
        extra=st.lists(st.floats(-25.0, 25.0), max_size=10),
    )
    def test_array_column_is_the_time_alone(self, start, picks, extra):
        # any mix of times, boundaries and +-1e-300 among them: each column
        # of the array call is the scalar call, bit for bit
        c = _square_curve(start)
        pool = _lookup_times(c)
        times = [pool[k % len(pool)] for k in picks]
        times += [t for t in extra if c.defined_at(t)]
        states = evaluate_curve(c, np.array(times))
        assert states.shape == (2, len(times))
        for j, t in enumerate(times):
            assert states[:, j].tobytes() == evaluate_curve(c, t).tobytes()

    def test_array_outside_the_interval_raises(self):
        c = _square_curve((0.9, 0.9))
        with pytest.raises(OutsideDefinitionInterval):
            evaluate_curve(c, np.array([0.0, c.interval.hi + 1.0]))


class TestCheckpointStates:
    """Every state a round's membership scan reads is the curve at its time
    t0 + theta*h, bit for bit, and the scan reads the checkpoints of exactly
    the accepted steps that the screen did not clear."""

    def _scanned_and_expected(self, monkeypatch, scheme, point):
        scanned, cleared = [], set()
        real_fn, real_clears = SchemePresentation.residual_fn, cv._Screen.clears

        def recording_residual_fn(s):
            f = real_fn(s)

            def recording(p):
                if isinstance(p, np.ndarray) and p.ndim == 2:
                    scanned.extend(map(bytes, p.T.copy()))
                return f(p)

            return recording

        def recording_clears(screen, t, y, h, coeffs):
            out = real_clears(screen, t, y, h, coeffs)
            cleared.update(zip(t[out].tolist(), h[out].tolist()))
            return out

        monkeypatch.setattr(SchemePresentation, "residual_fn", recording_residual_fn)
        monkeypatch.setattr(cv._Screen, "clears", recording_clears)
        c = integrate_max_curve(rotation_field(scheme), scheme.point(point), OPTS)
        assert c.classification == CurveClass.HORIZON_COMPLETE
        m = cv.CHECKPOINTS_PER_STEP
        thetas = np.arange(1, m + 1) / m
        # the base point's own check is the run's first residual call
        expected = [bytes(np.array(point, dtype=float))]
        steps = 0
        for s in (c.forward, c.backward):
            for t0, h in zip(s.t0.tolist(), s.h.tolist()):
                if (t0, h) not in cleared:
                    steps += 1
                    expected.extend(map(bytes, evaluate_curve(c, t0 + thetas * h).T.copy()))
        screened = sum(d["screened"] for d in c.diagnostics.values())
        assert screened == len(cleared)
        assert steps == len(c.forward) + len(c.backward) - screened
        assert sorted(scanned) == sorted(expected)
        return steps, screened

    def test_scanned_steps_on_the_square(self, monkeypatch):
        # the unit circle touches the square's edges, so the steps near the
        # four contact points are scanned and the others cleared
        steps, screened = self._scanned_and_expected(monkeypatch, square(), (1.0, 0.0))
        assert steps > 2 and screened > 2

    def test_every_step_scanned_with_a_transcendental_region(self, monkeypatch):
        # cos(x) - 2 <= 0 holds everywhere but is not a polynomial, so no
        # step is screened
        region = square().region + (expr_xy("cos(x) - 2"),)
        scheme = SchemePresentation(XY, region=region)
        steps, screened = self._scanned_and_expected(monkeypatch, scheme, (0.5, 0.1))
        assert screened == 0 and steps > 2


def _exit_step_checkpoints(c):
    """The (n, m) checkpoint states of the last forward step, m the default
    checkpoints per step."""
    f, m = c.forward, cv.CHECKPOINTS_PER_STEP
    return cv._dense(f.y0[-1][:, None], f.h[-1], f.coeffs[-1].T[..., None], np.arange(1, m + 1) / m)


class TestBatchedScan:
    OPTS = IntegratorOptions(horizon=5.0)

    def _scheme(self, guard_hi: float) -> SchemePresentation:
        # x <= 1, plus a constraint that is always satisfied but only
        # defined for x <= guard_hi
        fenced = SmoothExpr(
            "div", XY, (const(-1, XY), const(1, XY)),
            guard=((-100.0, guard_hi), (-1.0, 1.0)),
        )
        return SchemePresentation(XY, region=(expr_xy("x - 1"), fenced))

    def test_later_guard_does_not_preempt_membership_exit(self):
        sq = self._scheme(guard_hi=1.12)
        v = LiftedField.from_strings(["1", "0"], sq)
        c = integrate_max_curve(v, sq.point((0.0, 0.0)), self.OPTS)
        assert abs(c.interval.hi - 1.0) <= 1e-8 and c.interval.hi_closed
        assert c.interval.lo_at_horizon
        # the exit step's checkpoints reach past the guard, so its batch
        # raised and the step was rescanned point by point
        states = _exit_step_checkpoints(c)
        assert states[0, -1] > 1.12
        with pytest.raises(GuardViolation):
            sq.residual_fn()(states)

    def test_later_overflow_does_not_preempt_membership_exit(self):
        # x <= 1, plus a constraint that always holds but whose power
        # overflows once x passes about 1.123
        blowup = expr_xy("0 - (1 + cut(x - 1.12)*10^300)^2")
        sq = SchemePresentation(XY, region=(expr_xy("x - 1"), blowup))
        v = LiftedField.from_strings(["1", "0"], sq)
        c = integrate_max_curve(v, sq.point((0.0, 0.0)), self.OPTS)
        assert abs(c.interval.hi - 1.0) <= 1e-8 and c.interval.hi_closed
        states = _exit_step_checkpoints(c)
        # the last checkpoint's constraint overflows to -inf, which holds;
        # x <= 1 fails there
        with np.errstate(all="raise"):
            assert as_callable(blowup)(states)[-1] == -np.inf
            assert sq.residual_fn()(states)[-1] == states[0, -1] - 1.0 > 0.0
        # an overflow before the exit neither raises nor ends the curve
        early = SchemePresentation(
            XY, region=(expr_xy("x - 1"), expr_xy("0 - (1 + cut(x - 0.5)*10^300)^2"))
        )
        v = LiftedField.from_strings(["1", "0"], early)
        c = integrate_max_curve(v, early.point((0.0, 0.0)), self.OPTS)
        assert abs(c.interval.hi - 1.0) <= 1e-8 and c.interval.hi_closed

    def test_guard_before_any_exit_still_raises(self):
        sq = self._scheme(guard_hi=0.5)
        v = LiftedField.from_strings(["1", "0"], sq)
        with pytest.raises(GuardViolation):
            integrate_max_curve(v, sq.point((0.0, 0.0)), self.OPTS)

    def test_one_residual_call_per_step_away_from_exits(self, monkeypatch):
        line = thickened_line()
        calls = [0]
        real = SchemePresentation.residual_fn

        def counting_residual_fn(scheme):
            f = real(scheme)

            def counted(p):
                calls[0] += 1
                return f(p)

            return counted

        monkeypatch.setattr(SchemePresentation, "residual_fn", counting_residual_fn)
        c = integrate_max_curve(shear_field(line), line.point((0.0, 0.0)), OPTS)
        assert c.classification == CurveClass.HORIZON_COMPLETE
        steps = len(c.forward) + len(c.backward)
        assert calls[0] <= steps + 1  # the base point, then one call per step


class TestCsvExport:
    def test_header_and_rows(self):
        line = thickened_line()
        c = integrate_max_curve(shear_field(line), line.point((2.0, 0.0)), OPTS)
        text = curve_to_csv(c, samples=11)
        lines = text.strip().splitlines()
        assert lines[1] == "t,x1,x2,residual"
        assert len(lines) == 2 + 11

    def test_singleton_row(self):
        sq = square()
        c = integrate_max_curve(rotation_field(sq), sq.point((1.0, 1.0)), OPTS)
        lines = curve_to_csv(c).strip().splitlines()
        assert "singleton" in lines[0]
        assert len(lines) == 3
        assert lines[2].startswith("0,1,1,")

    def test_deterministic(self):
        line = thickened_line()
        c = integrate_max_curve(shear_field(line), line.point((2.0, 0.0)), OPTS)
        assert curve_to_csv(c) == curve_to_csv(c)



XYZ = VarList(("x", "y", "z"))
SQUARE_POINTS = [
    (1.0, 1.0),  # singleton
    (0.9, 0.9),  # closed: exits both ways
    (1.0, -0.2),  # closed, on an edge
    (0.5, 0.1),  # horizon-complete
    (-0.3, -0.2),
    (0.0, 0.0),  # a zero of the field
    (-0.95, 0.6),
]


def _sphere():
    scheme = SchemePresentation(XYZ, ideal_gens=(parse_expr("x^2 + y^2 + z^2 - 1", XYZ),))
    return scheme, LiftedField.from_strings(["-y", "x", "0"], scheme)


def _fenced(lo: float, hi: float, value: int = 1) -> SmoothExpr:
    """``value``, defined only for x in [lo, hi]: a field coefficient or
    constraint that raises GuardViolation outside that strip."""
    return SmoothExpr(
        "div", XY, (const(value, XY), const(1, XY)), guard=((lo, hi), (-10.0, 10.0))
    )


def _batch(field_, points, opts):
    out = dict(integrate_max_curves(field_, points, opts))
    assert sorted(out) == list(range(len(points)))
    return [out[i] for i in range(len(points))]


def _outcome(field_, point, opts):
    try:
        return integrate_max_curve(field_, point, opts)
    except Exception as err:
        return err


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return curves_identical(a, b)


class TestLockstepMatchesPerCurve:
    """Bit for bit against the per-curve step loop (tests/helpers.py)."""

    def test_square_rotation_rows(self):
        sq = square()
        v = rotation_field(sq)
        points = [sq.point(p) for p in SQUARE_POINTS]
        got = _batch(v, points, OPTS)
        assert {c.classification for c in got} == {
            CurveClass.SINGLETON, CurveClass.CLOSED, CurveClass.HORIZON_COMPLETE
        }
        for p, c in zip(points, got):
            assert curves_identical(c, reference_integrate_max_curve(v, p, OPTS))

    def test_thickened_line(self):
        line = thickened_line()
        v = shear_field(line)
        points = [line.point((x, 0.0)) for x in (-3.0, -0.5, 0.0, 2.0)]
        for p, c in zip(points, _batch(v, points, OPTS)):
            assert curves_identical(c, reference_integrate_max_curve(v, p, OPTS))

    def test_sphere(self):
        scheme, v = _sphere()
        opts = IntegratorOptions(horizon=5.0)
        points = [scheme.point(p) for p in ((1.0, 0.0, 0.0), (0.6, 0.0, 0.8), (0.0, 0.0, 1.0))]
        for p, c in zip(points, _batch(v, points, opts)):
            assert curves_identical(c, reference_integrate_max_curve(v, p, opts))

    def test_blowup_open_ends(self):
        plane = SchemePresentation(XY, region=(expr_xy("0 - 1"),))
        v = LiftedField.from_strings(["1 + x*x", "0"], plane)
        opts = IntegratorOptions(horizon=5.0)
        points = [plane.point((1.0, 0.0))]
        for p, c in zip(points, _batch(v, points, opts)):
            assert not c.interval.hi_closed and not c.interval.lo_closed
            assert c.diagnostics["forward"]["end"] == "underflow"
            assert curves_identical(c, reference_integrate_max_curve(v, p, opts))

    def test_transcendental_field_on_a_disc(self):
        # exp, sin, a quotient and powers: a point's field value is its
        # column's in the lane array, so the curves match bit for bit
        disc = SchemePresentation(XY, region=(expr_xy("x^2 + y^2 - 4"),))
        v = LiftedField.from_strings(["exp(y)/(1 + x^2) - y", "sin(x)*y^3 + x"], disc)
        opts = IntegratorOptions(horizon=5.0)
        points = [disc.point(p) for p in ((0.1, 0.2), (-0.5, 0.3), (1.0, -1.0))]
        for p, c in zip(points, _batch(v, points, opts)):
            assert curves_identical(c, reference_integrate_max_curve(v, p, opts))


class TestLockstepBatches:
    SQ_OPTS = IntegratorOptions(horizon=5.0)

    @settings(max_examples=25, deadline=None)
    @given(
        order=st.lists(st.integers(0, len(SQUARE_POINTS) - 1), min_size=1, max_size=8),
        lanes=st.integers(2, 9),
    )
    def test_curve_independent_of_batch(self, order, lanes):
        sq = square()
        v = rotation_field(sq)
        alone = self._alone(v, sq)
        old = cv.MAX_LANES
        cv.MAX_LANES = lanes
        try:
            got = _batch(v, [sq.point(SQUARE_POINTS[k]) for k in order], self.SQ_OPTS)
        finally:
            cv.MAX_LANES = old
        for k, c in zip(order, got):
            assert curves_identical(c, alone[k])

    _cache: dict = {}

    def _alone(self, v, sq):
        if not self._cache:
            for k, p in enumerate(SQUARE_POINTS):
                self._cache[k] = integrate_max_curve(v, sq.point(p), self.SQ_OPTS)
        return self._cache

    def test_live_lanes_bounded_by_constant(self, monkeypatch):
        sq = square()
        v = rotation_field(sq)
        widths = []
        real_lift = dv.lift

        def recording_lift(field_):
            rhs = real_lift(field_)

            def recorded(p):
                widths.append(np.reshape(p, (len(p), -1)).shape[1])
                return rhs(p)

            return recorded

        points = [sq.point(p) for p in SQUARE_POINTS * 2]
        free = _batch(v, points, self.SQ_OPTS)
        monkeypatch.setattr(dv, "lift", recording_lift)
        monkeypatch.setattr(cv, "MAX_LANES", 4)
        capped = _batch(v, points, self.SQ_OPTS)
        assert max(widths) == 4
        assert all(curves_identical(a, b) for a, b in zip(free, capped))

    def test_results_arrive_as_points_finish(self):
        sq = square()
        v = rotation_field(sq)
        points = [sq.point(p) for p in ((0.5, 0.1), (0.9, 0.9), (1.0, 1.0))]
        order = [i for i, _ in integrate_max_curves(v, points, self.SQ_OPTS)]
        assert order == [2, 1, 0]  # singleton after one step, then the exit, then the horizon

    def test_field_evaluated_once_at_each_base_point(self, monkeypatch):
        sq = square()
        v = rotation_field(sq)
        base = [(0.9, 0.9), (0.5, 0.1), (1.0, 1.0)]
        seen = []
        real_lift = dv.lift

        def recording_lift(field_):
            rhs = real_lift(field_)

            def recorded(p):
                seen.extend(tuple(col) for col in np.reshape(p, (len(p), -1)).T)
                return rhs(p)

            return recorded

        monkeypatch.setattr(dv, "lift", recording_lift)
        _batch(v, [sq.point(p) for p in base], self.SQ_OPTS)
        assert all(seen.count(p) == 1 for p in base)


class TestLockstepErrors:
    """A lane's exception stays with its point; the other points' curves are
    what they would be alone."""

    def test_guard_violation_and_step_limit_isolated(self):
        line = thickened_line()
        v = LiftedField((_fenced(-8.0, 8.0), expr_xy("y")), line)
        opts = IntegratorOptions(horizon=5.0, max_steps=40)
        xs = (0.0, 4.0, -4.5, 7.9, 2.0)
        points = [line.point((x, 0.0)) for x in xs]
        got = _batch(v, points, opts)
        kinds = {type(r) for r in got}
        assert GuardViolation in kinds
        for p, r in zip(points, got):
            assert _same(r, _outcome(v, p, opts))
        # with room for every step, the curves that stay inside the strip
        # are the same as without the failing neighbours
        roomy = IntegratorOptions(horizon=5.0)
        got = _batch(v, points, roomy)
        assert isinstance(got[1], GuardViolation) and isinstance(got[2], GuardViolation)
        for p, r in zip(points, got):
            assert _same(r, _outcome(v, p, roomy))
        assert curves_identical(got[0], reference_integrate_max_curve(v, points[0], roomy))

    def test_step_limit_in_one_lane(self):
        sq = square()
        v = rotation_field(sq)
        opts = IntegratorOptions(horizon=5.0, max_steps=8)
        points = [sq.point(p) for p in SQUARE_POINTS]
        got = _batch(v, points, opts)
        assert any(isinstance(r, StepLimitExceeded) for r in got)
        classes = [getattr(r, "classification", None) for r in got]
        assert CurveClass.CLOSED in classes
        for p, r in zip(points, got):
            assert _same(r, _outcome(v, p, opts))
        errors = {str(r) for r in got if isinstance(r, Exception)}
        assert errors == {"exceeded 8 accepted steps"}

    def test_forward_error_wins(self):
        # the backward lane leaves the strip first (x < -1), the forward one
        # later (x > 3): the point reports the forward lane's exception
        line = thickened_line()
        v = LiftedField((_fenced(-1.0, 3.0), expr_xy("y")), line)
        opts = IntegratorOptions(horizon=5.0)
        point = line.point((0.0, 0.0))
        (got,) = _batch(v, [point], opts)
        assert isinstance(got, GuardViolation)
        x = float(re.search(r"point \((\S+),", str(got)).group(1))
        assert x > 3.0
        with pytest.raises(GuardViolation) as alone:
            reference_integrate_max_curve(v, point, opts)
        assert float(re.search(r"point \((\S+),", str(alone.value)).group(1)) > 3.0

    def test_dense_output_stage_error_isolated(self, monkeypatch):
        # the attempt, the extra stages of the dense output and the
        # localization of an exit each raise from some states only (as a
        # field or a constraint defined only there would): the lanes that get
        # there fail alone, and the other lanes finish their step
        real_attempt, real_dense, real_locate = cv._attempt, cv._dense_coeffs, cv._Lockstep._locate

        def attempt(rhs, y, h, k1):
            if np.any(y[:, 0] < -1.1):
                raise GuardViolation("attempt past x = -1.1")
            return real_attempt(rhs, y, h, k1)

        def dense_coeffs(rhs, y, h, K):
            if np.any(y[:, 0] > 2.0):
                raise GuardViolation("past x = 2")
            return real_dense(rhs, y, h, K)

        def locate(self, t0, h, y0, coeffs, bad):
            if np.any(y0[:, 0] > 0.8):
                raise GuardViolation("localization from x > 0.8")
            return real_locate(self, t0, h, y0, coeffs, bad)

        monkeypatch.setattr(cv, "_attempt", attempt)
        monkeypatch.setattr(cv, "_dense_coeffs", dense_coeffs)
        monkeypatch.setattr(cv._Lockstep, "_locate", locate)
        line, sq = thickened_line(), square()
        cases = (
            # the line: 1.9 forward and 2.5 at its start meet the extra
            # stages' fault, -1.0 backward the attempt's
            (shear_field(line), [line.point((x, 0.0)) for x in (0.0, 1.9, -1.0, 2.5, 0.5)],
             IntegratorOptions(horizon=1.0), [False, True, True, True, False]),
            # the square: the singleton (1.0, 1.0), (0.9, 0.9) and (1.0, -0.2)
            # exit in a step from x > 0.8, (-0.95, 0.6) exits elsewhere
            (rotation_field(sq), [sq.point(p) for p in SQUARE_POINTS],
             IntegratorOptions(horizon=5.0), [True, True, True, False, False, False, False]),
        )
        for v, points, opts, raised in cases:
            got = _batch(v, points, opts)
            assert [isinstance(r, GuardViolation) for r in got] == raised
            for p, r in zip(points, got):
                assert _same(r, _outcome(v, p, opts))
                if not isinstance(r, Exception):
                    assert curves_identical(r, reference_integrate_max_curve(v, p, opts))
        assert got[-1].classification == CurveClass.CLOSED

    def test_residual_guard_in_a_batch(self):
        # checkpoints past x = 1.12 make the batched residual raise; each
        # lane is then scanned alone and the exits are those of one curve
        fenced = SchemePresentation(XY, region=(expr_xy("x - 1"), _fenced(-100.0, 1.12, -1)))
        v = LiftedField.from_strings(["1", "0"], fenced)
        opts = IntegratorOptions(horizon=5.0)
        starts = ((0.0, 0.0), (0.5, 0.3), (-2.0, 0.0), (0.99, 0.0))
        points = [fenced.point(p) for p in starts]
        got = _batch(v, points, opts)
        for p, r in zip(points, got):
            assert _same(r, _outcome(v, p, opts))
            assert curves_identical(r, reference_integrate_max_curve(v, p, opts))
            assert abs(r.interval.hi - (1.0 - p.coords[0])) <= 1e-8

    def test_point_off_scheme_among_others(self):
        line = thickened_line()
        v = shear_field(line)
        points = [line.point((0.0, 0.0)), SchemePoint((0.0, 0.5)), line.point((1.0, 0.0))]
        got = _batch(v, points, OPTS)
        assert isinstance(got[1], PointNotOnScheme)
        assert str(got[1]) == "base point (0.0, 0.5) is not on the zero set"
        assert curves_identical(got[2], integrate_max_curve(v, points[2], OPTS))

    def test_results_arrive_in_the_same_order_whatever_the_check_chunk(self, monkeypatch):
        # 40 points, every third off the zero set: the base points are checked
        # ahead in chunks, and each result still arrives when its point
        # would be started
        line = thickened_line()
        v = shear_field(line)
        points = [SchemePoint((0.1 * i, 0.5 if i % 3 == 0 else 0.0)) for i in range(40)]

        def arrivals():
            return [
                (i, type(r).__name__, r.interval if isinstance(r, cv.IntegralCurve) else str(r))
                for i, r in integrate_max_curves(v, points, IntegratorOptions(horizon=2.0))
            ]

        ahead = arrivals()
        monkeypatch.setattr(cv, "BASE_CHECK", 1)
        assert arrivals() == ahead
        assert sum(name == "PointNotOnScheme" for _, name, _ in ahead) == 14

    def test_short_point_among_others(self):
        # the residual checks the length before it reads the coordinates
        line = thickened_line()
        v = shear_field(line)
        points = [line.point((0.0, 0.0)), SchemePoint((0.5,)), line.point((1.0, 0.0))]
        got = _batch(v, points, OPTS)
        assert isinstance(got[1], ValueError)
        assert str(got[1]) == "point length 1 != arity 2"
        for i in (0, 2):
            assert curves_identical(got[i], integrate_max_curve(v, points[i], OPTS))


class _LocateLog:
    """What ``_instrument`` saw: residual calls, rounds, the levels the
    per-lane rescan of each localization walks (its most, per call), the
    exits of each localization, the states the batched localization
    evaluated, the states the per-lane rescans visit, and the residual calls
    that raised on the poisoned state."""

    def __init__(self):
        self.calls = self.rounds = self.levels = self.raised = 0
        self.exits: list[int] = []
        self.batch_states: set = set()
        self.walk_states: set = set()
        self.locating = False


def _instrument(monkeypatch, poison=None) -> _LocateLog:
    """Log the lockstep's residual calls, and raise GuardViolation on a call
    that holds the state ``poison``.  Each localization is replayed, lane by
    lane, with the per-lane rescan (``reference_locate``), whose bounds it
    must return bit for bit."""
    log = _LocateLog()
    real_fn, real_locate, real_step = (
        SchemePresentation.residual_fn, cv._Lockstep._locate, cv._Lockstep._step
    )

    def residual_fn(scheme):
        f = real_fn(scheme)

        def logged(p):
            log.calls += 1
            states = {tuple(s) for s in np.reshape(p, (scheme.arity, -1)).T.tolist()}
            if log.locating:
                log.batch_states |= states
            if poison in states:
                log.raised += 1
                raise GuardViolation("poisoned state")
            return f(p)

        return logged

    def step(self, rows):
        log.rounds += 1
        return real_step(self, rows)

    def locate(self, t0, h, y0, coeffs, bad):
        f = real_fn(self.scheme)

        def walked(s):
            log.walk_states.add(tuple(s.tolist()))
            return f(s)

        walks = [
            reference_locate(walked, self.eps_z, a, hj, y, c, b, self.opts.event_tol)
            for a, hj, y, c, b in zip(t0.tolist(), h.tolist(), y0, coeffs, bad)
        ]
        log.levels += max(levels for _, levels in walks)
        log.exits.append(len(bad))
        log.locating = True
        try:
            located = real_locate(self, t0, h, y0, coeffs, bad)
        finally:
            log.locating = False
        assert np.array(located[0]).tobytes() == np.array([b for b, _ in walks]).tobytes()
        return located

    monkeypatch.setattr(SchemePresentation, "residual_fn", residual_fn)
    monkeypatch.setattr(cv._Lockstep, "_step", step)
    monkeypatch.setattr(cv._Lockstep, "_locate", locate)
    return log


def _drift_off_line():
    """The thickened line (|y| <= 3.2e-5) under a field that leaves it at
    1e-5 per unit time: every point exits both ways near t = +-3.2."""
    line = thickened_line()
    return line, LiftedField.from_strings(["1", "1/100000"], line)


class TestBatchedBisection:
    """The exits of a round are localized together, one residual call per
    level of the search, and give the per-lane rescan's bounds bit for
    bit."""

    SQ_OPTS = IntegratorOptions(horizon=2.0)
    LINE_OPTS = IntegratorOptions(horizon=5.0)
    # near the square's corners: each exits the square at least one way
    CORNERS = [(0.95, 0.9), (-0.9, 0.97), (0.99, -0.8), (-0.85, -0.85), (1.0, 0.7), (0.8, -1.0)]

    @settings(max_examples=20, deadline=None)
    @given(
        near_square=st.lists(
            st.tuples(
                st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
                st.floats(0.0, 0.2), st.floats(0.0, 0.2),
            ),
            min_size=2, max_size=16,
        ),
        on_line=st.lists(st.floats(-3e-5, 3e-5), min_size=2, max_size=16),
    )
    def test_batches_match_the_per_curve_loop(self, near_square, on_line):
        sq = square()
        line, drift = _drift_off_line()
        cases = (
            (rotation_field(sq), [sq.point((sx * (1 - a), sy * (1 - b))) for sx, sy, a, b in near_square],
             self.SQ_OPTS),
            (drift, [line.point((0.25 * k, y)) for k, y in enumerate(on_line)], self.LINE_OPTS),
        )
        for v, points, opts in cases:
            for p, c in zip(points, _batch(v, points, opts)):
                assert curves_identical(c, reference_integrate_max_curve(v, p, opts))

    @pytest.mark.parametrize("case", ["square", "line"])
    def test_residual_calls_bounded(self, case, monkeypatch):
        if case == "square":
            sq = square()
            v, points, opts = rotation_field(sq), [sq.point(p) for p in self.CORNERS], self.SQ_OPTS
        else:
            line, v = _drift_off_line()
            points = [line.point((0.5 * k, y)) for k, y in enumerate((-3e-5, -1e-5, 0.0, 2e-5))]
            opts = self.LINE_OPTS
        log = _instrument(monkeypatch)
        _batch(v, points, opts)
        assert max(log.exits) >= 2  # lanes that exit in the same round
        # one scan per round, one call per localization level, the base points
        assert log.calls <= log.rounds + log.levels + len(points)

    def test_raise_on_a_state_the_walk_never_visits(self, monkeypatch):
        sq = square()
        v = rotation_field(sq)
        points = [sq.point(p) for p in SQUARE_POINTS]
        opts = IntegratorOptions(horizon=5.0)
        want = [reference_integrate_max_curve(v, p, opts) for p in points]
        log = _instrument(monkeypatch)
        _batch(v, points, opts)
        # a level's call holds the visited states and the samples after
        # each lane's first failing one
        assert log.walk_states < log.batch_states
        monkeypatch.undo()
        log = _instrument(monkeypatch, poison=min(log.batch_states - log.walk_states))
        got = _batch(v, points, opts)
        assert log.raised >= 1
        assert all(curves_identical(c, w) for c, w in zip(got, want))

    def test_raise_on_a_visited_state_fails_that_point_alone(self, monkeypatch):
        sq = square()
        v = rotation_field(sq)
        points = [sq.point(p) for p in SQUARE_POINTS]
        opts = IntegratorOptions(horizon=5.0)
        want = [reference_integrate_max_curve(v, p, opts) for p in points]
        k = SQUARE_POINTS.index((0.9, 0.9))
        log = _instrument(monkeypatch)
        _batch(v, [points[k]], opts)  # the states its walks visit
        monkeypatch.undo()
        log = _instrument(monkeypatch, poison=max(log.walk_states))
        got = _batch(v, points, opts)
        assert log.raised >= 1
        assert [isinstance(r, GuardViolation) for r in got] == [i == k for i in range(len(points))]
        assert all(curves_identical(c, w) for i, (c, w) in enumerate(zip(got, want)) if i != k)


class TestFirstExit:
    """A membership exit is the first time the state leaves the space: the
    state at the bound passes, and the failing end of the localized gap
    fails and lies within ``event_tol`` beyond the bound."""

    def test_two_failing_stretches_in_one_gap(self):
        # x = t under the field (1, 0).  The region 10^6 (x-a)(x-b)(x-c) <= 0
        # fails on (a, b) and past c, with a, b and c at 0.10, 0.12 and 0.45
        # of the checkpoint gap around t = 0.2: the checkpoints on both sides
        # of the gap pass and fail, and the exit is at a, not at c
        opts = IntegratorOptions(horizon=1.0)
        plane = SchemePresentation(XY, region=(expr_xy("0 - 1"),))
        free = integrate_max_curve(
            LiftedField.from_strings(["1", "0"], plane), plane.point((0.0, 0.0)), opts
        ).forward
        i = np.searchsorted(free.t0, 0.2) - 1
        m = cv.CHECKPOINTS_PER_STEP
        times = free.t0[i] + free.h[i] * (np.arange(1, m + 1) / m)
        k = int(np.searchsorted(times, 0.2))
        lo, hi = float(times[k - 1]), float(times[k])
        a, b, c = (lo + f * (hi - lo) for f in (0.10, 0.12, 0.45))
        scheme = SchemePresentation(
            XY, region=(expr_xy(f"1000000*(x - {a!r})*(x - {b!r})*(x - {c!r})"),)
        )
        v = LiftedField.from_strings(["1", "0"], scheme)
        curve = integrate_max_curve(v, scheme.point((0.0, 0.0)), opts)
        assert curve.diagnostics["forward"]["checkpoint"] == k
        # past a by the eps_z margin, about 3.7e-8, and short of b
        assert a < curve.interval.hi < b
        assert curve.classification == CurveClass.HALF_OPEN
        assert self._checked(curve, scheme) == 1  # the backward lane reaches the horizon

    @staticmethod
    def _checked(curve, scheme) -> int:
        """Check the contract on each direction of ``curve`` that ends with a
        membership exit, evaluated with the dense output of its last step;
        returns how many it checked.  A singleton keeps no steps."""
        residual, tol = scheme.residual_fn(), IntegratorOptions().event_tol
        checked = 0
        for side, bound in (("forward", curve.interval.hi), ("backward", curve.interval.lo)):
            d = curve.diagnostics[side]
            if d["end"] != "exit" or curve.interval.is_singleton:
                continue
            steps = getattr(curve, side)
            t0, h, y0, c = steps.t0[-1], steps.h[-1], steps.y0[-1], steps.coeffs[-1]

            def state(t):
                return cv._dense(y0, h, c.T, (t - t0) / h)

            fails_at = d["fails_at"]
            assert residual(state(bound)) <= scheme.eps_z
            assert residual(state(fails_at)) > scheme.eps_z
            assert 0.0 < (fails_at - bound) * math.copysign(1.0, h) <= tol
            checked += 1
        return checked

    @settings(max_examples=25, deadline=None)
    @given(
        near_edges=st.lists(
            st.tuples(
                st.sampled_from([0, 1]), st.sampled_from([-1.0, 1.0]),
                st.floats(0.0, 1e-3), st.floats(-1.0, 1.0),
            ),
            max_size=6,
        ),
        near_corners=st.lists(
            st.tuples(
                st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
                st.floats(0.0, 0.05), st.floats(0.0, 0.05),
            ),
            max_size=6,
        ),
        on_circle=st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=6),
    )
    def test_exit_contract(self, near_edges, near_corners, on_circle):
        sq, ring = square(), circle(1e-7)
        edges = [
            (side * (1 - depth), along) if axis == 0 else (along, side * (1 - depth))
            for axis, side, depth, along in near_edges
        ]
        corners = [(sx * (1 - a), sy * (1 - b)) for sx, sy, a, b in near_corners]
        cases = (
            # the translation (1, 0) leaves the circle both ways from near
            # (0, 1), at |t| between about 5e-6 and 3e-4
            (rotation_field(sq), [sq.point(p) for p in edges + corners], IntegratorOptions(horizon=2.0)),
            (LiftedField.from_strings(["1", "0"], ring),
             [ring.point((math.sin(a), math.cos(a))) for a in on_circle], IntegratorOptions(horizon=1.0)),
        )
        checked = 0
        for v, points, opts in cases:
            for curve in _batch(v, points, opts):
                checked += self._checked(curve, v.home)
        assert checked >= 2 * len(on_circle)


class TestDiagnostics:
    def test_end_reasons_and_counts(self):
        sq = square()
        v = rotation_field(sq)
        closed = integrate_max_curve(v, sq.point((0.9, 0.9)), OPTS)
        for side, steps in (("forward", closed.forward), ("backward", closed.backward)):
            d = closed.diagnostics[side]
            assert d["end"] == "exit" and 0 <= d["checkpoint"] < cv.CHECKPOINTS_PER_STEP
            assert d["accepted"] == len(steps) and d["rejected"] >= 0
            assert d["min_h"] == np.abs(steps.h).min()
            assert d["max_h"] == np.abs(steps.h).max()
        whole = integrate_max_curve(v, sq.point((0.5, 0.1)), OPTS)
        assert whole.diagnostics["forward"]["end"] == "horizon"
        assert whole.diagnostics["backward"]["end"] == "horizon"
        corner = integrate_max_curve(v, sq.point((1.0, 1.0)), OPTS)
        assert corner.classification == CurveClass.SINGLETON
        for side in ("forward", "backward"):
            d = corner.diagnostics[side]
            assert d["end"] == "exit" and d["checkpoint"] == 0

    def test_underflow_records_last_step(self):
        plane = SchemePresentation(XY, region=(expr_xy("0 - 1"),))
        v = LiftedField.from_strings(["1 + x*x", "0"], plane)
        c = integrate_max_curve(v, plane.point((0.0, 0.0)), IntegratorOptions(horizon=5.0))
        d = c.diagnostics["forward"]
        assert d["end"] == "underflow" and d["rejected"] > 0
        assert d["last_h"] < 1e-14 * max(1.0, abs(c.interval.hi))

    def test_diagnostics_stay_out_of_the_csv(self):
        sq = square()
        c = integrate_max_curve(rotation_field(sq), sq.point((0.9, 0.9)), OPTS)
        assert "exit" not in curve_to_csv(c)


class TestReach:
    """A reach-limited curve is the full-horizon curve cut after the first
    step that gets to the reach, bit for bit."""

    OPTS = IntegratorOptions(horizon=5.0)

    def _check(self, v, point, reach):
        ((_, short),) = integrate_max_curves(v, [point], self.OPTS, reach=reach)
        full = integrate_max_curve(v, point, self.OPTS)
        if full.interval.is_singleton:
            assert curves_identical(short, full)
            return
        for side in ("forward", "backward"):
            cut, whole = getattr(short, side), getattr(full, side)
            assert steps_identical(cut, first_steps(whole, len(cut)))
            if short.diagnostics[side]["end"] == "reach":
                assert reach < self.OPTS.horizon and len(cut) < len(whole)
                ends = np.abs(cut.t0 + cut.h)
                assert ends[-1] >= reach and np.all(ends[:-1] < reach)
            else:
                assert len(cut) == len(whole)
                assert short.diagnostics[side] == full.diagnostics[side]
        lo, hi = max(full.interval.lo, -reach), min(full.interval.hi, reach)
        for t in np.linspace(lo, hi, 13).tolist() + [lo, hi]:
            assert evaluate_curve(short, t).tobytes() == evaluate_curve(full, t).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(-1.0, 1.0),
        y=st.floats(-1.0, 1.0),
        reach=st.floats(0.0, 6.0),
    )
    def test_square_rotation(self, x, y, reach):
        sq = square()
        self._check(rotation_field(sq), sq.point((x, y)), reach)

    @settings(max_examples=15, deadline=None)
    @given(
        theta=st.floats(0.0, 2 * math.pi),
        z=st.floats(-1.0, 1.0),
        reach=st.floats(0.0, 6.0),
    )
    def test_sphere_rotation(self, theta, z, reach):
        scheme, v = _sphere()
        r = math.sqrt(1.0 - z * z)
        self._check(v, scheme.point((r * math.cos(theta), r * math.sin(theta), z)), reach)

    def test_reach_end_is_flagged_and_counted(self):
        sq = square()
        ((_, c),) = integrate_max_curves(
            rotation_field(sq), [sq.point((0.5, 0.1))], self.OPTS, reach=1.0
        )
        d = c.diagnostics["forward"]
        assert d["end"] == "reach" and d["accepted"] == len(c.forward)
        assert c.interval.hi == c.forward.t0[-1] + c.forward.h[-1] >= 1.0
        assert c.interval.hi_at_horizon and c.interval.lo_at_horizon


class TestStepFloor:
    def test_blowup_ends_open_in_few_steps(self):
        # x' = 1 + x^2 from 0 is tan(t), which blows up at +-pi/2
        from scipy.integrate import solve_ivp

        line = thickened_line()
        v = LiftedField.from_strings(["1 + x*x", "0"], line)
        opts = IntegratorOptions(horizon=5.0)
        c = integrate_max_curve(v, line.point((0.0, 0.0)), opts)
        ref = solve_ivp(
            lambda t, y: 1 + y * y, (0.0, opts.horizon), [0.0], method="RK45",
            rtol=opts.rel_tol, atol=opts.abs_tol,
        )
        assert ref.status == -1  # scipy's step fell below its floor: blow-up
        ref_steps = len(ref.t) - 1
        assert c.classification == CurveClass.OPEN
        for side, bound in (("forward", c.interval.hi), ("backward", -c.interval.lo)):
            d = c.diagnostics[side]
            assert d["end"] == "underflow"
            assert abs(bound - math.pi / 2) <= 1e-6
            assert abs(bound - ref.t[-1]) <= 1e-6
            assert d["accepted"] < 2000 and d["accepted"] < 2 * ref_steps

    def test_sliver_step_to_the_horizon_is_no_underflow(self):
        # a horizon just past the end of an accepted step leaves a last step
        # below the floor; the controller's step is far above it
        line = thickened_line()
        v = shear_field(line)
        point = line.point((0.0, 0.0))
        f = integrate_max_curve(v, point, IntegratorOptions(horizon=5.0)).forward
        t1 = float(f.t0[5] + f.h[5])
        opts = IntegratorOptions(horizon=t1 + 4e-15)
        assert 0 < opts.horizon - t1 < 1e-14 * max(1.0, t1)
        c = integrate_max_curve(v, point, opts)
        assert c.classification == CurveClass.HORIZON_COMPLETE
        assert abs(c.forward.h[-1]) < 1e-14
        assert {d["end"] for d in c.diagnostics.values()} == {"horizon"}
        assert curves_identical(c, reference_integrate_max_curve(v, point, opts))


    @pytest.mark.parametrize("x", [1e-16, 1e-15, -3e-16])
    def test_tiny_base_coordinate_is_no_underflow(self, x):
        # Hairer's first-step guess from (x, 0) under (1, y) is about |x|,
        # below the floor; the translation still runs to the horizon
        line = thickened_line()
        v = shear_field(line)
        point = line.point((x, 0.0))
        c = integrate_max_curve(v, point, OPTS)
        assert c.classification == CurveClass.HORIZON_COMPLETE
        assert curves_identical(c, reference_integrate_max_curve(v, point, OPTS))


class TestIntervalFlagsArePlainBool:
    def _flags(self, curve):
        rec = curve.interval
        return (rec.lo_closed, rec.hi_closed, rec.lo_at_horizon, rec.hi_at_horizon)

    def test_closed_horizon_and_singleton_ends(self):
        sq = square()
        v = rotation_field(sq)
        for p, cls in (
            ((0.9, 0.9), CurveClass.CLOSED),
            ((0.5, 0.1), CurveClass.HORIZON_COMPLETE),
            ((1.0, 1.0), CurveClass.SINGLETON),
        ):
            c = integrate_max_curve(v, sq.point(p), OPTS)
            assert c.classification == cls
            assert all(type(flag) is bool for flag in self._flags(c))

    def test_open_end(self):
        # x' = x^3 from 1 blows up at t = 1/2 and reaches the horizon backwards
        plane = SchemePresentation(XY, region=(expr_xy("0 - 1"),))
        v = LiftedField.from_strings(["x*x*x", "0"], plane)
        c = integrate_max_curve(v, plane.point((1.0, 0.0)), IntegratorOptions(horizon=5.0))
        assert self._flags(c) == (True, False, True, False)
        assert all(type(flag) is bool for flag in self._flags(c))


def _raw_point(x, y):
    from schemeflow.cring import SchemePoint

    return SchemePoint((x, y))


def _random_poly_src(rng) -> str:
    terms = []
    for _ in range(3):
        c = rng.randint(-2, 2)
        i = rng.randint(0, 2)
        j = rng.randint(0, 2 - i)
        terms.append(f"{c}*x^{i}*y^{j}")
    return " + ".join(terms)


class TestSolveIvpCrossCheck:
    """The dense output against scipy's DOP853, another code path."""

    @pytest.mark.parametrize("start", [(0.2, -0.3), (-0.6, 0.5), (0.0, 0.0)])
    def test_transcendental_field_on_the_square(self, start):
        from scipy.integrate import solve_ivp

        sq = square()
        v = LiftedField.from_strings(["cos(y)", "sin(x)"], sq)
        c = integrate_max_curve(v, sq.point(start), OPTS)
        assert c.interval.lo < -0.1 and c.interval.hi > 0.1
        for end in (c.interval.lo, c.interval.hi):
            ref = solve_ivp(
                lambda t, p: [math.cos(p[1]), math.sin(p[0])], (0.0, end), list(start),
                method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
            )
            assert ref.success
            times = np.linspace(0.0, end, 201)
            got = evaluate_curve(c, times)
            assert got.shape == (2, 201)
            assert np.max(np.abs(got - ref.sol(times))) <= 1e-7


def _screen_case(name):
    """(scheme, field, base point) of the screen's property cases; the large
    circle's constraint values cancel terms of size 1e6."""
    if name == "circle":
        scheme = circle(eps_z=1e-9)
        return scheme, rotation_field(scheme), (1.0, 0.0)
    if name == "sphere":
        scheme, v = _sphere()
        return scheme, v, _sphere_point(0.3, 0.6)
    if name == "square":  # the unit circle, touching the square's edges
        scheme = square()
        return scheme, rotation_field(scheme), (1.0, 0.0)
    scheme = SchemePresentation(XY, ideal_gens=(expr_xy("x^2 + y^2 - 1e6"),), eps_z=1e-6)
    return scheme, rotation_field(scheme), (1000.0, 0.0)


@functools.lru_cache(maxsize=None)
def _screen_steps(name):
    scheme, v, p = _screen_case(name)
    c = integrate_max_curve(v, scheme.point(p), IntegratorOptions(horizon=7.0))
    return scheme, cv._Screen.build(scheme), c.forward


def _dense_states(t0, h, y0, coeffs, u):
    """States (n, len(u)) of one step at u, by the dense-output formula."""
    return cv._dense(y0[:, None], h, coeffs.T[..., None], u)


class TestMembershipScreen:
    """A step the screen clears passes membership at every checkpoint the
    scan would test, and at 10^4 more states of its dense output."""

    CASES = ["circle", "sphere", "square", "large"]

    @pytest.mark.parametrize("case", CASES)
    def test_clears_the_steps_of_a_curve(self, case):
        scheme, screen, steps = _screen_steps(case)
        cleared = screen.clears(steps.t0, steps.y0, steps.h, steps.coeffs)
        assert cleared.sum() >= len(steps) // 2

    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        pick=st.floats(0.0, 1.0),
        offset=st.floats(-3.0, 3.0),
        later=st.floats(0.0, 500.0),
    )
    def test_cleared_steps_pass_everywhere(self, case, pick, offset, later):
        # a curve's step, scaled about the origin so that its constraint
        # values move by about offset*eps_z, and started later, so the
        # scan's last u can pass 1 by rounding
        scheme, screen, steps = _screen_steps(case)
        i = round(pick * (len(steps) - 1))
        y0 = steps.y0[i]
        scale = 1.0 + offset * scheme.eps_z / (2.0 * max(1.0, float(y0 @ y0)))
        t0, h = steps.t0[i] + later, steps.h[i]
        y0, coeffs = scale * y0, scale * steps.coeffs[i]
        if not screen.clears(np.array([t0]), y0[None], np.array([h]), coeffs[None])[0]:
            return
        residual, eps_z = scheme.residual_fn(), scheme.eps_z
        m = cv.CHECKPOINTS_PER_STEP
        u = (t0 + h * (np.arange(1, m + 1) / m) - t0) / h  # as the scan computes it
        assert residual(_dense_states(t0, h, y0, coeffs, u)).max() <= eps_z
        dense = np.linspace(0.0, 1.0, 10**4)
        assert residual(_dense_states(t0, h, y0, coeffs, dense)).max() <= eps_z

    def test_graze_step_left_to_the_scan(self):
        # from radius 1 + 1e-8 at angle pi/4 the orbit leaves the square for
        # about 2.8e-4 time units near t = 0.785, between two checkpoints
        # that the scan steps over; the screen does not clear that step
        sq = square()
        r = 1.0 + 1e-8
        start = (r * math.cos(math.pi / 4), r * math.sin(math.pi / 4))
        c = integrate_max_curve(rotation_field(sq), sq.point(start), OPTS)
        f = c.forward
        exact = math.asin(math.sqrt(1.0 + sq.eps_z) / r) - math.pi / 4
        i = int(np.searchsorted(f.t0, exact)) - 1
        assert f.t0[i] < exact < f.t0[i] + f.h[i]
        dense = np.linspace(0.0, 1.0, 10**4)
        states = _dense_states(f.t0[i], f.h[i], f.y0[i], f.coeffs[i], dense)
        assert sq.residual_fn()(states).max() > 10 * sq.eps_z
        screen = cv._Screen.build(sq)
        step = slice(i, i + 1)
        assert not screen.clears(f.t0[step], f.y0[step], f.h[step], f.coeffs[step])[0]
        assert c.diagnostics["forward"]["screened"] < len(f)


class TestScreenRule:
    """Where the screen applies: polynomial constraints of degree d with
    7d + 1 < CHECKPOINTS_PER_STEP, and rounding at that degree below eps_z."""

    def test_degree_of_the_square(self):
        assert cv._Screen.build(square()).phi.shape == (7, 15)

    @pytest.mark.parametrize(
        "region, eps_z",
        [
            (["x^2 - 1", "cos(y) - 2"], 1e-9),  # transcendental
            (["x/(1 + y^2) - 1"], 1e-9),  # a quotient by a variable
            (["x^23 - 1"], 1e-3),  # 7*23 + 1 checkpoints or more
            (["x^3 - 1"], 1e-9),  # gamma_22*||w|| is about 4e-9 at degree 21
        ],
    )
    def test_not_built(self, region, eps_z):
        scheme = SchemePresentation(XY, region=tuple(expr_xy(g) for g in region), eps_z=eps_z)
        assert cv._Screen.build(scheme) is None

    def test_guarded_quotient_not_built(self):
        halves = (expr_xy("x - 1"), const(2, XY))
        guarded = SmoothExpr("div", XY, halves, guard=((-5.0, 5.0), (-5.0, 5.0)))
        assert cv._Screen.build(SchemePresentation(XY, region=(guarded,))) is None
        plain = SmoothExpr("div", XY, halves)
        assert cv._Screen.build(SchemePresentation(XY, region=(plain,))) is not None

    def test_cubic_at_a_looser_tolerance(self):
        scheme = SchemePresentation(XY, region=(expr_xy("x^3 - 1"),), eps_z=1e-7)
        assert cv._Screen.build(scheme).phi.shape == (7, 22)
