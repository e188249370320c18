"""End-to-end coverage on a three-variable scheme: everything above two
variables exercises the generic code paths (orders, grids, integration)."""

import math

import numpy as np
import pytest

from schemeflow.cring import SchemePresentation, sample_zero_set
from schemeflow.curves import (
    CurveClass,
    IntegratorOptions,
    evaluate_curve,
    integrate_max_curve,
)
from schemeflow.derivation import LiftedField, preserves_ideal
from schemeflow.expr import VarList, parse_expr
from schemeflow.flow import MemoFlow, flow_domain, t_convexity_check
from schemeflow.groupoid import check_axioms, sample_arrows

XYZ = VarList(("x", "y", "z"))
OPTS = IntegratorOptions(horizon=10.0)


def plane_scheme():
    # zero set = the plane z = 0, cut out by z^2
    return SchemePresentation(XYZ, ideal_gens=(parse_expr("z^2", XYZ),))


def drift_field(scheme):
    # dx/dt = 1, dy/dt = x, dz/dt = z: parabolic drift in the plane
    return LiftedField.from_strings(["1", "x", "z"], scheme)


class TestThreeVariablePlane:
    def test_preservation_certified(self):
        report = preserves_ideal(drift_field(plane_scheme()))
        assert report.certified

    def test_curve_matches_closed_form(self):
        # from (x0, y0, 0): x = x0 + t, y = y0 + x0 t + t^2/2, z = 0
        scheme = plane_scheme()
        v = drift_field(scheme)
        x0, y0 = 0.5, -1.0
        c = integrate_max_curve(v, scheme.point((x0, y0, 0.0)), OPTS)
        assert c.classification == CurveClass.HORIZON_COMPLETE
        for t in np.linspace(-8.0, 8.0, 33):
            state = evaluate_curve(c, t)
            assert abs(state[0] - (x0 + t)) <= 1e-8
            assert abs(state[1] - (y0 + x0 * t + t * t / 2)) <= 1e-7
            assert abs(state[2]) <= 1e-10

    def test_sampling_and_domain(self):
        scheme = plane_scheme()
        pts = sample_zero_set(scheme, ((-1, 1), (-1, 1), (-1, 1)), 3)
        assert len(pts) == 9  # 3 x 3 grid on the plane, z polished to 0
        assert all(abs(p.coords[2]) <= 1e-4 for p in pts)
        dom = flow_domain(drift_field(scheme), pts, OPTS)
        assert dom.all_horizon_complete
        assert t_convexity_check(dom).ok

    def test_groupoid_passes(self):
        scheme = plane_scheme()
        arrows = sample_arrows(
            scheme, 30, seed=0, time_span=2.0,
            box=((-1, 1), (-1, 1), (-1, 1)), resolution=3,
        )
        report = check_axioms(MemoFlow(drift_field(scheme), OPTS), arrows, tol=1e-6)
        assert report.passed


class TestMixedRegionIdealThreeVar:
    def test_slab_cuts_the_interval(self):
        # plane z = 0 intersected with the slab |x| <= 1: translation along x
        # exits at x = 1
        scheme = SchemePresentation(
            XYZ,
            ideal_gens=(parse_expr("z^2", XYZ),),
            region=(parse_expr("x^2 - 1", XYZ),),
        )
        v = LiftedField.from_strings(["1", "0", "0"], scheme)
        c = integrate_max_curve(v, scheme.point((0.0, 3.0, 0.0)), OPTS)
        assert c.classification == CurveClass.CLOSED
        assert abs(c.interval.hi - 1.0) <= 1e-6
        assert abs(c.interval.lo + 1.0) <= 1e-6
        edge = evaluate_curve(c, c.interval.hi)
        assert edge[0] == pytest.approx(1.0, abs=1e-6)
