import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeflow import derivation as dv
from schemeflow import expr as ex
from schemeflow import polyring as pr
from schemeflow.cring import (
    PointNotOnScheme,
    SchemePresentation,
    _Dedup,
    box_grid,
    in_zero_set,
    membership_residual,
    sample_zero_set,
)
from schemeflow.expr import GuardViolation, SmoothExpr, VarList, const, log, parse_expr

from helpers import (
    XY,
    circle,
    crossing_axes,
    expr_xy,
    reference_dedup,
    reference_evaluate,
    reference_sample_zero_set,
    square,
    thickened_line,
)


class TestMembership:
    def test_line_points(self):
        line = thickened_line()
        assert in_zero_set(line, (7.0, 0.0))
        assert not in_zero_set(line, (0.0, 0.1))

    def test_square_boundary_and_outside(self):
        sq = square()
        assert in_zero_set(sq, (1.0, 1.0))
        assert in_zero_set(sq, (0.3, -0.9))
        assert not in_zero_set(sq, (1.2, 0.0))

    def test_mixed_presentation_intersects(self):
        # ideal y^2 with region x <= 0: the nonpositive x-axis
        half_line = SchemePresentation(
            XY, ideal_gens=(expr_xy("y^2"),), region=(expr_xy("x"),)
        )
        assert in_zero_set(half_line, (-1.0, 0.0))
        assert not in_zero_set(half_line, (1.0, 0.0))

    def test_nan_coordinate_is_not_a_point(self):
        # the residual skips NaN constraint values, and every constraint of
        # the square is NaN at (nan, 0), so it reads 0 there; membership
        # still fails
        sq, line = square(), thickened_line()
        nan = float("nan")
        assert sq.residual_fn()((nan, 0.0)) == 0.0
        for scheme, p in ((sq, (nan, 0.0)), (sq, (0.5, nan)), (line, (nan, 0.0))):
            assert not in_zero_set(scheme, p)
            with pytest.raises(ValueError, match=r"point \(.*\) has a NaN coordinate"):
                scheme.point(p)

    def test_point_constructor_validates(self):
        line = thickened_line()
        p = line.point((2.0, 0.0))
        assert p.coords == (2.0, 0.0)
        with pytest.raises(PointNotOnScheme):
            line.point((0.0, 0.5))

    def test_point_length_is_checked(self):
        line = thickened_line()
        for p in [(0.5, 0.0, 7.0), (0.5,)]:
            with pytest.raises(ValueError, match=f"point length {len(p)} != arity 2"):
                in_zero_set(line, p)
            with pytest.raises(ValueError, match=f"point length {len(p)} != arity 2"):
                line.residual_fn()(np.array(p)[:, None])
            with pytest.raises(ValueError, match=f"point length {len(p)} != arity 2"):
                line.point(p)

    def test_residual_fn_matches_scalar_path(self):
        sq = square()
        f = sq.residual_fn()
        for p in [(0.0, 0.0), (1.0, 1.0), (1.5, 0.2), (-2.0, 3.0)]:
            want = max([0.0] + [reference_evaluate(g, p) for g in sq.region])
            assert f(p) == pytest.approx(want, abs=1e-15)
            assert membership_residual(sq, p) == f(p)


def _guarded_div():
    # x / (y^2 + 1), defined only on a declared box
    num, den = expr_xy("x"), expr_xy("y^2 + 1")
    return SmoothExpr("div", XY, (num, den), guard=((-3.0, 3.0), (-3.0, 3.0)))


# one presentation per node kind; region constraints exercise the signed branch
_NODE_KIND_SCHEMES = {
    "pow": dict(ideal_gens=(expr_xy("x^3 - y^5"),), region=(expr_xy("x^4 - 2"),)),
    "div": dict(ideal_gens=(_guarded_div(),)),
    "exp": dict(ideal_gens=(expr_xy("exp(300*x) - y"),)),
    "log": dict(ideal_gens=(log(expr_xy("x^2 + 1"), guard=((-3.0, 3.0), (-3.0, 3.0))),)),
    "sin": dict(ideal_gens=(expr_xy("sin(3*x) - y"),)),
    "cos": dict(region=(expr_xy("cos(x*y) - 1/2"),)),
    "cut": dict(region=(expr_xy("cut(x) - cut_2(y)"), expr_xy("cut_1(y - x)"))),
}


class TestBatchedResidual:
    """The residual callable takes an (n, m) batch and must agree with m
    point-wise calls bit for bit."""

    @staticmethod
    def _points(with_nan: bool) -> np.ndarray:
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2.0, 2.0, size=(2, 64))
        pts[:, :4] = [[0.0, 1.0, -1.0, 2.0], [0.0, 0.0, 1.0, -2.0]]
        if with_nan:
            pts[0, 10] = np.nan
            pts[1, 20] = np.nan
            pts[:, 30] = np.nan
        return pts

    @pytest.mark.parametrize("kind", sorted(_NODE_KIND_SCHEMES))
    def test_batch_matches_pointwise(self, kind):
        scheme = SchemePresentation(XY, **_NODE_KIND_SCHEMES[kind])
        f = scheme.residual_fn()
        # a NaN coordinate fails a guard box, so guarded kinds see no NaN here
        pts = self._points(with_nan=kind not in ("div", "log"))
        batch = f(pts)
        assert batch.shape == (pts.shape[1],)
        with np.errstate(all="ignore"):
            scalar = np.array([f(pts[:, j]) for j in range(pts.shape[1])], dtype=float)
        np.testing.assert_array_equal(batch, scalar)

    def test_overflow_gives_inf_on_a_batch(self):
        # exp and a power of a Python float both overflow to inf, point-wise
        # and on a batch, without a warning
        grows = SchemePresentation(XY, ideal_gens=(expr_xy("exp(800*x) - y"),)).residual_fn()
        power = SchemePresentation(XY, ideal_gens=(expr_xy("(x*10^300)^2 - y"),)).residual_fn()
        pts = np.array([[0.0, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (grows, power):
                assert f((1.0, 0.0)) == np.inf
                assert f(pts).tolist() == [f((0.0, 0.0)), np.inf]

    def test_nan_constraint_is_skipped_in_both(self):
        # the generator is NaN at x = NaN; max and fmax both skip it, so the
        # region constraint alone decides
        scheme = SchemePresentation(
            XY, ideal_gens=(expr_xy("x*y"),), region=(expr_xy("y - 1"),)
        )
        f = scheme.residual_fn()
        pts = np.array([[np.nan, np.nan], [0.5, 3.0]])
        assert f(pts).tolist() == [0.0, 2.0]
        assert [f(pts[:, 0]), f(pts[:, 1])] == [0.0, 2.0]

    def test_guard_violation_anywhere_fails_the_batch(self):
        scheme = SchemePresentation(XY, ideal_gens=(_guarded_div(),))
        f = scheme.residual_fn()
        pts = np.array([[0.0, 1.0, 5.0], [0.0, 0.0, 0.0]])
        assert f(pts[:, 1]) == pytest.approx(1.0)
        with pytest.raises(GuardViolation):
            f(pts[:, 2])
        with pytest.raises(GuardViolation):
            f(pts)

    def test_zero_denominator_and_log_domain(self):
        quotient = SmoothExpr("div", XY, (const(1, XY), expr_xy("x")))
        f = SchemePresentation(XY, ideal_gens=(quotient,)).residual_fn()
        with pytest.raises(GuardViolation, match="division by zero"):
            f(np.array([[1.0, 0.0], [0.0, 0.0]]))
        g = SchemePresentation(XY, ideal_gens=(log(expr_xy("x")),)).residual_fn()
        with pytest.raises(GuardViolation, match="nonpositive value -1"):
            g(np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_sine_of_infinity_raises_in_both(self):
        f = SchemePresentation(XY, ideal_gens=(expr_xy("sin(x) - cos(y)"),)).residual_fn()
        pts = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            f(pts[:, 1])
        with pytest.raises(ValueError):
            f(pts)
        with pytest.raises(ValueError):
            f(pts[::-1])

    def test_constant_subexpressions_match_pointwise(self):
        scheme = SchemePresentation(
            XY,
            ideal_gens=(expr_xy("sin(2)*x + cos(1)*y - exp(1) + 10^300*x*y"),),
            region=(expr_xy("cut(1)*x + cut_2(0) - 1/3"),),
        )
        f = scheme.residual_fn()
        pts = np.array([[0.0, 1e-300, -0.5], [0.0, 2.0, 0.25]])
        batch = f(pts)
        scalar = [f(pts[:, j]) for j in range(pts.shape[1])]
        np.testing.assert_array_equal(batch, scalar)

    def test_constant_constraint_broadcasts(self):
        scheme = SchemePresentation(XY, ideal_gens=(expr_xy("y"),), region=(expr_xy("-1"),))
        assert scheme.residual_fn()(np.array([[0.0, 0.0], [0.0, -0.5]])).tolist() == [0.0, 0.5]


class TestComputedOncePerPresentation:
    def test_second_poly_ideal_computes_no_basis(self, monkeypatch):
        bases = []
        real = pr.groebner_basis

        def counting(*args):
            bases.append(args)
            return real(*args)

        monkeypatch.setattr(pr, "groebner_basis", counting)
        scheme = circle()
        first = scheme.poly_ideal().groebner()
        assert scheme.poly_ideal() is scheme.poly_ideal()
        assert scheme.poly_ideal().groebner() is first and len(bases) == 1
        v = dv.LiftedField.from_strings(["-y", "x"], scheme)
        assert dv.preserves_ideal(v).certified
        assert dv.preserves_ideal(v).certified
        assert len(bases) == 1

    def test_second_in_zero_set_compiles_nothing(self, monkeypatch):
        scheme = SchemePresentation(XY, ideal_gens=(expr_xy("x^2+y^2-1"),), region=(expr_xy("x"),))
        compiled = []
        real = ex.as_callable

        def counting(e):
            compiled.append(e)
            return real(e)

        monkeypatch.setattr(ex, "as_callable", counting)
        assert in_zero_set(scheme, (-1.0, 0.0))
        assert compiled
        compiled.clear()
        assert in_zero_set(scheme, (0.0, -1.0)) and not in_zero_set(scheme, (1.0, 0.0))
        assert membership_residual(scheme, (0.0, 1.0)) == 0.0
        scheme.point((0.0, 1.0))
        assert compiled == []

    def test_copies_keep_their_own_cache(self):
        scheme = circle()
        scheme.poly_ideal()
        other = replace(scheme, ideal_gens=(expr_xy("x^2+y^2-4"),))
        assert other.poly_ideal().gens != scheme.poly_ideal().gens
        assert not in_zero_set(other, (1.0, 0.0)) and in_zero_set(scheme, (1.0, 0.0))


class TestSampling:
    def test_line_grid(self):
        pts = sorted(p.coords for p in sample_zero_set(thickened_line(), ((-1, 1), (-1, 1)), 5))
        assert pts == [(-1.0, 0.0), (-0.5, 0.0), (0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]

    def test_square_grid(self):
        pts = sample_zero_set(square(), ((-2, 2), (-2, 2)), 9)
        assert len(pts) == 25
        assert all(abs(x) <= 1 and abs(y) <= 1 for x, y in (p.coords for p in pts))

    def test_empty_zero_set(self):
        empty = SchemePresentation(XY, ideal_gens=(expr_xy("x^2+y^2+1"),))
        assert sample_zero_set(empty, ((-1, 1), (-1, 1)), 5) == []

    def test_samples_pass_membership(self):
        for scheme in (thickened_line(), crossing_axes(), square()):
            for p in sample_zero_set(scheme, ((-2, 2), (-2, 2)), 9):
                assert in_zero_set(scheme, p.coords)

    def test_deterministic(self):
        a = sample_zero_set(crossing_axes(), ((-2, 2), (-2, 2)), 9)
        b = sample_zero_set(crossing_axes(), ((-2, 2), (-2, 2)), 9)
        assert [p.coords for p in a] == [p.coords for p in b]


    def test_box_grid_is_c_ordered(self):
        grid = box_grid(((0.0, 1.0), (-2.0, 2.0)), 3)
        assert grid.tolist() == [
            [0.0, -2.0], [0.0, 0.0], [0.0, 2.0],
            [0.5, -2.0], [0.5, 0.0], [0.5, 2.0],
            [1.0, -2.0], [1.0, 0.0], [1.0, 2.0],
        ]


XYZ = VarList(("x", "y", "z"))
_BOX2 = ((-2.0, 2.0), (-2.0, 2.0))

# (scheme, box, resolution, every point an exact grid hit or region-only)
_SAMPLER_CASES = {
    "sphere-15": (
        SchemePresentation(XYZ, ideal_gens=(parse_expr("x^2+y^2+z^2-1", XYZ),)),
        ((-2.0, 2.0),) * 3, 15, False,
    ),
    "circle-41": (circle(eps_z=1e-9), _BOX2, 41, False),
    "y^2-41": (thickened_line(), _BOX2, 41, True),
    "x*y-9": (SchemePresentation(XY, ideal_gens=(expr_xy("x*y"),)), _BOX2, 9, True),
    "square-41": (square(), _BOX2, 41, True),
    # proportional generators: a rank-one Jacobian, so the step needs the cutoff
    "circle-twice-9": (
        SchemePresentation(XY, ideal_gens=(expr_xy("x^2+y^2-1"), expr_xy("3*(x^2+y^2-1)"))),
        _BOX2, 9, False,
    ),
}


class TestBatchedSampler:
    """The batched sampler against the point-by-point reference: same points
    in the same order, polished coordinates within the last bits."""

    @pytest.mark.parametrize("name", sorted(_SAMPLER_CASES))
    def test_matches_pointwise_reference(self, name, monkeypatch):
        scheme, box, resolution, exact = _SAMPLER_CASES[name]
        gens = scheme.ideal_gens
        calls = [0]
        compile_ = ex.as_callable

        def counting(e):
            f = compile_(e)
            # the generator tuple: the polish's, or leading the residual's
            lead = [] if isinstance(e, SmoothExpr) else list(e)[: len(gens)]
            if not lead or len(lead) != len(gens) or any(a is not g for a, g in zip(lead, gens)):
                return f

            def counted(p):
                calls[0] += 1
                return f(p)

            return counted

        monkeypatch.setattr(ex, "as_callable", counting)
        got = [p.coords for p in sample_zero_set(scheme, box, resolution)]
        sampler_calls = calls[0]
        monkeypatch.undo()
        want = [p.coords for p in reference_sample_zero_set(scheme, box, resolution)]
        assert len(got) == len(want) > 0
        if exact:
            assert got == want
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert all(in_zero_set(scheme, p) for p in got)
        # one batched evaluation per polish step, plus the grid scan and the
        # acceptance check inside the residual; a region-only scheme has none
        assert 0 < sampler_calls <= 30 + 2 or not gens

    def test_overflowing_power_finds_nothing_quietly(self):
        scheme = SchemePresentation(XY, ideal_gens=(expr_xy("x^400 - 1"),))
        box = ((-1e3, 1e3), (-1e3, 1e3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = sample_zero_set(scheme, box, 5)
        assert got == []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert reference_sample_zero_set(scheme, box, 5) == []

    def test_overflowing_exp_keeps_the_reference_points(self):
        # exp(800) overflows to inf in the batched grid scan, a miss; the
        # misses at x <= 0 still polish onto x = ln 2
        scheme = SchemePresentation(XY, ideal_gens=(expr_xy("exp(x) - 2"),))
        box = ((-800.0, 800.0), (-800.0, 800.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = sample_zero_set(scheme, box, 5)
        assert got == reference_sample_zero_set(scheme, box, 5)
        assert [p.coords[1] for p in got] == [-800.0, -400.0, 0.0, 400.0, 800.0]
        assert all(math.isclose(p.coords[0], math.log(2.0), abs_tol=1e-9) for p in got)

    def test_guard_violation_propagates(self):
        outside = SchemePresentation(XY, ideal_gens=(_guarded_div(),))
        with pytest.raises(GuardViolation):
            sample_zero_set(outside, ((-4.0, 4.0), (-4.0, 4.0)), 5)
        quotient = SmoothExpr("div", XY, (const(1, XY), expr_xy("x")))
        pole = SchemePresentation(XY, ideal_gens=(quotient - const(1, XY),))
        with pytest.raises(GuardViolation, match="division by zero"):
            sample_zero_set(pole, _BOX2, 5)


class TestLimitedSample:
    """A limit keeps a prefix of the full sample, polishing the misses in
    doubling chunks.  Every call gets a fresh copy of its presentation, so
    no residual compiled here is cached on a _SAMPLER_CASES presentation."""

    @pytest.mark.parametrize("name", sorted(_SAMPLER_CASES))
    def test_is_a_prefix_of_the_full_sample(self, name):
        scheme, box, resolution, _ = _SAMPLER_CASES[name]
        full = [p.coords for p in sample_zero_set(replace(scheme), box, resolution)]
        for k in sorted({1, 2, 3, len(full) - 1, len(full), len(full) + 5}):
            got = sample_zero_set(replace(scheme), box, resolution, limit=k)
            assert [p.coords for p in got] == full[:k], k

    def test_limit_below_one_is_refused(self):
        for k in (0, -3):
            with pytest.raises(ValueError, match="limit"):
                sample_zero_set(square(), _BOX2, 5, limit=k)

    def test_chunks_share_one_compile(self, monkeypatch):
        scheme, box, resolution, _ = _SAMPLER_CASES["sphere-15"]
        compiled = []  # per compiled callable, the column count of each call
        compile_ = ex.as_callable

        def counting(e):
            f = compile_(e)
            widths = []
            compiled.append(widths)

            def counted(p):
                widths.append(np.shape(p)[-1] if np.ndim(p) == 2 else 1)
                return f(p)

            return counted

        monkeypatch.setattr(ex, "as_callable", counting)
        got = sample_zero_set(replace(scheme), box, resolution, limit=40)
        assert len(got) == 40
        # the residual, then the generators and their Jacobian, once each
        assert len(compiled) == 3
        scan, *chunks = compiled[0]
        assert scan == resolution**3
        assert len(chunks) >= 3
        assert chunks == [40 * 2**i for i in range(len(chunks))]


@st.composite
def _dedup_candidates(draw, dim):
    """Seeded candidates on and one ulp either side of multiples of the
    radius (cell boundaries), plus copies of earlier rows moved by exactly
    the radius, by one ulp less, or by a random amount within it."""
    radius = draw(st.sampled_from([0.25, 0.1, 2.0 / 7.0, 1.0, 3e-4]))
    count = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.integers(-4, 5, size=(count, dim)) * radius
    pts = np.nextafter(pts, pts + rng.integers(-1, 2, size=(count, dim)))
    for i in range(1, count):
        j = int(rng.integers(0, i))
        axis = int(rng.integers(0, dim))
        mode = int(rng.integers(0, 4))
        if mode == 0:
            pts[i] = pts[j]
            pts[i, axis] += radius
        elif mode == 1:
            pts[i] = pts[j]
            pts[i, axis] = np.nextafter(pts[j, axis] + radius, -np.inf)
        elif mode == 2:
            pts[i] = pts[j] + rng.uniform(-radius, radius, size=dim)
    return pts, radius


def _dedup(points, radius, chunk=None, below=0.0):
    """The rows a _Dedup keeps when fed ``points`` in chunks of ``chunk``
    rows (all at once by default), on a box from ``below`` radii under the
    points' smallest coordinates to their largest."""
    box = tuple(zip(points.min(axis=0) - below * radius, points.max(axis=0)))
    dedup = _Dedup(box, radius)
    chunk = chunk or len(points)
    for start in range(0, len(points), chunk):
        dedup.add(points[start : start + chunk])
    return dedup.kept


class TestDedup:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        case=st.one_of(_dedup_candidates(2), _dedup_candidates(3)),
        chunk=st.integers(1, 80),
        below=st.sampled_from([0.0, 0.37, 1.0, 5.5]),
    )
    def test_matches_quadratic_reference(self, case, chunk, below):
        # neither the cells' anchor nor the batching changes what is kept
        pts, radius = case
        want = pts[reference_dedup(pts, radius)].tolist()
        assert _dedup(pts, radius, chunk, below) == want

    def test_degenerate_box_keeps_every_hit(self):
        # a zero-width axis gives a zero dedup radius, so repeated points stay
        box = ((0.0, 0.0), (-1.0, 1.0))
        got = sample_zero_set(square(), box, 3)
        assert got == reference_sample_zero_set(square(), box, 3)
        assert len(got) == 9

    def test_distance_exactly_the_radius_is_kept(self):
        r = 0.25
        pts = np.array([[0.0, 0.0], [r, 0.0], [0.0, np.nextafter(r, 0.0)], [-r, r]])
        assert reference_dedup(pts, r) == [0, 1, 3]
        assert _dedup(pts, r) == pts[[0, 1, 3]].tolist()
