import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schemeflow.expr as ex
from schemeflow.cring import EqualityStatus, SchemePresentation, sample_zero_set
from schemeflow.derivation import (
    GeneratorStatus,
    LiftedField,
    NotCertifiedError,
    RelatednessStatus,
    apply,
    derivation_equal,
    hadamard_decompose,
    lie_bracket,
    lift,
    preserves_ideal,
    related,
)
from schemeflow.expr import VarList, as_polynomial, parse_expr, simplify, variables
from schemeflow.polyring import Polynomial, normal_form

from helpers import (
    XY,
    circle,
    crossing_axes,
    expr_xy,
    forbid_evaluate,
    katsura,
    random_polynomial,
    reference_evaluate,
    reference_image,
    rotation_field,
    shear_field,
    square,
    thickened_line,
)


class TestLift:
    def test_shear_coefficients(self):
        v = shear_field(thickened_line())
        assert np.allclose(lift(v)((3.0, 2.0)), [1.0, 2.0])

    def test_euler_coefficients(self):
        v = LiftedField.from_strings(["x", "y"], crossing_axes())
        assert np.allclose(lift(v)((1.0, 1.0)), [1.0, 1.0])

    def test_zero_field(self):
        v = LiftedField.from_strings(["0", "0"], thickened_line())
        assert np.allclose(lift(v)((5.0, -3.0)), [0.0, 0.0])


class TestPreservesIdeal:
    def test_euler_on_crossing_axes(self):
        v = LiftedField.from_strings(["x", "y"], crossing_axes())
        report = preserves_ideal(v)
        assert report.certified
        image = as_polynomial(report.checks[0].image)
        assert image == as_polynomial(expr_xy("3*x^2*y"))

    def test_shear_on_line(self):
        assert preserves_ideal(shear_field(thickened_line())).certified

    def test_vertical_field_fails_with_residual(self):
        v = LiftedField.from_strings(["0", "1"], thickened_line())
        report = preserves_ideal(v)
        assert not report.certified
        check = report.checks[0]
        assert check.status is GeneratorStatus.NOT_CERTIFIED
        assert check.residual == as_polynomial(expr_xy("2*y"))

    def test_region_only_presentation_is_vacuous(self):
        v = LiftedField.from_strings(["-y", "x"], square())
        report = preserves_ideal(v)
        assert report.certified and not report.checks
        assert "region" in report.note

    def test_transcendental_generator_goes_numeric(self):
        scheme = SchemePresentation(XY, ideal_gens=(expr_xy("y^2"), expr_xy("y*exp(x)")))
        v = LiftedField.from_strings(["1", "y"], scheme)
        report = preserves_ideal(v)
        statuses = {c.status for c in report.checks}
        assert GeneratorStatus.NUMERIC in statuses
        numeric = [c for c in report.checks if c.status is GeneratorStatus.NUMERIC]
        assert all(c.numeric_residual <= 1e-7 for c in numeric)


    def test_certificates_reexpand_exactly(self):
        for field_ in _certified_fields():
            report = preserves_ideal(field_)
            assert report.certified and report.checks
            basis = field_.home.poly_ideal().groebner()
            for check in report.checks:
                assert len(check.quotients) == len(basis)
                total = Polynomial({}, field_.vars)
                for q, g in zip(check.quotients, basis):
                    total = total + q * g
                assert total == as_polynomial(check.image)

    def test_image_expression_built_on_first_read(self, monkeypatch):
        built = []
        real = Polynomial.to_expr

        def recording(self):
            built.append(self)
            return real(self)

        monkeypatch.setattr(Polynomial, "to_expr", recording)
        v = LiftedField.from_strings(["x", "y"], crossing_axes())
        report = preserves_ideal(v)
        assert report.summary().endswith("overall: certified") and built == []
        (check,) = report.checks
        image = check.image
        assert check.image is image and built == [check.image_data]
        assert as_polynomial(image) == as_polynomial(expr_xy("3*x^2*y"))

    def test_certificate_is_not_printed(self):
        report = preserves_ideal(shear_field(thickened_line()))
        assert report.summary().splitlines()[0] == "generator y^2: certified (normal form 0)"

    def test_refuted_check_carries_no_certificate(self):
        v = LiftedField.from_strings(["0", "1"], thickened_line())
        (check,) = preserves_ideal(v).checks
        assert check.status is GeneratorStatus.NOT_CERTIFIED and check.quotients is None


def _certified_fields():
    """Fields whose ideal preservation has an exact certificate."""
    yield LiftedField.from_strings(["x", "y"], crossing_axes())
    yield shear_field(thickened_line())
    yield rotation_field(circle())
    rng = random.Random(7)
    gens = katsura(3)
    vl = gens[0].vars
    scheme = SchemePresentation(vl, ideal_gens=tuple(g.to_expr() for g in gens))
    coeffs = []
    for _ in vl.names:
        combo = Polynomial({}, vl)
        for g in gens:
            combo = combo + rng.choice((-2, -1, 1, 2)) * g * random_polynomial(rng, vl, 1, 2)
        coeffs.append(combo.to_expr())
    yield LiftedField(tuple(coeffs), scheme)


@st.composite
def polynomial_fields(draw):
    """A polynomial field on a polynomial scheme in 2-4 variables.  Each
    coefficient is zero, a rational constant, a polynomial with rational
    coefficients or a multiple of the first generator; each generator
    ignores one variable."""
    n = draw(st.integers(2, 4))
    vl = VarList(tuple(f"x{i}" for i in range(n)))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    def polys(degree, max_terms, ignored=None):
        exps = st.tuples(
            *[st.integers(0, 0 if i == ignored else degree) for i in range(n)]
        ).filter(lambda e: sum(e) <= degree)
        return st.dictionaries(exps, rationals, max_size=max_terms).map(
            lambda t: Polynomial(t, vl)
        )

    gens = draw(
        st.lists(st.integers(0, n - 1).flatmap(lambda j: polys(2, 3, j)), min_size=1, max_size=2)
    )
    coeff = st.one_of(
        st.just(Polynomial({}, vl)),
        rationals.map(lambda c: Polynomial.constant(c, vl)),
        polys(2, 4),
        polys(1, 2).map(lambda q: q * gens[0]),
    )
    coeffs = draw(st.lists(coeff, min_size=n, max_size=n))
    scheme = SchemePresentation(vl, ideal_gens=tuple(g.to_expr() for g in gens))
    return LiftedField(tuple(c.to_expr() for c in coeffs), scheme)


class TestPolynomialImage:
    """With a polynomial ideal and polynomial coefficients, V(g) is built in
    the polynomial ring and equals the expression route's polynomial; any
    other input still takes the expression route."""

    @settings(max_examples=60, deadline=None)
    @given(polynomial_fields())
    def test_matches_expression_route(self, field_):
        scheme = field_.home
        want = [reference_image(field_, g) for g in scheme.ideal_gens]
        with mock.patch.object(LiftedField, "directional", side_effect=AssertionError):
            report = preserves_ideal(field_)
        ideal = scheme.poly_ideal()
        for check, image in zip(report.checks, want, strict=True):
            assert as_polynomial(check.image) == image
            quotients, nf = normal_form(image, ideal, quotients=True)
            if nf.is_zero():
                assert check.status is GeneratorStatus.CERTIFIED
                assert check.quotients == tuple(quotients)
            else:
                assert check.status is GeneratorStatus.NOT_CERTIFIED and check.residual == nf

    @pytest.mark.parametrize(
        "scheme, coeffs, summary",
        [
            # the image converts although a coefficient does not: exp(x)*0 folds
            (
                thickened_line(),
                ["exp(x)", "y"],
                "generator y^2: certified (normal form 0)\noverall: certified",
            ),
            (
                circle(),
                ["exp(x)", "0"],
                "generator x^2 + y^2 - 1: numeric only, max residual 5.437e+00 over "
                "16 samples\noverall: not certified",
            ),
            (
                SchemePresentation(XY, ideal_gens=(expr_xy("y^2"), expr_xy("y*exp(x)"))),
                ["x", "1"],
                "generator y^2: numeric only, max residual 0.000e+00 over 9 samples\n"
                "generator y*exp(x): numeric only, max residual 7.389e+00 over 9 samples\n"
                "overall: not certified",
            ),
        ],
    )
    def test_non_polynomial_input_takes_expression_route(
        self, monkeypatch, scheme, coeffs, summary
    ):
        field_ = LiftedField.from_strings(coeffs, scheme)
        seen = []
        real = LiftedField.directional
        monkeypatch.setattr(
            LiftedField, "directional", lambda self, g: seen.append(g) or real(self, g)
        )
        assert preserves_ideal(field_).summary() == summary
        assert seen == list(scheme.ideal_gens)

    def test_poly_coeffs(self):
        assert LiftedField.from_strings(["exp(x)", "y"], thickened_line()).poly_coeffs is None
        v = shear_field(thickened_line())
        assert v.poly_coeffs == (Polynomial.constant(1, XY), as_polynomial(expr_xy("y")))
        assert v.poly_coeffs is v.poly_coeffs


class TestSampledChecksAreBatched:
    """The sampled fallbacks evaluate all their points in one batch and
    agree with the tree walk point by point."""

    def test_numeric_preservation_residual(self, monkeypatch):
        forbid_evaluate(monkeypatch)
        scheme = SchemePresentation(XY, ideal_gens=(expr_xy("exp(x) - 1 - y"),))
        (check,) = preserves_ideal(LiftedField.from_strings(["1", "0"], scheme)).checks
        pts = sample_zero_set(scheme, scheme.default_box(), 9)
        want = max(abs(reference_evaluate(check.image, p.coords)) for p in pts)
        assert check.status is GeneratorStatus.NUMERIC and check.sample_count == len(pts) > 0
        assert check.numeric_residual == pytest.approx(want, rel=1e-13)

    def test_free_source_grid(self, monkeypatch):
        forbid_evaluate(monkeypatch)
        tvl = VarList(("s",))
        d_dt = LiftedField((parse_expr("1", tvl),), None)
        target = LiftedField(shear_field(thickened_line()).coeffs, None)
        phi = (parse_expr("s^2", tvl), parse_expr("0", tvl))
        # v(phi_1) - w_1(phi) = 2*s - 1, largest at s = -2 on the grid of [-2, 2]
        assert related(phi, target, d_dt).max_sampled == 5.0

    def test_samples_of_an_unknown_coordinate(self, monkeypatch):
        forbid_evaluate(monkeypatch)
        # (y - x^2/3)^2 vanishes to second order on the parabola, so neither
        # witness fires; the polished samples leave it small but nonzero
        cubic = SchemePresentation(XY, ideal_gens=(expr_xy("(y - x^2/3)^3"),))
        v = LiftedField.from_strings(["1", "(y - x^2/3)^2"], cubic)
        w = LiftedField((expr_xy("1"), expr_xy("0")), None)
        r = related(tuple(variables("x y")), w, v)
        pts = sample_zero_set(cubic, cubic.default_box(), 9)
        want = max(abs(reference_evaluate(expr_xy("(y - x^2/3)^2"), p.coords)) for p in pts)
        assert r.per_coordinate[1].status is EqualityStatus.UNKNOWN
        assert r.max_sampled == pytest.approx(want, rel=1e-13) and want > 0

    def test_one_sample_for_all_unknown_coordinates(self, monkeypatch):
        # each unknown coordinate's equality check samples the zero set, and
        # the largest difference comes from one more sample for all of them
        forbid_evaluate(monkeypatch)
        import schemeflow.cring as cring

        calls = []
        real = cring.sample_zero_set
        monkeypatch.setattr(cring, "sample_zero_set", lambda *a: calls.append(a) or real(*a))
        cubic = SchemePresentation(XY, ideal_gens=(expr_xy("(y - x^2/3)^3"),))
        v = LiftedField.from_strings(["(y - x^2/3)^2", "2*(y - x^2/3)^2"], cubic)
        w = LiftedField((expr_xy("0"), expr_xy("0")), None)
        r = related(tuple(variables("x y")), w, v)
        assert [c.status for c in r.per_coordinate] == [EqualityStatus.UNKNOWN] * 2
        assert len(calls) == 3
        pts = real(cubic, cubic.default_box(), 9)
        want = max(abs(reference_evaluate(expr_xy("2*(y - x^2/3)^2"), p.coords)) for p in pts)
        assert r.max_sampled == pytest.approx(want, rel=1e-13) and want > 0

    def test_one_call_for_all_numeric_images(self, monkeypatch):
        # the sampler compiles the generators and their Jacobian, the residual
        # its constraints, and the three images share one compiled call; a free
        # source's two coordinate differences share one as well
        compiled = []
        real = ex.as_callable
        monkeypatch.setattr(ex, "as_callable", lambda e: compiled.append(e) or real(e))
        gens = tuple(expr_xy(g) for g in ("y*exp(x)", "sin(y)", "y*cos(x)"))
        report = preserves_ideal(LiftedField.from_strings(["1", "y"], SchemePresentation(XY, gens)))
        assert [c.status for c in report.checks] == [GeneratorStatus.NUMERIC] * 3
        assert len(compiled) == 4
        compiled.clear()
        tvl = VarList(("s",))
        phi = (parse_expr("s^2", tvl), parse_expr("s^3", tvl))
        target = LiftedField(shear_field(thickened_line()).coeffs, None)
        r = related(phi, target, LiftedField((parse_expr("1", tvl),), None))
        assert [c.detail for c in r.per_coordinate] == ["max 5.000e+00", "max 2.000e+01"]
        assert len(compiled) == 1


class TestApply:
    def test_shear_keeps_nilpotent_direction(self):
        line = thickened_line()
        v = shear_field(line)
        out = apply(v, line.element("y"))
        assert as_polynomial(out.rep) == as_polynomial(expr_xy("y"))

    def test_flat_field_kills_nilpotent_direction(self):
        line = thickened_line()
        u = LiftedField.from_strings(["1", "0"], line)
        out = apply(u, line.element("y"))
        assert simplify(out.rep).value == 0

    def test_constants_die(self):
        line = thickened_line()
        out = apply(shear_field(line), line.element("1"))
        assert simplify(out.rep).value == 0

    def test_uncertified_field_rejected(self):
        line = thickened_line()
        v = LiftedField.from_strings(["0", "1"], line)
        with pytest.raises(NotCertifiedError):
            apply(v, line.element("y"))

    def test_well_defined_modulo_ideal(self):
        # changing the representative by an ideal element moves the output
        # by an ideal element
        line = thickened_line()
        v = shear_field(line)
        ideal = line.poly_ideal()
        a = line.element("x*y")
        a_shifted = line.element("x*y + y^2*(x + 2)")
        out = apply(v, a)
        out_shifted = apply(v, a_shifted)
        delta = as_polynomial(simplify(out_shifted.rep - out.rep))
        assert delta is not None and ideal.normal_form(delta).is_zero()


class TestRelated:
    def test_quotient_map_relates_lift_and_derivation(self):
        # identity coordinates into the quotient: certified by construction
        line = thickened_line()
        v_quot = shear_field(line)
        v_free = LiftedField(v_quot.coeffs, None)
        phi = tuple(variables("x y"))
        r = related(phi, v_free, v_quot)
        assert r.status is RelatednessStatus.CERTIFIED

    def test_curve_relates_time_to_field(self):
        # gamma(t) = (x0 + t, 0) intertwines d/dt with the shear field
        tvl = VarList(("s",))
        d_dt = LiftedField((parse_expr("1", tvl),), None)
        target = LiftedField(shear_field(thickened_line()).coeffs, None)
        phi = (parse_expr("2 + s", tvl), parse_expr("0", tvl))
        r = related(phi, target, d_dt)
        assert r.status is RelatednessStatus.CERTIFIED

    def test_identity_map_self_related(self):
        line = thickened_line()
        v = shear_field(line)
        phi = tuple(variables("x y"))
        r = related(phi, v, v)
        assert r.status is RelatednessStatus.CERTIFIED

    def test_unrelated_pair_flagged(self):
        tvl = VarList(("s",))
        d_dt = LiftedField((parse_expr("1", tvl),), None)
        target = LiftedField(shear_field(thickened_line()).coeffs, None)
        phi = (parse_expr("s^2", tvl), parse_expr("0", tvl))  # not an integral curve
        r = related(phi, target, d_dt)
        assert r.status is RelatednessStatus.NOT_CERTIFIED


class TestHadamard:
    def test_difference_of_squares(self):
        x = VarList(("x",))
        f = as_polynomial(parse_expr("x^2", x))
        (g1,) = hadamard_decompose(f)
        assert g1.to_source() == "x + x__y"

    def test_product_telescopes(self):
        f = as_polynomial(expr_xy("x*y"))
        g1, g2 = hadamard_decompose(f)
        assert g1.to_source() == "y"
        assert g2.to_source() == "x__y"

    def test_constant_gives_zeros(self):
        f = as_polynomial(expr_xy("5"))
        assert all(g.is_zero() for g in hadamard_decompose(f))

    def test_identity_exact_on_random_polynomials(self):
        rng = random.Random(21)
        for arity in (1, 2, 3):
            vl = VarList(tuple(f"x{i}" for i in range(arity)))
            doubled = VarList(
                tuple(vl.names) + tuple(f"{n}__y" for n in vl.names)
            )
            xs = [Polynomial.variable(i, doubled) for i in range(arity)]
            ys = [Polynomial.variable(arity + i, doubled) for i in range(arity)]
            for _ in range(17):
                f = random_polynomial(rng, vl, 4)
                gs = hadamard_decompose(f)
                lhs = f.compose(xs) - f.compose(ys)
                rhs = Polynomial({}, doubled)
                for i in range(arity):
                    rhs = rhs + (xs[i] - ys[i]) * gs[i]
                assert (lhs - rhs).is_zero()


class TestDerivationEqual:
    def test_flat_vs_shear_distinct(self):
        line = thickened_line()
        u = LiftedField.from_strings(["1", "0"], line)
        v = shear_field(line)
        assert derivation_equal(u, v).status is EqualityStatus.DISTINCT

    def test_ideal_perturbation_equal(self):
        line = thickened_line()
        v = shear_field(line)
        w = LiftedField.from_strings(["1", "y + y^2"], line)
        assert derivation_equal(v, w).status is EqualityStatus.EQUAL

    def test_reflexive(self):
        v = LiftedField.from_strings(["x", "y"], crossing_axes())
        assert derivation_equal(v, v).status is EqualityStatus.EQUAL


class TestAlgebraicProperties:
    def test_chain_rule_normal_form(self):
        line = thickened_line()
        v = shear_field(line)
        ideal = line.poly_ideal()
        rng = random.Random(31)
        outer_vl = VarList(("u", "w"))
        for _ in range(20):
            f = random_polynomial(rng, outer_vl, 2)
            a1 = random_polynomial(rng, XY, 2)
            a2 = random_polynomial(rng, XY, 2)
            composite = f.compose([a1, a2])
            lhs = as_polynomial(apply(v, line.element(composite.to_expr())).rep)
            partials = []
            for j, aj in enumerate((a1, a2)):
                df = f.diff(j).compose([a1, a2])
                va = as_polynomial(apply(v, line.element(aj.to_expr())).rep)
                partials.append(df * va)
            rhs = partials[0] + partials[1]
            assert ideal.normal_form(lhs - rhs).is_zero()

    def test_leibniz_normal_form(self):
        line = thickened_line()
        v = shear_field(line)
        ideal = line.poly_ideal()
        rng = random.Random(32)
        for _ in range(20):
            a = random_polynomial(rng, XY, 2)
            b = random_polynomial(rng, XY, 2)
            lhs = as_polynomial(apply(v, line.element((a * b).to_expr())).rep)
            va = as_polynomial(apply(v, line.element(a.to_expr())).rep)
            vb = as_polynomial(apply(v, line.element(b.to_expr())).rep)
            rhs = a * vb + b * va
            assert ideal.normal_form(lhs - rhs).is_zero()

    def test_module_structure(self):
        # (c*d + e)(a) = c*d(a) + e(a) modulo the ideal, c a ring element
        line = thickened_line()
        d = shear_field(line)
        e = LiftedField.from_strings(["x", "0"], line)
        ideal = line.poly_ideal()
        c = as_polynomial(expr_xy("x + 1"))
        combo = LiftedField(
            tuple(
                simplify(expr_xy("x + 1") * dc + ec)
                for dc, ec in zip(d.coeffs, e.coeffs)
            ),
            line,
        )
        a = expr_xy("x^2 + y")
        lhs = as_polynomial(apply(combo, line.element(a)).rep)
        rhs = c * as_polynomial(apply(d, line.element(a)).rep) + as_polynomial(
            apply(e, line.element(a)).rep
        )
        assert ideal.normal_form(lhs - rhs).is_zero()

    def test_lift_quotient_coherence(self):
        line = thickened_line()
        v = shear_field(line)
        ideal = line.poly_ideal()
        a = expr_xy("x*y + x^2")
        via_field = as_polynomial(v.directional(a))
        via_quotient = as_polynomial(apply(v, line.element(a)).rep)
        assert ideal.normal_form(via_field - via_quotient).is_zero()

    def test_bracket_coefficients(self):
        line = thickened_line()
        v = shear_field(line)
        u = LiftedField.from_strings(["1", "0"], line)
        br = lie_bracket(u, v)
        # [d/dx, d/dx + y d/dy] = 0
        assert all(simplify(c).value == 0 for c in br.coeffs)

    def test_bracket_recertified_not_assumed(self):
        axes = crossing_axes()
        a = LiftedField.from_strings(["x", "y"], axes)
        b = LiftedField.from_strings(["y", "x"], axes)
        br = lie_bracket(a, b)
        report = preserves_ideal(br)
        assert report.checks  # certification actually ran

