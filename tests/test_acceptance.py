"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Each criterion is checked at the tolerance stated in its assertion; elapsed
wall time is reported for orientation (not asserted).
"""

import itertools
import math
import random
import time

import numpy as np

from schemeflow.cli import EXIT_REFUSED, main
from schemeflow.cring import sample_zero_set
from schemeflow.curves import (
    CurveClass,
    IntegratorOptions,
    evaluate_curve,
    integrate_max_curve,
)
from schemeflow.derivation import (
    GeneratorStatus,
    LiftedField,
    hadamard_decompose,
    preserves_ideal,
)
from schemeflow.expr import (
    VarList,
    as_callable,
    as_polynomial,
    apply_operation,
    diff,
    evaluate,
    parse_expr,
    var,
)
from schemeflow.flow import (
    MemoFlow,
    closed_form_flow,
    flow_domain,
    scale_row_bounds,
    t_convexity_check,
)
from schemeflow.groupoid import check_axioms, check_ideal_inclusions, sample_arrows
from schemeflow.polyring import (
    PolyIdeal,
    Polynomial,
    bounded_membership,
    normal_form,
    pullback_ideal,
    s_polynomial,
)

from helpers import (
    XY,
    central_fd,
    crossing_axes,
    random_polynomial,
    random_smooth_expr,
    rotation_field,
    shear_field,
    square,
    square_exit_time,
    thickened_line,
)

XYT = VarList(("x", "y", "t"))
OPTS = IntegratorOptions(horizon=20.0)


def _report(num: int, started: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_preservation_certificates():
    t0 = time.perf_counter()
    axes = crossing_axes()
    euler = LiftedField.from_strings(["x", "y"], axes)
    rep1 = preserves_ideal(euler)
    image = as_polynomial(rep1.checks[0].image)
    ok = rep1.certified and image == as_polynomial(parse_expr("3*x^2*y", XY))

    line = thickened_line()
    rep2 = preserves_ideal(shear_field(line))
    ok = ok and rep2.certified

    vertical = LiftedField.from_strings(["0", "1"], line)
    rep3 = preserves_ideal(vertical)
    ok = ok and not rep3.certified
    ok = ok and rep3.checks[0].status is GeneratorStatus.NOT_CERTIFIED
    ok = ok and rep3.checks[0].residual == as_polynomial(parse_expr("2*y", XY))
    _report(1, t0, ok, "exact certificates incl. residual 2*y")


def test_criterion_2_line_flow_matches_translation():
    t0 = time.perf_counter()
    line = thickened_line()
    v = shear_field(line)
    worst = 0.0
    classes = set()
    for x0 in (-3.0, 0.0, 2.0):
        c = integrate_max_curve(v, line.point((x0, 0.0)), OPTS)
        classes.add(c.classification)
        for t in np.linspace(-10.0, 10.0, 201):
            state = evaluate_curve(c, t)
            worst = max(worst, abs(state[0] - (x0 + t)), abs(state[1]))
    ok = worst <= 1e-7 and classes == {CurveClass.HORIZON_COMPLETE}
    _report(2, t0, ok, f"max error {worst:.2e}, horizon-complete")


def test_criterion_3_square_trichotomy():
    t0 = time.perf_counter()
    sq = square()
    rot = rotation_field(sq)

    ok = True
    for p in ((0.5, 0.5), (0.0, 0.0), (-0.7, 0.1), (0.6, -0.6)):
        c = integrate_max_curve(rot, sq.point(p), OPTS)
        ok = ok and c.classification == CurveClass.HORIZON_COMPLETE

    for p in ((1.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
        c = integrate_max_curve(rot, sq.point(p), OPTS)
        ok = ok and c.classification == CurveClass.SINGLETON

    chord = integrate_max_curve(rot, sq.point((0.9, 0.9)), OPTS)
    t_exit = square_exit_time()  # bisection on the exact circular trajectory
    end_err = max(abs(chord.interval.hi - t_exit), abs(chord.interval.lo + t_exit))
    ok = ok and chord.classification == CurveClass.CLOSED and end_err <= 1e-5
    _report(3, t0, ok, f"endpoint error {end_err:.2e} vs bisection oracle")


def test_criterion_4_maximality_restriction():
    t0 = time.perf_counter()
    rng = random.Random(404)
    line = thickened_line()
    sq = square()
    fixtures = []
    for _ in range(10):
        fixtures.append((shear_field(line), line.point((rng.uniform(-2, 2), 0.0))))
    for _ in range(10):
        r = rng.uniform(0.0, 0.95)
        a = rng.uniform(0.0, 2 * math.pi)
        fixtures.append(
            (rotation_field(sq), sq.point((r * math.cos(a), r * math.sin(a))))
        )
    worst = 0.0
    for field_, point in fixtures:
        full = integrate_max_curve(field_, point, IntegratorOptions(horizon=16.0))
        half = integrate_max_curve(field_, point, IntegratorOptions(horizon=8.0))
        for t in np.linspace(half.interval.lo, half.interval.hi, 33):
            delta = np.abs(evaluate_curve(full, t) - evaluate_curve(half, t))
            worst = max(worst, float(np.max(delta)))
    ok = worst <= 1e-8
    _report(4, t0, ok, f"20 fixtures, max restriction mismatch {worst:.2e}")


def test_criterion_5_lift_representative_independence():
    t0 = time.perf_counter()
    rng = random.Random(505)
    line = thickened_line()
    base = shear_field(line)
    worst = 0.0
    for _ in range(8):
        q1 = _random_quadratic(rng)
        q2 = _random_quadratic(rng)
        shifted = LiftedField(
            (
                parse_expr(f"1 + y^2*({q1})", XY),
                parse_expr(f"y + y^2*({q2})", XY),
            ),
            line,
        )
        for x0 in (-1.0, 2.0):
            a = integrate_max_curve(base, line.point((x0, 0.0)), OPTS)
            b = integrate_max_curve(shifted, line.point((x0, 0.0)), OPTS)
            lo = max(-5.0, a.interval.lo, b.interval.lo)
            hi = min(5.0, a.interval.hi, b.interval.hi)
            for t in np.linspace(lo, hi, 41):
                delta = np.abs(evaluate_curve(a, t) - evaluate_curve(b, t))
                worst = max(worst, float(np.max(delta)))
    ok = worst <= 1e-6
    _report(5, t0, ok, f"ideal-shifted lifts, sup deviation {worst:.2e}")


def test_criterion_6_zero_set_laws():
    t0 = time.perf_counter()

    def P2(src):
        return as_polynomial(parse_expr(src, XY))

    def P3(src):
        return as_polynomial(parse_expr(src, XYT))

    ideals = [
        PolyIdeal((P2("y^2"),)),
        PolyIdeal((P2("x^2*y"),)),
        PolyIdeal((P2("x+y"), P2("x-y"))),
    ]
    maps = [
        [P3("x"), P3("y")],  # projection
        [P3("x+t"), P3("y")],  # shear
    ]
    tol = 1e-9
    axis3 = np.linspace(-2.0, 2.0, 41)
    grid3 = list(itertools.product(axis3, axis3, axis3))
    ok = True
    for ideal in ideals:
        target_fns = [as_callable(g.to_expr()) for g in ideal.gens]
        for comp in maps:
            pulled = pullback_ideal(ideal, comp)
            pulled_fns = [as_callable(g.to_expr()) for g in pulled.gens]
            comp_fns = [as_callable(c.to_expr()) for c in comp]
            for p in grid3:
                lhs = all(abs(f(p)) <= tol for f in pulled_fns)
                image = (comp_fns[0](p), comp_fns[1](p))
                rhs = all(abs(f(image)) <= tol for f in target_fns)
                if lhs != rhs:
                    ok = False

    axis2 = np.linspace(-2.0, 2.0, 41)
    grid2 = list(itertools.product(axis2, axis2))
    from schemeflow.polyring import ideal_sum

    for a, b in itertools.combinations(ideals, 2):
        s = ideal_sum(a, b)
        fa = [as_callable(g.to_expr()) for g in a.gens]
        fb = [as_callable(g.to_expr()) for g in b.gens]
        fs = [as_callable(g.to_expr()) for g in s.gens]
        for p in grid2:
            in_sum = all(abs(f(p)) <= tol for f in fs)
            in_both = all(abs(f(p)) <= tol for f in fa) and all(
                abs(f(p)) <= tol for f in fb
            )
            if in_sum != in_both:
                ok = False
    _report(6, t0, ok, "pullback and sum laws point-for-point on 41^n grids")


def test_criterion_7_flow_domain_structure():
    t0 = time.perf_counter()
    line = thickened_line()
    lgrid = sample_zero_set(line, ((-3, 3), (-1, 1)), 25)
    ldom = flow_domain(shear_field(line), lgrid, OPTS)
    lrep = t_convexity_check(ldom)

    sq = square()
    sgrid = sample_zero_set(sq, ((-1, 1), (-1, 1)), 5)  # 25 interior points
    sgrid = sgrid + [sq.point((0.9, 0.9)), sq.point((1.0, 1.0))]
    sdom = flow_domain(rotation_field(sq), sgrid, OPTS)
    srep = t_convexity_check(sdom)

    chord_index = next(
        i for i, row in enumerate(sdom.rows) if row.point.coords == (0.9, 0.9)
    )
    faulted = scale_row_bounds(sdom, chord_index, 1.1)
    frep = t_convexity_check(faulted)

    ok = (
        len(ldom.rows) >= 25
        and len(sdom.rows) >= 25
        and lrep.ok
        and srep.ok
        and not frep.ok
    )
    _report(
        7,
        t0,
        ok,
        f"0 violations honest ({lrep.checks}+{srep.checks} checks), "
        f"{len(frep.violations)} flagged after fault injection",
    )


def test_criterion_8_groupoid_suite():
    t0 = time.perf_counter()
    line = thickened_line()
    v = shear_field(line)
    arrows = sample_arrows(line, 100, seed=0, box=((-3, 3), (-1, 1)))

    numeric = check_axioms(MemoFlow(v, OPTS), arrows, tol=1e-6)
    psi = (parse_expr("x + t", XYT), parse_expr("y*exp(t)", XYT))
    closed = check_axioms(
        MemoFlow(v, OPTS), arrows, tol=1e-12, phi=closed_form_flow(psi)
    )
    incl = check_ideal_inclusions(line, psi, arrows, tol=1e-9)

    ok = numeric.passed and closed.passed and incl.passed

    import json, tempfile, os

    square_doc = {
        "variables": ["x", "y"],
        "region": ["x^2 - 1", "y^2 - 1"],
        "derivation": {"x": "-y", "y": "x"},
        "options": {"horizon": 20.0},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "square.json")
        with open(path, "w") as fh:
            json.dump(square_doc, fh)
        code = main(["groupoid", "--scheme", path, "--samples", "10"])
    ok = ok and code == EXIT_REFUSED
    _report(
        8,
        t0,
        ok,
        f"numeric {max(numeric.residuals.values()):.1e} <= 1e-6, "
        f"closed form {max(closed.residuals.values()):.1e} <= 1e-12, "
        f"identities {incl.flow_identity:.1e} <= 1e-9, square refused exit 3",
    )


def test_criterion_9_appendix_properties():
    t0 = time.perf_counter()
    rng = random.Random(909)
    checked = 0
    ok = True
    while checked < 200:
        e = random_smooth_expr(rng, XY)
        i = rng.randrange(2)
        p = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        fd = central_fd(e, i, p)
        if abs(fd) > 1e6:
            continue
        got = evaluate(diff(e, i), p)
        if abs(got - fd) > 1e-5 * (1 + abs(fd)):
            ok = False
        checked += 1

    for _ in range(50):
        n = rng.randint(1, 3)
        vl = VarList(tuple(f"x{i}" for i in range(n)))
        doubled = VarList(tuple(vl.names) + tuple(f"{m}__y" for m in vl.names))
        xs = [Polynomial.variable(i, doubled) for i in range(n)]
        ys = [Polynomial.variable(n + i, doubled) for i in range(n)]
        f = random_polynomial(rng, vl, 4)
        gs = hadamard_decompose(f)
        lhs = f.compose(xs) - f.compose(ys)
        rhs = Polynomial({}, doubled)
        for i in range(n):
            rhs = rhs + (xs[i] - ys[i]) * gs[i]
        if not (lhs - rhs).is_zero():
            ok = False

    args = (parse_expr("x+t", XYT), parse_expr("y*exp(t)", XYT))
    for j in range(2):
        if apply_operation(var(j, XY), args) != args[j]:
            ok = False
    _report(9, t0, ok, "chain rule vs FD (200), exact Hadamard (50), projections")


def test_criterion_10_groebner_oracle():
    t0 = time.perf_counter()

    def P2(src):
        return as_polynomial(parse_expr(src, XY))

    fixtures = [
        ((P2("y^2"),), ["y^2", "3*y^2", "y", "x*y^2", "x", "x*y", "y^2+x"]),
        ((P2("x*y"),), ["x*y", "x^2*y", "x+y", "1", "x*y+x"]),
        ((P2("x+y"), P2("x-y")), ["x", "y", "x^2", "x*y", "1", "x+2*y"]),
        ((P2("x^2"), P2("y^2")), ["x^2*y^2", "x^2+y^2", "x*y", "x", "x^2*y"]),
        ((P2("x^2-y"),), ["x^2-y", "x^4 - y^2", "x^2", "y"]),
    ]
    ok = True
    for gens, probes in fixtures:
        ideal = PolyIdeal(gens)
        basis = ideal.groebner()
        for i in range(len(basis)):
            for j in range(i):
                s = s_polynomial(basis[i], basis[j], ideal.order)
                if not normal_form(s, basis, ideal.order).is_zero():
                    ok = False
        for src in probes:
            p = P2(src)
            nf_member = ideal.normal_form(p).is_zero()
            brute = bounded_membership(p, list(gens), max(p.total_degree(), 0))
            if nf_member != brute:
                ok = False
    _report(10, t0, ok, "NF membership = bounded brute force; S-poly criterion")


def _random_quadratic(rng) -> str:
    terms = []
    for i in range(3):
        for j in range(3 - i):
            c = rng.randint(-2, 2)
            if c:
                terms.append(f"{c}*x^{i}*y^{j}")
    return " + ".join(terms) if terms else "0"
