"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: finite
differences for symbolic derivatives, closed-form trajectories for the
integrator, bisection on exact geometry for interval endpoints.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np

from schemeflow import curves as cv
from schemeflow import derivation as dv
from schemeflow import expr as ex
from schemeflow.cring import PointNotOnScheme, SchemePoint, SchemePresentation
from schemeflow.derivation import LiftedField
from schemeflow.expr import (
    SmoothExpr,
    VarList,
    cut,
    evaluate,
    parse_expr,
)

XY = VarList(("x", "y"))


def expr_xy(src: str) -> SmoothExpr:
    return parse_expr(src, XY)


def thickened_line(eps_z: float = 1e-9) -> SchemePresentation:
    """Zero set = the x-axis, cut out by y^2 (a nonreduced presentation)."""
    return SchemePresentation(XY, ideal_gens=(expr_xy("y^2"),), eps_z=eps_z)


def crossing_axes(eps_z: float = 1e-9) -> SchemePresentation:
    """Zero set = union of the coordinate axes, cut out by x^2*y."""
    return SchemePresentation(XY, ideal_gens=(expr_xy("x^2*y"),), eps_z=eps_z)


def square(eps_z: float = 1e-9) -> SchemePresentation:
    """The closed unit square as a region presentation: x^2-1 <= 0, y^2-1 <= 0."""
    return SchemePresentation(XY, region=(expr_xy("x^2-1"), expr_xy("y^2-1")), eps_z=eps_z)


def circle(eps_z: float = 1e-7) -> SchemePresentation:
    """The unit circle; looser tolerance absorbs integrator drift along it."""
    return SchemePresentation(XY, ideal_gens=(expr_xy("x^2+y^2-1"),), eps_z=eps_z)


def shear_field(scheme: SchemePresentation) -> LiftedField:
    """d/dx + y d/dy: translates the x-axis, preserves the y^2 ideal."""
    return LiftedField.from_strings(["1", "y"], scheme)


def rotation_field(scheme: SchemePresentation) -> LiftedField:
    """-y d/dx + x d/dy: rigid rotation."""
    return LiftedField.from_strings(["-y", "x"], scheme)


# -- oracles ---------------------------------------------------------------


def reference_evaluate(e: SmoothExpr, point) -> float:
    """Tree-walk evaluation, the oracle for the compiled evaluator: sums are
    compensated (``math.fsum``) rather than left to right, every other node
    follows the compiled rules on Python floats (guards raise
    GuardViolation, exp and the cutoffs overflow to inf).  A power that
    overflows raises OverflowError here; the compiled code gives +-inf."""
    if len(point) != e.vars.arity:
        raise ValueError(f"point length {len(point)} != arity {e.vars.arity}")
    return _walk(e, point)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_guard(guard, p) -> None:
    if guard is not None and not all(lo <= x <= hi for (lo, hi), x in zip(guard, p)):
        raise ex.GuardViolation(f"point {tuple(p)} outside declared guard box {guard}")


def _walk(e: SmoothExpr, p) -> float:
    kind = e.kind
    if kind == "const":
        return float(e.value)
    if kind == "var":
        return float(p[e.index])
    if kind == "add":
        return math.fsum(_walk(c, p) for c in e.children)
    if kind == "mul":
        out = 1.0
        for c in e.children:
            out *= _walk(c, p)
        return out
    if kind == "neg":
        return -_walk(e.children[0], p)
    if kind == "pow":
        return _walk(e.children[0], p) ** e.exponent
    if kind == "div":
        _check_guard(e.guard, p)
        den = _walk(e.children[1], p)
        if den == 0.0:
            raise ex.GuardViolation("division by zero")
        return _walk(e.children[0], p) / den
    if kind == "exp":
        return _exp_or_inf(_walk(e.children[0], p))
    if kind == "log":
        _check_guard(e.guard, p)
        arg = _walk(e.children[0], p)
        if arg <= 0.0:
            raise ex.GuardViolation(f"log of nonpositive value {arg}")
        return math.log(arg)
    if kind == "sin":
        return math.sin(_walk(e.children[0], p))
    if kind == "cos":
        return math.cos(_walk(e.children[0], p))
    if kind == "cut":
        s = _walk(e.children[0], p)
        if s <= 0.0:
            return 0.0
        return _exp_or_inf(-1.0 / s - e.cut_order * math.log(s))
    raise AssertionError(f"unhandled node kind {kind!r}")


def forbid_evaluate(monkeypatch) -> None:
    """Make ``expr.evaluate`` raise, so a test shows that the code it runs
    evaluates its sample points in batches, not one by one."""

    def refuse(e, point):
        raise AssertionError("point-by-point evaluate called")

    monkeypatch.setattr(ex, "evaluate", refuse)


def central_fd(e: SmoothExpr, index: int, point, h: float = 1e-6) -> float:
    up = list(point)
    dn = list(point)
    up[index] += h
    dn[index] -= h
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)


def square_exit_time() -> float:
    """Forward exit time of the rotation trajectory from (0.9, 0.9), located
    by bisection on the closed-form circular trajectory against the square.

    Exact geometry: the point rides the circle of radius 0.9*sqrt(2); the
    curve leaves the square when a coordinate magnitude first exceeds 1.
    """
    r = 0.9 * math.sqrt(2.0)
    theta0 = math.pi / 4

    def inside(t: float) -> bool:
        x = r * math.cos(theta0 + t)
        y = r * math.sin(theta0 + t)
        return abs(x) <= 1.0 and abs(y) <= 1.0

    lo, hi = 0.0, 1.0
    assert inside(lo) and not inside(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_smooth_expr(rng: random.Random, vl: VarList, depth: int = 3) -> SmoothExpr:
    """Random expression over safe heads (no quotients or logs), with
    magnitudes kept tame so finite differences stay well conditioned."""
    from schemeflow.expr import const, var

    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return var(rng.randrange(vl.arity), vl)
        return const(rng.randint(-3, 3), vl)
    pick = rng.random()
    a = random_smooth_expr(rng, vl, depth - 1)
    if pick < 0.25:
        b = random_smooth_expr(rng, vl, depth - 1)
        return a + b
    if pick < 0.5:
        b = random_smooth_expr(rng, vl, depth - 1)
        return a * b
    if pick < 0.6:
        return -a
    if pick < 0.7:
        return a ** rng.randint(1, 3)
    if pick < 0.8:
        from schemeflow.expr import sin as sin_
        return sin_(a)
    if pick < 0.9:
        from schemeflow.expr import cos as cos_
        return cos_(a)
    if pick < 0.97:
        from schemeflow.expr import const, exp as exp_
        return exp_(const(3, vl) / 10 * a)
    return cut(a)


def random_polynomial(rng: random.Random, vl: VarList, degree: int, terms: int = 4):
    """Random exact polynomial as a Polynomial value."""
    from fractions import Fraction

    from schemeflow.polyring import Polynomial

    n = vl.arity
    body = {}
    for _ in range(terms):
        exps = [0] * n
        budget = rng.randint(0, degree)
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        body[tuple(exps)] = body.get(tuple(exps), Fraction(0)) + Fraction(
            rng.randint(-4, 4)
        )
    return Polynomial(body, vl)


def reference_image(field: LiftedField, g: SmoothExpr):
    """V(g) by the expression route: ``field.directional(g)`` (a simplified
    tree), converted by ``as_polynomial``; None when it does not convert.
    Oracle for the image ``preserves_ideal`` builds in the polynomial ring."""
    return ex.as_polynomial(field.directional(g))


def reference_normal_form(p, divisors, order, quotients=False):
    """Multivariate division by a full ``max`` scan of the working terms at
    every step, each term reduced by the first divisor whose leading
    monomial divides it.  Oracle for the heap-ordered ``normal_form``; with
    ``quotients`` it returns ``(quotients, remainder)`` like it."""
    from fractions import Fraction

    from schemeflow.polyring import Polynomial

    lead = [
        (k, g.leading_monomial(order), g.leading_coeff(order), g)
        for k, g in enumerate(divisors)
        if not g.is_zero()
    ]
    quots = [{} for _ in divisors]
    remainder = {}
    work = dict(p.terms)
    while work:
        m = max(work, key=order.key)
        c = work[m]
        for k, lm, lc, g in lead:
            if all(x <= y for x, y in zip(lm, m)):
                q = tuple(x - y for x, y in zip(m, lm))
                factor = c / lc
                quots[k][q] = quots[k].get(q, Fraction(0)) + factor
                for gm, gc in g.terms.items():
                    mm = tuple(a + b for a, b in zip(gm, q))
                    s = work.get(mm, Fraction(0)) - factor * gc
                    if s == 0:
                        work.pop(mm, None)
                    else:
                        work[mm] = s
                break
        else:
            remainder[m] = c
            del work[m]
    r = Polynomial(remainder, p.vars)
    if not quotients:
        return r
    return [Polynomial(q, p.vars) for q in quots], r


def reference_groebner_basis(gens, order, degree_cap=40):
    """Plain Buchberger: every pair re-sorted by (lcm degree, i, j) each
    round, pruned only by coprime leading monomials, each S-polynomial
    reduced by ``reference_normal_form`` against every element so far, then
    the same minimalization and inter-reduction.  Oracle for
    ``groebner_basis``."""
    from schemeflow.polyring import DegreeCapExceeded, s_polynomial

    def lm(g):
        return g.leading_monomial(order)

    def lcm(a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    basis = [g.monic(order) for g in gens if not g.is_zero()]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        pairs.sort(key=lambda ij: (sum(lcm(lm(basis[ij[0]]), lm(basis[ij[1]]))),) + ij)
        i, j = pairs.pop(0)
        li, lj = lm(basis[i]), lm(basis[j])
        if lcm(li, lj) == tuple(a + b for a, b in zip(li, lj)):
            continue
        r = reference_normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if r.is_zero():
            continue
        if r.total_degree() > degree_cap:
            raise DegreeCapExceeded(f"intermediate degree {r.total_degree()}")
        basis.append(r.monic(order))
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    basis.sort(key=lambda g: order.key(lm(g)))
    minimal = []
    for g in basis:
        if not any(divides(lm(h), lm(g)) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = reference_normal_form(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(lm(g)))
    return reduced


def katsura(n: int):
    """The katsura-n system over u0..un, as Polynomials."""
    from schemeflow.expr import as_polynomial

    names = tuple(f"u{i}" for i in range(n + 1))
    vl = VarList(names)

    def u(l):
        return names[abs(l)] if abs(l) <= n else None

    gens = [" + ".join([names[0]] + [f"2*{names[l]}" for l in range(1, n + 1)]) + " - 1"]
    for m in range(n):
        terms = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if u(l) and u(m - l)]
        gens.append(" + ".join(terms) + f" - {names[m]}")
    return [as_polynomial(parse_expr(g, vl)) for g in gens]


def cyclic(n: int):
    """The cyclic-n system over x0..x(n-1), as Polynomials."""
    from schemeflow.expr import as_polynomial

    names = tuple(f"x{i}" for i in range(n))
    vl = VarList(names)
    gens = []
    for d in range(1, n):
        terms = ["*".join(names[(i + k) % n] for k in range(d)) for i in range(n)]
        gens.append(" + ".join(terms))
    gens.append("*".join(names) + " - 1")
    return [as_polynomial(parse_expr(g, vl)) for g in gens]


def reference_dedup(points, radius: float) -> list[int]:
    """Greedy dedup by an O(n^2) scan: indices of the rows kept when a row is
    dropped for lying closer than ``radius`` in every coordinate to an
    earlier kept row."""
    keep: list[int] = []
    for i, p in enumerate(points):
        if all(np.max(np.abs(points[j] - p)) >= radius for j in keep):
            keep.append(i)
    return keep


def reference_sample_zero_set(scheme, box, resolution, polish_steps=30):
    """Point-by-point zero-set sampler: grid scan, then one damped
    Gauss-Newton solve per miss (one ``lstsq`` per step), then dedup against
    every accepted point.  Oracle for the batched ``sample_zero_set``."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in box]
    spacing = min((hi - lo) / (resolution - 1) for lo, hi in box)
    dedup_radius = 0.5 * spacing
    residual = scheme.residual_fn()
    gen_fns = [ex.as_callable(g) for g in scheme.ideal_gens]
    grad_fns = [
        [ex.as_callable(ex.diff(g, i)) for i in range(scheme.arity)]
        for g in scheme.ideal_gens
    ]
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    accepted: list[np.ndarray] = []

    def consider(p):
        if residual(p) > scheme.eps_z:
            return
        for q in accepted:
            if np.max(np.abs(q - p)) < dedup_radius:
                return
        accepted.append(p.copy())

    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    misses = []
    for row in grid:
        p = np.asarray(row, dtype=float)
        if residual(p) <= scheme.eps_z:
            consider(p)
        else:
            misses.append(p)
    for p in misses:
        if not gen_fns:
            break
        q = p.copy()
        ok = False
        for _ in range(polish_steps):
            g = np.array([f(q) for f in gen_fns])
            if np.max(np.abs(g)) <= 0.01 * scheme.eps_z:
                ok = True
                break
            J = np.array([[df(q) for df in row_] for row_ in grad_fns])
            if not np.all(np.isfinite(J)) or not np.all(np.isfinite(g)):
                break
            step, *_ = np.linalg.lstsq(J, -g, rcond=None)
            if not np.all(np.isfinite(step)) or np.max(np.abs(step)) < 1e-16:
                break
            q = np.clip(q + step, lows, highs)
        if ok or residual(q) <= scheme.eps_z:
            consider(q)
    return [SchemePoint(tuple(float(c) for c in p)) for p in accepted]


# -- the per-curve integrator, as the oracle for the lockstep one -----------


def _reference_stages(f, y, h, K, stages):
    with np.errstate(over="ignore", invalid="ignore"):
        for s in stages:
            K[s] = f(y + h * (cv._A[s, :s] @ K[:s]))


def _reference_rk_step(f, y, h, k1):
    """One DOP853 attempt on one state: (y_new, K (16, n) with stages 0-12
    filled, and the 5th- and 3rd-order error estimates without their
    factor h)."""
    K = np.empty((16, len(y)))
    K[0] = k1
    _reference_stages(f, y, h, K, range(1, 13))
    with np.errstate(over="ignore", invalid="ignore"):
        y_new = y + h * (cv._B @ K[:12])
    return y_new, K, cv._E5 @ K[:12], cv._E3 @ K[:12]


def _reference_dense_coeffs(f, y, h, K):
    """The three extra stages of an accepted step, then its (n, 7)
    dense-output coefficients."""
    _reference_stages(f, y, h, K, range(13, 16))
    return K.T @ cv._P


def _reference_error_norm(h, y, y_new, e5, e3, opts) -> float:
    """DOP853's combined 5th/3rd-order error norm of one step."""
    if not all(np.all(np.isfinite(a)) for a in (y_new, e5, e3)):
        return math.inf
    scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    x5, x3 = e5 / scale, e3 / scale
    s5, s3 = float(x5 @ x5), float(x3 @ x3)
    if s5 == 0.0:
        return 0.0
    norm = abs(h) * s5 / math.sqrt((s5 + 0.01 * s3) * len(y))
    return norm if math.isfinite(norm) else math.inf


def reference_integrate_direction(rhs, y0, sign, residual, eps_z, opts):
    """One direction of one curve, one DOP853 step at a time with
    the point-wise field ``rhs``: the step loop ``curves`` ran before it
    integrated lanes in lockstep, with the step floor tested before every
    attempt.  Returns (steps, bound, closed, at_horizon), ``steps`` a
    ``curves.Steps``."""
    t = 0.0
    y = y0.copy()
    k1 = rhs(y)
    if not np.all(np.isfinite(k1)):
        raise ex.GuardViolation("field not finite at the base point")
    h_abs = min(cv._initial_step(rhs, y, k1, opts), opts.horizon)
    rows = []  # [t0, h, y0, coeffs] of each accepted step

    def steps():
        return cv._steps(rows, len(y0))

    thetas = np.arange(1, cv.CHECKPOINTS_PER_STEP + 1) / cv.CHECKPOINTS_PER_STEP
    while abs(t) < opts.horizon:
        if len(rows) >= opts.max_steps:
            raise cv.StepLimitExceeded(f"exceeded {opts.max_steps} accepted steps")
        while True:
            # the floor tests the controller's step, before the horizon clip
            if h_abs < 1e-14 * max(1.0, abs(t)):
                return steps(), t, False, False
            h_abs = min(h_abs, opts.horizon - abs(t))
            h = sign * h_abs
            y_new, K, e5, e3 = _reference_rk_step(rhs, y, h, k1)
            err_norm = _reference_error_norm(h, y, y_new, e5, e3, opts)
            if err_norm <= 1.0:
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.125))
                h_next = h_abs * factor
                break
            h_abs = h_abs * max(0.2, 0.9 * err_norm**-0.125)
        c = _reference_dense_coeffs(rhs, y, h, K)
        rows.append(np.concatenate(([t, h], y, c.ravel())))
        checkpoints = cv._dense(y[:, None], h, c.T[..., None], ((t + thetas * h) - t) / h)
        bad = next((j for j, s in enumerate(checkpoints.T) if residual(s) > eps_z), None)
        if bad is not None:
            bound, _ = reference_bisect(residual, eps_z, t, h, y, c, bad, opts.event_tol)
            return steps(), bound, True, False
        t = t + h
        y = y_new
        k1 = K[12]
        h_abs = h_next
    return steps(), sign * opts.horizon, True, True


def reference_bisect(residual, eps_z, t, h, y, c, bad, event_tol):
    """The bisection of one exit, one state per residual call, in the step
    from ``t`` (signed step ``h``, state ``y``, coefficients ``c`` (n, 7))
    whose checkpoint ``bad`` fails first: (the bound, the levels walked).
    It bisects on times; the bound is the last time whose state passed."""
    thetas = np.arange(1, cv.CHECKPOINTS_PER_STEP + 1) / cv.CHECKPOINTS_PER_STEP
    lo = t + float(thetas[bad - 1]) * h if bad else t
    hi = t + float(thetas[bad]) * h
    levels = 0
    while abs(hi - lo) > event_tol and lo != 0.5 * (lo + hi) != hi:
        mid = 0.5 * (lo + hi)
        levels += 1
        if residual(cv._dense(y, h, c.T, (mid - t) / h)) > eps_z:
            hi = mid
        else:
            lo = mid
    return lo, levels


def reference_integrate_max_curve(field, point, opts=cv.IntegratorOptions()):
    """A maximal curve from the per-curve loop above, with the point-wise
    field: the singleton probe, then the forward and the backward direction."""
    scheme = field.home
    residual = scheme.residual_fn()
    y0 = np.array(point.coords, dtype=float)
    if residual(y0) > scheme.eps_z:
        raise PointNotOnScheme(f"base point {point.coords} is not on the zero set")
    rhs = dv.lift(field)
    h0 = opts.probe_step
    singleton = True
    for sign in (1.0, -1.0):
        h = sign * 4 * h0
        _, K, _, _ = _reference_rk_step(rhs, y0, h, rhs(y0))
        c = _reference_dense_coeffs(rhs, y0, h, K)
        u = np.array([sign * m * h0 for m in (1, 2, 4)]) / h
        probes = cv._dense(y0[:, None], h, c.T[..., None], u)
        if any(residual(state) <= scheme.eps_z for state in probes.T):
            singleton = False
            break
    if singleton:
        interval = cv.IntervalRecord(0.0, 0.0)
        none = cv._steps([], len(y0))
        return cv.IntegralCurve(point, interval, none, none, scheme, cv.CurveClass.SINGLETON)
    fwd = reference_integrate_direction(rhs, y0, 1.0, residual, scheme.eps_z, opts)
    bwd = reference_integrate_direction(rhs, y0, -1.0, residual, scheme.eps_z, opts)
    interval = cv.IntervalRecord(
        bwd[1], fwd[1], bwd[2], fwd[2], lo_at_horizon=bwd[3], hi_at_horizon=fwd[3]
    )
    curve = cv.IntegralCurve(point, interval, fwd[0], bwd[0], scheme, "")
    return replace(curve, classification=cv.classify_interval(curve))


def first_steps(steps, k: int):
    """The first ``k`` steps of a ``curves.Steps``."""
    return cv.Steps(steps.t0[:k], steps.h[:k], steps.y0[:k], steps.coeffs[:k])


def steps_identical(s, r) -> bool:
    """Same steps and dense output, bit for bit."""
    return all(
        a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in ((s.t0, r.t0), (s.h, r.h), (s.y0, r.y0), (s.coeffs, r.coeffs))
    )


def curves_identical(a, b) -> bool:
    """Same interval, flags, class and dense output, bit for bit."""
    if (a.interval, a.classification) != (b.interval, b.classification):
        return False
    return steps_identical(a.forward, b.forward) and steps_identical(a.backward, b.backward)


class IntegrationLog:
    """The base points ``curves.integrate_max_curves`` is asked for, one list
    per call (``integrate_max_curve`` is a call with one point), and the
    options and ``reach`` of each call."""

    def __init__(self):
        self.batches: list[list[tuple]] = []
        self.options: list[cv.IntegratorOptions] = []
        self.reaches: list = []

    @property
    def points(self) -> list[tuple]:
        return [c for batch in self.batches for c in batch]


def count_integrations(monkeypatch) -> IntegrationLog:
    log = IntegrationLog()
    real = cv.integrate_max_curves

    def counting(field, points, opts=cv.IntegratorOptions(), reach=None):
        points = list(points)
        log.batches.append([p.coords for p in points])
        log.options.append(opts)
        log.reaches.append(reach)
        return real(field, points, opts, reach)

    monkeypatch.setattr(cv, "integrate_max_curves", counting)
    return log
