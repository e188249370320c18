import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemeflow.cring import SchemePresentation
from schemeflow.expr import (
    GuardViolation,
    NonSmoothError,
    ParseError,
    SmoothExpr,
    VarList,
    apply_operation,
    as_callable,
    as_polynomial,
    const,
    diff,
    evaluate,
    format_expr,
    majorant,
    parse_expr,
    simplify,
    unary,
    var,
    variables,
)

from helpers import central_fd, random_smooth_expr, reference_evaluate

XY = VarList(("x", "y"))
XYT = VarList(("x", "y", "t"))


class TestParse:
    def test_power_literal(self):
        e = parse_expr("y^2", XY)
        assert e.kind == "pow" and e.exponent == 2
        assert e.children[0].kind == "var" and e.children[0].index == 1

    def test_product_of_exp_and_square(self):
        e = parse_expr("exp(2*t)*y^2", XYT)
        assert e.kind == "mul"
        assert e.children[0].kind == "exp"
        assert e.children[1].kind == "pow"

    def test_non_smooth_head_rejected(self):
        with pytest.raises(NonSmoothError):
            parse_expr("abs(x)", XY)
        with pytest.raises(NonSmoothError):
            parse_expr("floor(x + y)", XY)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("x + z", XY)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x + * y", XY)
        assert err.value.position == 4

    def test_rational_literals_exact(self):
        e = parse_expr("1/3", XY)
        assert e.kind == "const" and e.value == Fraction(1, 3)
        e = parse_expr("2.5*x", XY)
        assert e.children[0].value == Fraction(5, 2)

    def test_unary_minus_binds_the_base(self):
        # per the grammar, '-x^2' is (-x)^2
        e = parse_expr("-x^2", XY)
        assert e.kind == "pow" and e.children[0].kind == "neg"

    def test_cut_family_heads(self):
        assert parse_expr("cut(x)", XY).cut_order == 0
        assert parse_expr("cut_3(x)", XY).cut_order == 3
        with pytest.raises(ParseError):
            parse_expr("cut_0(x)", XY)

    def test_variable_as_function_head_rejected(self):
        with pytest.raises(ParseError, match="function head"):
            parse_expr("x(y)", XY)

    @pytest.mark.parametrize(
        "src, value",
        [("1e6", 10**6), ("2.5e-3", Fraction(1, 400)), ("1E3", 1000), ("3.e2", 300), (".5e+1", 5)],
    )
    def test_scientific_notation_is_exact(self, src, value):
        e = parse_expr(src, XY)
        assert e.kind == "const" and e.value == value

    @pytest.mark.parametrize(
        "src, position", [("1e", 1), ("x + 1e+", 5), ("2e-y", 1), ("1e10000", 2)]
    )
    def test_malformed_exponent_carries_position(self, src, position):
        with pytest.raises(ParseError) as err:
            parse_expr(src, XY)
        assert err.value.position == position

    def test_power_exponent_stays_an_integer(self):
        with pytest.raises(ParseError, match="integer exponent"):
            parse_expr("x^1e3", XY)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("x + y)", XY)
        with pytest.raises(ParseError):
            parse_expr("(x + y", XY)


class TestEval:
    def test_monomial(self):
        e = parse_expr("x^2*y", XY)
        assert evaluate(e, (2, 3)) == 12

    def test_time_zero_identity(self):
        e = parse_expr("exp(2*t)*y^2", XYT)
        assert evaluate(e, (5, 1, 0)) == 1.0

    def test_cut_flat_side(self):
        e = parse_expr("cut(x)", XY)
        assert evaluate(e, (-1, 0)) == 0.0
        assert evaluate(e, (0, 0)) == 0.0
        assert evaluate(e, (1, 0)) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_guards_raise_not_nan(self):
        q = parse_expr("1/x", XY)
        with pytest.raises(GuardViolation):
            evaluate(q, (0, 1))
        lg = parse_expr("log(x)", XY)
        with pytest.raises(GuardViolation):
            evaluate(lg, (-2, 0))
        assert evaluate(lg, (math.e, 0)) == pytest.approx(1.0)

    def test_declared_guard_box_enforced(self):
        from schemeflow.expr import SmoothExpr, log, var

        x = var("x", XY)
        guarded = log(x, guard=((0.5, 10.0), (-10.0, 10.0)))
        assert evaluate(guarded, (2.0, 0.0)) == pytest.approx(math.log(2.0))
        with pytest.raises(GuardViolation, match="guard box"):
            evaluate(guarded, (0.1, 0.0))  # positive, but outside the box
        div = SmoothExpr("div", XY, (x, x), guard=((1.0, 3.0), (-1.0, 1.0)))
        with pytest.raises(GuardViolation, match="guard box"):
            evaluate(div, (5.0, 0.0))
        compiled = __import__("schemeflow.expr", fromlist=["as_callable"]).as_callable(
            guarded
        )
        with pytest.raises(GuardViolation):
            compiled((0.1, 0.0))

    def test_arity_checked(self):
        with pytest.raises(ValueError):
            evaluate(parse_expr("x", XY), (1,))
        # the compiled callable checks a point's or a batch's coordinates itself
        f = as_callable(parse_expr("x*y", XY))
        for p in [(1.0,), (1.0, 2.0, 3.0), np.ones((3, 4))]:
            with pytest.raises(ValueError, match=f"point length {len(p)} != arity 2"):
                f(p)

    @staticmethod
    def _check_against_tree_walk(e, points, tol):
        f = as_callable(e)
        batch = as_callable(e)(np.array(points).T)
        assert batch.shape == (len(points),)
        for p, b in zip(points, batch):
            want = reference_evaluate(e, p)
            assert f(p) == pytest.approx(want, rel=tol, abs=tol)
            assert evaluate(e, p) == f(p)
            assert b == pytest.approx(want, rel=tol, abs=tol)

    def test_compiled_matches_tree_walk(self):
        rng = random.Random(7)
        for _ in range(50):
            e = random_smooth_expr(rng, XY)
            points = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(5)]
            self._check_against_tree_walk(e, points, 1e-13)

    def test_compiled_matches_tree_walk_on_derivatives(self):
        # derivatives introduce the higher cutoff kernels; the compiled path
        # must agree with the tree walk on them too
        rng = random.Random(8)
        for _ in range(30):
            e = diff(random_smooth_expr(rng, XY), rng.randrange(2))
            points = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(4)]
            self._check_against_tree_walk(e, points, 1e-12)

    def test_sums_add_left_to_right(self):
        # no compensated summation: 1 + 10^16 rounds to 10^16 first
        e = parse_expr("x + 10^16 - 10^16", XY)
        assert evaluate(e, (1.0, 0.0)) == 0.0
        assert as_callable(e)(np.array([[1.0], [0.0]])).tolist() == [0.0]
        assert reference_evaluate(e, (1.0, 0.0)) == 1.0

    def test_constant_batch_gives_one_value_per_point(self):
        f = as_callable(parse_expr("sin(2) + 1/3", XY))
        assert f(np.zeros((2, 3))).tolist() == [math.sin(2) + 1 / 3] * 3


def _overflow_evaluators(e, point):
    """The value of ``e`` at ``point`` through every evaluator that takes
    one: evaluate, point-wise and batch compiled code, and the residual of
    a scheme whose only generator (or region constraint) is ``e``."""
    col = np.array([point], dtype=float).T
    gen = SchemePresentation(e.vars, ideal_gens=(e,)).residual_fn()
    region = SchemePresentation(e.vars, region=(e,)).residual_fn()
    return {
        "evaluate": evaluate(e, point),
        "pointwise": as_callable(e)(point),
        "batch": as_callable(e)(col)[0],
        "residual": gen(point),
        "residual-batch": gen(col)[0],
        "region": region(point),
        "region-batch": region(col)[0],
    }


# (expression, point, value): every evaluator gives the value, and the
# residual its absolute value (a region constraint max(value, 0))
_OVERFLOW_TABLE = [
    ("x^400 - 1", (1e3, 0.0), math.inf),
    ("x^400 - 1", (np.float64(1e3), np.float64(0.0)), math.inf),
    ("x^401", (-1e3, 0.0), -math.inf),
    ("x^401", (np.float64(-1e3), np.float64(0.0)), -math.inf),
    ("exp(800*x) - y", (1.0, 0.0), math.inf),
    ("exp(800*x) - y", (np.float64(1.0), np.float64(0.0)), math.inf),
    ("0 - (x*10^300)^2", (1.0, 0.0), -math.inf),
    ("10^400*x - 1", (1.0, 0.0), math.inf),
]


class TestOverflow:
    """Overflow gives +-inf from every evaluator and raises nothing, also
    under a numpy error state that raises."""

    @pytest.mark.parametrize("src, point, value", _OVERFLOW_TABLE)
    @pytest.mark.parametrize("errors", ["ignore", "warn", "raise"])
    def test_every_evaluator_gives_inf(self, src, point, value, errors):
        e = parse_expr(src, XY)
        with warnings.catch_warnings(), np.errstate(all=errors):
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _overflow_evaluators(e, point)
        want = {
            "evaluate": value,
            "pointwise": value,
            "batch": value,
            "residual": abs(value),
            "residual-batch": abs(value),
            "region": max(value, 0.0),
            "region-batch": max(value, 0.0),
        }
        assert got == want

    def test_python_floats_neither_warn_nor_raise(self):
        e = parse_expr("x^400 - 1", XY)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate(e, (1e3, 0.0)) == math.inf
            assert as_callable(e)((1e3, 0.0)) == math.inf

    def test_constants_beyond_double_range_give_inf(self):
        # simplify folds 10^400 into one constant, which no double holds
        for src, value in (("10^400*x - 1", math.inf), ("0 - 10^400*x", -math.inf)):
            e = simplify(parse_expr(src, XY))
            assert Fraction(10**400) in {c.value for c in e.children[0].children}
            assert evaluate(e, (1.0, 0.0)) == value
            assert as_callable(e)(np.array([[1.0], [0.0]])).tolist() == [value]

    def test_overflow_keeps_guards_and_math_domains(self):
        # the overflow fallback still raises what the point would raise
        with pytest.raises(ValueError):
            evaluate(parse_expr("sin(x^400)", XY), (1e3, 0.0))
        with pytest.raises(GuardViolation):
            evaluate(parse_expr("x^400/y", XY), (1e3, 0.0))
        assert evaluate(parse_expr("1/x^400", XY), (1e3, 0.0)) == 0.0
        assert evaluate(parse_expr("exp(0 - x^400)", XY), (1e3, 0.0)) == 0.0
        assert math.isnan(evaluate(parse_expr("x^400 - y^400", XY), (1e3, 1e3)))


_GUARD = ((-2.0, 2.0), (-2.0, 2.0))
_LEAVES = st.one_of(
    st.integers(0, 1).map(lambda i: var(i, XY)),
    st.sampled_from([0, 1, -2, Fraction(1, 3), Fraction(10**400), -Fraction(10**400)]).map(
        lambda v: const(v, XY)
    ),
)


def _nodes(children):
    """Every node kind, with and without a declared guard box."""
    guards = st.sampled_from([None, _GUARD])
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda cs: SmoothExpr("add", XY, tuple(cs))),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: SmoothExpr("mul", XY, tuple(cs))),
        children.map(lambda c: SmoothExpr("neg", XY, (c,))),
        st.builds(lambda c, k: SmoothExpr("pow", XY, (c,), exponent=k), children, st.integers(0, 5)),
        st.builds(lambda a, b, g: SmoothExpr("div", XY, (a, b), guard=g), children, children, guards),
        st.builds(lambda h, c, g: unary(h, c, guard=g if h == "log" else None),
                  st.sampled_from(["exp", "log", "sin", "cos"]), children, guards),
        st.builds(lambda c, k: SmoothExpr("cut", XY, (c,), cut_order=k), children, st.integers(0, 3)),
    )


_TREES = st.recursive(_LEAVES, _nodes, max_leaves=8)
_COORDS = st.one_of(
    st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e3, -1e3, math.inf, math.nan])
)


class TestPointIsOneColumn:
    @settings(max_examples=300, deadline=None)
    @given(
        e=_TREES,
        others=st.lists(_TREES, max_size=3),
        points=st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=6),
    )
    def test_point_equals_its_batch_column(self, e, others, points):
        # a tuple's rows are its members' own values, bit for bit, on a batch
        # and on each point, and it raises what its first raising member raises
        members = [e, *others]
        for arg in [np.array(points).T, *points]:
            with np.errstate(all="ignore"):
                try:
                    rows = as_callable(members)(arg)
                except (GuardViolation, ValueError) as err:
                    rows = err
                wants = []
                for member in members:
                    try:
                        wants.append(np.asarray(as_callable(member)(arg)).tobytes())
                    except (GuardViolation, ValueError) as err:
                        assert type(rows) is type(err) and str(rows) == str(err)
                        break
                else:
                    assert [row.tobytes() for row in rows] == wants
        f = as_callable(e)
        with np.errstate(all="ignore"):
            try:
                batch = f(np.array(points).T)
            except (GuardViolation, ValueError):
                batch = None
        outcomes = []
        for p in points:
            try:
                outcomes.append(f(p))
            except (GuardViolation, ValueError) as err:
                outcomes.append(err)
        if batch is None:
            # a batch raises where one of its points would
            assert any(isinstance(o, Exception) for o in outcomes)
            return
        assert batch.shape == (len(points),)
        for value, column in zip(outcomes, batch.tolist()):
            assert isinstance(value, float)
            assert np.float64(value).tobytes() == np.float64(column).tobytes()

    def test_integer_batch_is_evaluated_in_double_precision(self):
        # in int64, 2^120 wraps to 0
        f = as_callable(parse_expr("x*x*x", XY))
        batch = f(np.array([[2**40], [1]]))
        assert batch.dtype == np.float64
        assert batch[0] == f((2**40, 1)) == 2.0**120


class TestDiff:
    def test_square(self):
        x, y = variables("x y")
        assert diff(parse_expr("y^2", XY), 1) == 2 * y

    def test_euler_field_on_monomial(self):
        # (x d/dx + y d/dy)(x^2 y) = 3 x^2 y
        x, y = variables("x y")
        g = parse_expr("x^2*y", XY)
        img = as_polynomial(simplify(x * diff(g, 0) + y * diff(g, 1)))
        assert img == as_polynomial(parse_expr("3*x^2*y", XY))

    def test_exp_time_derivative(self):
        e = parse_expr("exp(2*t)*y^2", XYT)
        d = diff(e, 2)
        got = evaluate(d, (0.0, 1.0, 0.3))
        oracle = central_fd(e, 2, (0.0, 1.0, 0.3))
        assert got == pytest.approx(2 * math.exp(0.6), rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_cut_derivative_is_dedicated_node(self):
        d = diff(parse_expr("cut(x)", XY), 0)
        assert d.kind == "cut" and d.cut_order == 2
        # flat at the kink, matches cut(s)/s^2 on the right
        assert evaluate(d, (-0.5, 0)) == 0.0
        s = 0.7
        assert evaluate(d, (s, 0)) == pytest.approx(math.exp(-1 / s) / s**2, rel=1e-14)

    def test_fd_agreement_200_random_cases(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            e = random_smooth_expr(rng, XY)
            i = rng.randrange(2)
            p = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            d = diff(e, i)
            fd = central_fd(e, i, p)
            got = evaluate(d, p)
            if abs(fd) > 1e6:  # ill-conditioned draw, skip without counting
                continue
            assert abs(got - fd) <= 1e-5 * (1 + abs(fd))
            checked += 1


class TestApplyOperation:
    def test_projection_law_exact(self):
        args = (parse_expr("x+t", XYT), parse_expr("y*exp(t)", XYT))
        for j in range(2):
            assert apply_operation(var(j, XY), args) == args[j]

    def test_flow_pullback_of_square(self):
        f = parse_expr("y^2", XY)
        args = (parse_expr("x+t", XYT), parse_expr("y*exp(t)", XYT))
        out = apply_operation(f, args)
        # semantically e^{2t} y^2
        for p in [(0.0, 1.0, 0.0), (2.0, 0.5, 1.3), (-1.0, 2.0, -0.7)]:
            assert evaluate(out, p) == pytest.approx(
                math.exp(2 * p[2]) * p[1] ** 2, rel=1e-12
            )

    def test_constant_passes_through(self):
        c = const(7, XY)
        out = apply_operation(c, (parse_expr("x+t", XYT), parse_expr("y", XYT)))
        assert out.kind == "const" and out.value == 7 and out.vars == XYT

    def test_composition_soundness_random(self):
        rng = random.Random(11)
        for _ in range(60):
            f = random_smooth_expr(rng, XY)
            args = (random_smooth_expr(rng, XYT), random_smooth_expr(rng, XYT))
            p = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
            inner = tuple(evaluate(a, p) for a in args)
            if any(abs(v) > 1e3 for v in inner):
                continue
            lhs = evaluate(apply_operation(f, args), p)
            rhs = evaluate(f, inner)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            apply_operation(parse_expr("x+y", XY), (parse_expr("x", XYT),))

    def test_declared_guards_do_not_transport(self):
        # a guard box describes the original variable space; after
        # substitution only the runtime value checks remain
        from schemeflow.expr import log, var

        guarded = log(var("x", XY), guard=((0.5, 10.0), (-1.0, 1.0)))
        out = apply_operation(guarded, (parse_expr("x+t", XYT), parse_expr("y", XYT)))
        assert out.guard is None
        assert evaluate(out, (0.1, 0.0, 0.2)) == pytest.approx(math.log(0.3))
        with pytest.raises(GuardViolation):
            evaluate(out, (-1.0, 0.0, 0.5))


class TestAsPolynomial:
    def test_simple_cases(self):
        assert as_polynomial(parse_expr("y^2", XY)).to_source() == "y^2"
        assert as_polynomial(parse_expr("x+t", XYT)).to_source() == "x + t"

    def test_transcendental_marker(self):
        assert as_polynomial(parse_expr("exp(2*t)*y^2", XYT)) is None
        assert as_polynomial(parse_expr("cut(x)", XY)) is None

    def test_rational_coefficients_survive(self):
        p = as_polynomial(parse_expr("x/2 + y/3", XY))
        assert p is not None
        assert evaluate(p.to_expr(), (2.0, 3.0)) == pytest.approx(2.0)


class TestSimplifyAndRoundTrip:
    def test_zero_one_identities(self):
        x, y = variables("x y")
        vl = x.vars
        assert simplify(x + const(0, vl)) == x
        assert simplify(x * const(1, vl)) == x
        assert simplify(x * const(0, vl)) == const(0, vl)
        assert simplify(x**0) == const(1, vl)
        assert simplify(x**1) == x
        assert simplify(-(-x)) == x

    def test_constant_folding(self):
        e = parse_expr("2*3 + x*1", XY)
        s = simplify(e)
        assert format_expr(s) == "x + 6"

    def test_simplify_idempotent(self):
        rng = random.Random(5)
        for _ in range(100):
            e = random_smooth_expr(rng, XY)
            s = simplify(e)
            assert simplify(s) == s

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(150):
            e = random_smooth_expr(rng, XY)
            assert parse_expr(format_expr(e), XY) == simplify(e)

    def test_round_trip_handwritten(self):
        cases = [
            "2.5e-3*x - 1E6*y^2 + 1e0",
            "x + y",
            "x - y",
            "-x",
            "-(x*y)",
            "(x + y)^3",
            "x*y^2 - 3*x + 1/2",
            "exp(x)*sin(y) - cos(x*y)",
            "cut(x - 1)",
            "cut_2(y)*x",
            "x/(y + 3)",
            "1 - x/2",
        ]
        for src in cases:
            e = parse_expr(src, XY)
            assert parse_expr(format_expr(e), XY) == simplify(e)


_POLY_CONSTS = [Fraction(k, d) for k in (-3, -1, 1, 2, 7) for d in (1, 3, 10)]
_POLY_CONSTS.append(Fraction(10**20 + 1))  # not a double


def _poly_tree(draw, depth):
    """A polynomial tree over XY (constants, variables, sums, products,
    negation, powers and quotients by a constant)."""
    kinds = ["const", "var"] + (["add", "mul", "neg", "pow", "div"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return const(draw(st.sampled_from(_POLY_CONSTS)), XY)
    if kind == "var":
        return var(draw(st.integers(0, 1)), XY)
    if kind in ("add", "mul"):
        kids = tuple(_poly_tree(draw, depth - 1) for _ in range(draw(st.integers(2, 3))))
        return SmoothExpr(kind, XY, kids)
    child = _poly_tree(draw, depth - 1)
    if kind == "neg":
        return SmoothExpr("neg", XY, (child,))
    if kind == "pow":
        return SmoothExpr("pow", XY, (child,), exponent=draw(st.integers(0, 3)))
    return SmoothExpr("div", XY, (child, const(draw(st.sampled_from([3, -7, 10])), XY)))


def _exact(e, point):
    """The value of a polynomial tree at a point, in exact rationals."""
    kind = e.kind
    if kind == "const":
        return e.value
    if kind == "var":
        return Fraction(point[e.index])
    vals = [_exact(c, point) for c in e.children]
    if kind == "add":
        return sum(vals)
    if kind == "mul":
        return math.prod(vals)
    if kind == "neg":
        return -vals[0]
    if kind == "pow":
        return vals[0] ** e.exponent
    return vals[0] / vals[1]


class TestMajorant:
    # coordinates 0 or of size 1e-6 and up keep every product of a tree of
    # depth 3 far above the underflow threshold, which the bound assumes
    COORD = st.one_of(st.just(0.0), st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.tuples(COORD, COORD))
    def test_rounding_bound_holds(self, data, point):
        # |compiled - exact| <= gamma_k * m(|x|), and |exact| <= m(|x|)
        e = _poly_tree(data.draw, 3)
        m, k, d = majorant(e)
        exact = _exact(e, point)
        bound = Fraction(as_callable(m)([abs(c) for c in point]))
        assert abs(exact) <= bound * (1 + Fraction(1, 10**9))
        u = Fraction(1, 2**53)
        gamma = k * u / (1 - k * u)
        computed = Fraction(as_callable(e)(point))
        assert abs(computed - exact) <= gamma * bound * (1 + Fraction(1, 10**9))
        # the degree bounds the majorant's growth
        grown = Fraction(as_callable(m)([2 * abs(c) for c in point]))
        assert grown <= 2**d * bound * (1 + Fraction(1, 10**9))

    @pytest.mark.parametrize(
        "src", ["exp(x)", "x/y", "sin(x)^2", "cut(x)", "log(x + 3)"]
    )
    def test_not_a_polynomial(self, src):
        assert majorant(parse_expr(src, XY)) is None

    def test_counts_of_a_square(self):
        m, k, d = majorant(parse_expr("x^2 + y^2 - 1", XY))
        assert format_expr(m) == "x^2 + y^2 + 1"
        assert (k, d) == (4 + 2, 2)


class TestImmutability:
    def test_nodes_are_frozen(self):
        e = parse_expr("x + y", XY)
        with pytest.raises(AttributeError):
            e.kind = "mul"
