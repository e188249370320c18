"""Closed-form smooth expressions: parsing, evaluation, differentiation, composition.

Expressions are immutable trees over a fixed variable list.  The node
vocabulary is deliberately small so that everything representable is smooth
everywhere it is defined: rational constants, variables, sums, products,
negation, nonnegative integer powers, quotients (guarded), exp, log (guarded),
sin, cos, and the flat cutoff family ``cut_k(s) = exp(-1/s)/s**k`` for s > 0
and 0 for s <= 0.  The cutoff family is closed under differentiation:

    d/ds cut_k(s) = cut_{k+2}(s) - k*cut_{k+1}(s)

so derivatives never introduce a quotient (and hence no spurious guard at
s = 0, where the function is flat).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "VarList",
    "SmoothExpr",
    "ExprError",
    "ParseError",
    "NonSmoothError",
    "GuardViolation",
    "variables",
    "const",
    "var",
    "parse_expr",
    "evaluate",
    "diff",
    "apply_operation",
    "as_polynomial",
    "majorant",
    "simplify",
    "format_expr",
    "as_callable",
]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonSmoothError(ParseError):
    pass


class GuardViolation(ExprError):
    """Evaluation hit a quotient/log outside its domain of definition."""


# heads rejected at parse time with a dedicated message
_NON_SMOOTH_HEADS = {"abs", "floor", "ceil", "sign", "sqrt", "min", "max", "mod", "step"}

_UNARY_HEADS = ("exp", "log", "sin", "cos")


@dataclass(frozen=True)
class VarList:
    """Ordered, unique variable names; fixed for the lifetime of expressions using it."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("variable list must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        for name in self.names:
            if not name.isidentifier():
                raise ValueError(f"invalid variable name: {name!r}")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def extended(self, *extra: str) -> "VarList":
        return VarList(self.names + tuple(extra))


Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class SmoothExpr:
    """One AST node.  ``kind`` is the node tag; payload fields depend on it.

    kinds: const (value), var (index), add/mul (children, n-ary), neg, div,
    pow (child, exponent >= 0), exp/log/sin/cos (child), cut (child,
    cut_order >= 0).  div and log optionally carry a declared guard box.
    """

    kind: str
    vars: VarList
    children: tuple["SmoothExpr", ...] = ()
    value: Optional[Fraction] = None
    index: Optional[int] = None
    exponent: Optional[int] = None
    cut_order: Optional[int] = None
    guard: Optional[tuple[tuple[float, float], ...]] = field(default=None, compare=False)

    # -- arithmetic sugar ------------------------------------------------

    def _coerce(self, other) -> "SmoothExpr":
        if isinstance(other, SmoothExpr):
            if other.vars != self.vars:
                raise ValueError("expressions over different variable lists")
            return other
        if isinstance(other, (int, float, Fraction)):
            return const(other, self.vars)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return _nary("add", self.vars, (self, other))

    def __radd__(self, other):
        return self._coerce(other).__add__(self)

    def __sub__(self, other):
        other = self._coerce(other)
        return _nary("add", self.vars, (self, _neg(other)))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return _nary("mul", self.vars, (self, other))

    def __rmul__(self, other):
        return self._coerce(other).__mul__(self)

    def __truediv__(self, other):
        other = self._coerce(other)
        return SmoothExpr("div", self.vars, (self, other))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("power nodes take a nonnegative integer exponent")
        return SmoothExpr("pow", self.vars, (self,), exponent=k)

    def __neg__(self):
        return _neg(self)

    def __repr__(self):
        return f"SmoothExpr({format_expr(self)!r})"

    def __call__(self, *point: float) -> float:
        return evaluate(self, point)


def _neg(e: SmoothExpr) -> SmoothExpr:
    return SmoothExpr("neg", e.vars, (e,))


def _nary(kind: str, vars_: VarList, children: tuple[SmoothExpr, ...]) -> SmoothExpr:
    flat: list[SmoothExpr] = []
    for c in children:
        if c.kind == kind:
            flat.extend(c.children)
        else:
            flat.append(c)
    return SmoothExpr(kind, vars_, tuple(flat))


def const(value: Number, vars_: VarList) -> SmoothExpr:
    # floats are stored as their exact binary rational, so printing is lossless
    return SmoothExpr("const", vars_, value=Fraction(value))


def var(name_or_index: Union[str, int], vars_: VarList) -> SmoothExpr:
    idx = vars_.index(name_or_index) if isinstance(name_or_index, str) else name_or_index
    if not 0 <= idx < vars_.arity:
        raise ValueError(f"variable index {idx} out of range for arity {vars_.arity}")
    return SmoothExpr("var", vars_, index=idx)


def variables(names: Union[str, Sequence[str]]) -> tuple[SmoothExpr, ...]:
    """`x, y = variables("x y")` convenience constructor."""
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    vl = VarList(tuple(names))
    return tuple(var(i, vl) for i in range(vl.arity))


def cut(e: SmoothExpr, order: int = 0) -> SmoothExpr:
    if order < 0:
        raise ValueError("cut order must be nonnegative")
    return SmoothExpr("cut", e.vars, (e,), cut_order=order)


def unary(head: str, e: SmoothExpr, guard=None) -> SmoothExpr:
    if head not in _UNARY_HEADS:
        raise ValueError(f"unknown head {head!r}")
    return SmoothExpr(head, e.vars, (e,), guard=guard)


def exp(e: SmoothExpr) -> SmoothExpr:
    return unary("exp", e)


def log(e: SmoothExpr, guard=None) -> SmoothExpr:
    return unary("log", e, guard=guard)


def sin(e: SmoothExpr) -> SmoothExpr:
    return unary("sin", e)


def cos(e: SmoothExpr) -> SmoothExpr:
    return unary("cos", e)


# -- evaluation ----------------------------------------------------------


def evaluate(e: SmoothExpr, point: Sequence[float]) -> float:
    """Double-precision value of ``e`` at ``point``: ``as_callable(e)(point)``,
    with the evaluation rules documented there.

    Raises GuardViolation for division by zero, log of a nonpositive value,
    or a point outside a declared guard box, rather than returning inf or
    NaN there.
    """
    return as_callable(e)(point)


# -- differentiation -----------------------------------------------------


def diff(e: SmoothExpr, index: int) -> SmoothExpr:
    """Symbolic partial derivative with respect to variable ``index``."""
    if not 0 <= index < e.vars.arity:
        raise ValueError(f"variable index {index} out of range")
    return simplify(_diff(e, index))


def _diff(e: SmoothExpr, i: int) -> SmoothExpr:
    vl = e.vars
    zero = const(0, vl)
    one = const(1, vl)
    kind = e.kind
    if kind == "const":
        return zero
    if kind == "var":
        return one if e.index == i else zero
    if kind == "add":
        return _nary("add", vl, tuple(_diff(c, i) for c in e.children))
    if kind == "mul":
        terms = []
        for j, c in enumerate(e.children):
            factors = list(e.children)
            factors[j] = _diff(c, i)
            terms.append(_nary("mul", vl, tuple(factors)))
        return _nary("add", vl, tuple(terms))
    if kind == "neg":
        return _neg(_diff(e.children[0], i))
    if kind == "pow":
        u = e.children[0]
        k = e.exponent
        if k == 0:
            return zero
        return _nary("mul", vl, (const(k, vl), u ** (k - 1), _diff(u, i)))
    if kind == "div":
        u, v = e.children
        num = (_diff(u, i) * v) - (u * _diff(v, i))
        return SmoothExpr("div", vl, (num, v * v), guard=e.guard)
    if kind == "exp":
        return exp(e.children[0]) * _diff(e.children[0], i)
    if kind == "log":
        u = e.children[0]
        return SmoothExpr("div", vl, (_diff(u, i), u), guard=e.guard)
    if kind == "sin":
        return cos(e.children[0]) * _diff(e.children[0], i)
    if kind == "cos":
        return _neg(sin(e.children[0])) * _diff(e.children[0], i)
    if kind == "cut":
        u = e.children[0]
        k = e.cut_order
        outer = cut(u, k + 2) - const(k, vl) * cut(u, k + 1)
        return outer * _diff(u, i)
    raise AssertionError(f"unhandled node kind {kind!r}")


# -- composition ---------------------------------------------------------


def apply_operation(f: SmoothExpr, args: Sequence[SmoothExpr]) -> SmoothExpr:
    """Substitute ``args[j]`` for variable j of ``f``; the smooth-ring operation."""
    if len(args) != f.vars.arity:
        raise ValueError(f"expected {f.vars.arity} arguments, got {len(args)}")
    if not args:
        raise ValueError("need at least one argument")
    target = args[0].vars
    for a in args:
        if a.vars != target:
            raise ValueError("argument expressions over different variable lists")
    return _subst(f, tuple(args), target)


def _subst(e: SmoothExpr, args: tuple[SmoothExpr, ...], target: VarList) -> SmoothExpr:
    # declared guard boxes describe the original variable space and do not
    # transport through substitution; runtime value checks still apply
    if e.kind == "var":
        return args[e.index]
    if e.kind == "const":
        return SmoothExpr("const", target, value=e.value)
    children = tuple(_subst(c, args, target) for c in e.children)
    return SmoothExpr(
        e.kind,
        target,
        children,
        exponent=e.exponent,
        cut_order=e.cut_order,
    )


# -- polynomial bridge ---------------------------------------------------


def as_polynomial(e: SmoothExpr):
    """Exact polynomial form, or None if ``e`` uses a transcendental head.

    Only constants, variables, sums, products, negation and integer powers
    convert; everything else returns the not-polynomial marker None.
    """
    from . import polyring  # local import: polyring depends on this module

    def conv(node: SmoothExpr):
        kind = node.kind
        if kind == "const":
            return polyring.Polynomial.constant(node.value, node.vars)
        if kind == "var":
            return polyring.Polynomial.variable(node.index, node.vars)
        if kind == "add":
            return polyring.Polynomial.sum(map(conv, node.children), node.vars)
        if kind == "mul":
            out = conv(node.children[0])
            for c in node.children[1:]:
                out = out * conv(c)
            return out
        if kind == "neg":
            return -conv(node.children[0])
        if kind == "pow":
            return conv(node.children[0]) ** node.exponent
        if kind == "div":
            den = conv(node.children[1])
            if den.total_degree() != 0:  # zero has degree -1
                raise _NotPolynomial()
            return conv(node.children[0]) * (1 / den.leading_coeff(polyring.MonomialOrder.GREVLEX))
        raise _NotPolynomial()

    try:
        return conv(e)
    except _NotPolynomial:
        return None


class _NotPolynomial(Exception):
    pass


_NORMAL = (Fraction(np.finfo(float).tiny), Fraction(np.finfo(float).max))


def majorant(e: SmoothExpr) -> Optional[tuple[SmoothExpr, int, int]]:
    """A-priori error data of ``e``'s compiled evaluation, when ``e`` is a
    polynomial tree: constants, variables, sums, products, negation, powers
    and quotients by a nonzero constant, with no guard.  Else None.

    Returns (m, k, d).  The majorant m is ``e`` with every constant replaced
    by its absolute value and every negation dropped, so for X >= 0 and any
    point with |x| <= X coordinatewise, |e(x)| <= m(X), and m is nondecreasing
    in each X_i.  d is the degree of the tree (sums take the largest degree,
    products add them), so m(s*X) <= s^d * m(X) for s >= 1.  k counts the
    roundings on the worst path of the compiled code (``as_callable``), so
    that the computed value is within gamma_k * m(X) of e(x), gamma_k =
    k*u/(1 - k*u) and u = 2^-53, in the standard model of floating-point
    arithmetic, without underflow (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 2-3): a constant that is not a double
    counts 1; a sum of j terms, added left to right, its largest count plus
    j - 1; a product of j factors the sum of their counts plus j - 1; a
    quotient by a constant its numerator's count plus 2; and the j-th power
    of a node counting c, j*c plus the larger of j - 1 (repeated products)
    and 4 (a ``pow`` call within two units in the last place).
    """
    kind = e.kind
    vl = e.vars
    if kind == "const":
        try:
            exact = float(e.value) == e.value
        except OverflowError:  # compiled as +-inf, so m(X) is inf
            exact = False
        return const(abs(e.value), vl), int(not exact), 0
    if kind == "var":
        return e, 0, 1
    if kind == "div":
        num, den = e.children
        # a denominator outside the normal doubles rounds to 0 (every point
        # raises), to a subnormal or to inf
        if e.guard is not None or den.kind != "const":
            return None
        if not _NORMAL[0] <= abs(den.value) <= _NORMAL[1]:
            return None
        top = majorant(num)
        if top is None:
            return None
        m, k, d = top
        return SmoothExpr("mul", vl, (const(1 / abs(den.value), vl), m)), k + 2, d
    if kind not in ("add", "mul", "neg", "pow"):
        return None
    parts = [majorant(c) for c in e.children]
    if None in parts:
        return None
    ms, ks, ds = zip(*parts)
    if kind == "neg":
        return parts[0]
    if kind == "pow":
        j = e.exponent
        rounds = 0 if j < 2 else max(j - 1, 4)
        return SmoothExpr("pow", vl, ms, exponent=j), j * ks[0] + rounds, j * ds[0]
    if kind == "add":
        return SmoothExpr("add", vl, ms), max(ks) + len(ks) - 1, max(ds)
    return SmoothExpr("mul", vl, ms), sum(ks) + len(ks) - 1, sum(ds)


# -- simplification (conservative: fold constants, 0/1 identities, flatten) --


def simplify(e: SmoothExpr) -> SmoothExpr:
    kind = e.kind
    vl = e.vars
    if kind in ("const", "var"):
        return e
    children = tuple(simplify(c) for c in e.children)

    if kind == "add":
        flat: list[SmoothExpr] = []
        acc = Fraction(0)
        for c in children:
            if c.kind == "add":
                sub = c.children
            else:
                sub = (c,)
            for s in sub:
                if s.kind == "const":
                    acc += s.value
                else:
                    flat.append(s)
        if acc != 0:
            flat.append(const(acc, vl))
        if not flat:
            return const(0, vl)
        if len(flat) == 1:
            return flat[0]
        return SmoothExpr("add", vl, tuple(flat))

    if kind == "mul":
        flat = []
        acc = Fraction(1)
        for c in children:
            sub = c.children if c.kind == "mul" else (c,)
            for s in sub:
                if s.kind == "const":
                    acc *= s.value
                else:
                    flat.append(s)
        if acc == 0:
            return const(0, vl)
        if acc != 1:
            flat.insert(0, const(acc, vl))
        if not flat:
            return const(1, vl)
        if len(flat) == 1:
            return flat[0]
        return SmoothExpr("mul", vl, tuple(flat))

    if kind == "neg":
        (c,) = children
        if c.kind == "const":
            return const(-c.value, vl)
        if c.kind == "neg":
            return c.children[0]
        return SmoothExpr("neg", vl, (c,))

    if kind == "pow":
        (c,) = children
        k = e.exponent
        if k == 0:
            return const(1, vl)
        if k == 1:
            return c
        if c.kind == "const":
            return const(c.value**k, vl)
        return SmoothExpr("pow", vl, (c,), exponent=k)

    if kind == "div":
        num, den = children
        if den.kind == "const":
            if den.value == 0:
                raise GuardViolation("division by the zero constant")
            if num.kind == "const":
                return const(num.value / den.value, vl)
            if den.value == 1:
                return num
            # constant denominators fold into a coefficient
            return simplify(SmoothExpr("mul", vl, (const(1 / den.value, vl), num)))
        return SmoothExpr("div", vl, (num, den), guard=e.guard)

    return SmoothExpr(kind, vl, children, cut_order=e.cut_order, guard=e.guard)


# -- printing ------------------------------------------------------------
#
# format_expr(e) serializes simplify(e); parse_expr inverts it exactly on
# simplified trees, which is the round-trip contract.

_ATOMIC = ("const", "var", "exp", "log", "sin", "cos", "cut")


def format_expr(e: SmoothExpr) -> str:
    return _fmt(simplify(e))


def _fmt_const(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _is_atom(e: SmoothExpr) -> bool:
    return e.kind in _ATOMIC


def _fmt(e: SmoothExpr) -> str:
    kind = e.kind
    if kind == "const":
        return _fmt_const(e.value)
    if kind == "var":
        return e.vars.names[e.index]
    if kind == "add":
        parts = [_fmt(e.children[0])]
        for c in e.children[1:]:
            if c.kind == "neg":
                parts.append(f" - {_fmt_factorsafe(c.children[0])}")
            elif c.kind == "const" and c.value < 0:
                parts.append(f" - {_fmt_const(-c.value)}")
            else:
                parts.append(f" + {_fmt(c)}")
        return "".join(parts)
    if kind == "mul":
        return "*".join(_fmt_mulchild(c) for c in e.children)
    if kind == "neg":
        return f"-{_fmt_factorsafe(e.children[0])}"
    if kind == "pow":
        return f"{_fmt_base(e.children[0])}^{e.exponent}"
    if kind == "div":
        num, den = e.children
        num_s = _fmt(num) if num.kind not in ("add",) else f"({_fmt(num)})"
        den_s = _fmt(den) if den.kind in _ATOMIC or den.kind == "pow" else f"({_fmt(den)})"
        return f"{num_s}/{den_s}"
    if kind == "cut":
        head = "cut" if e.cut_order == 0 else f"cut_{e.cut_order}"
        return f"{head}({_fmt(e.children[0])})"
    if kind in _UNARY_HEADS:
        return f"{kind}({_fmt(e.children[0])})"
    raise AssertionError(f"unhandled node kind {kind!r}")


def _fmt_mulchild(e: SmoothExpr) -> str:
    # '-' binds to the following base in the grammar, so a neg child of a
    # product must be parenthesized except in leading position; parenthesize
    # uniformly for predictability
    if e.kind in ("add", "div", "neg"):
        return f"({_fmt(e)})"
    if e.kind == "const" and e.value < 0:
        return f"({_fmt_const(e.value)})"
    return _fmt(e)


def _fmt_factorsafe(e: SmoothExpr) -> str:
    # argument of a printed unary minus: anything that is not a single factor
    # must be parenthesized, including powers ('-x^2' parses as (-x)^2)
    if _is_atom(e) and not (e.kind == "const" and e.value < 0):
        return _fmt(e)
    return f"({_fmt(e)})"


def _fmt_base(e: SmoothExpr) -> str:
    if _is_atom(e) and not (e.kind == "const" and e.value < 0):
        return _fmt(e)
    return f"({_fmt(e)})"


# -- parsing -------------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := base ('^' INT)?
# base   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '-' base
#
# A NUMBER is digits with at most one '.', and an optional decimal exponent
# ('e' or 'E', an optional sign, digits); it is the exact rational it names,
# so 2.5e-3 is 1/400.  An exponent above _MAX_EXPONENT is refused: 10^k is
# built exactly, and a double is 0 or inf far below it.

_MAX_EXPONENT = 9999


# the digits of a number; str.isdigit also takes other scripts' digits and
# superscripts, so a text of digits is tested with isascii() as well
_DIGITS = frozenset("0123456789")


class _Tokenizer:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.cursor = 0

    def _scan(self):
        src, n = self.src, len(self.src)
        i = 0
        while i < n:
            ch = src[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _DIGITS or (ch == "." and i + 1 < n and src[i + 1] in _DIGITS):
                j = i
                seen_dot = False
                while j < n and (src[j] in _DIGITS or (src[j] == "." and not seen_dot)):
                    seen_dot = seen_dot or src[j] == "."
                    j += 1
                if j < n and src[j] in "eE":
                    j = self._exponent(i, j)
                self.tokens.append(("num", src[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self.tokens.append(("ident", src[i:j], i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

    def _exponent(self, start: int, e: int) -> int:
        """The end of the decimal exponent, at ``e``, of the number that
        starts at ``start``."""
        src, n = self.src, len(self.src)
        j = e + 1 + (e + 1 < n and src[e + 1] in "+-")
        k = j
        while k < n and src[k] in _DIGITS:
            k += 1
        if k == j:
            raise ParseError(f"malformed number {src[start:k]!r}: exponent without digits", e)
        if int(src[j:k]) > _MAX_EXPONENT:
            raise ParseError(f"exponent {src[j:k]} above {_MAX_EXPONENT}", j)
        return k

    def peek(self):
        return self.tokens[self.cursor]

    def next(self):
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok


class _Parser:
    def __init__(self, src: str, vars_: VarList):
        self.toks = _Tokenizer(src)
        self.vars = vars_

    def parse(self) -> SmoothExpr:
        e = self.expr()
        kind, text, pos = self.toks.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return e

    def expr(self) -> SmoothExpr:
        parts = [self.term()]
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            rhs = self.term()
            parts.append(rhs if op == "+" else self._negate(rhs))
        if len(parts) == 1:
            return parts[0]
        return _nary("add", self.vars, tuple(parts))

    def term(self) -> SmoothExpr:
        acc = self.factor()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()[0]
            rhs = self.factor()
            if op == "*":
                acc = _nary("mul", self.vars, (acc, rhs))
            else:
                acc = self._divide(acc, rhs)
        return acc

    def factor(self) -> SmoothExpr:
        base = self.base()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            kind, text, pos = self.toks.next()
            if kind != "num" or not (text.isascii() and text.isdigit()):
                raise ParseError("expected integer exponent after '^'", pos)
            return SmoothExpr("pow", self.vars, (base,), exponent=int(text))
        return base

    def base(self) -> SmoothExpr:
        kind, text, pos = self.toks.next()
        if kind == "num":
            return const(Fraction(text), self.vars)
        if kind == "(":
            inner = self.expr()
            k2, t2, p2 = self.toks.next()
            if k2 != ")":
                raise ParseError("expected ')'", p2)
            return inner
        if kind == "-":
            return self._negate(self.base())
        if kind == "ident":
            if self.toks.peek()[0] == "(":
                return self._call(text, pos)
            try:
                return var(text, self.vars)
            except KeyError:
                raise ParseError(f"unknown identifier {text!r}", pos) from None
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def _call(self, head: str, pos: int) -> SmoothExpr:
        self.toks.next()  # consume '('
        arg = self.expr()
        k2, _, p2 = self.toks.next()
        if k2 != ")":
            raise ParseError("expected ')'", p2)
        if head in _UNARY_HEADS:
            return unary(head, arg)
        if head == "cut":
            return cut(arg, 0)
        if head.startswith("cut_"):
            tail = head[4:]
            if tail.isascii() and tail.isdigit() and int(tail) >= 1:
                return cut(arg, int(tail))
        if head in _NON_SMOOTH_HEADS:
            raise NonSmoothError(f"non-smooth construct {head!r}", pos)
        if head in self.vars.names:
            raise ParseError(f"variable {head!r} used as a function head", pos)
        raise ParseError(f"unknown function {head!r}", pos)

    @staticmethod
    def _negate(e: SmoothExpr) -> SmoothExpr:
        if e.kind == "const":
            return const(-e.value, e.vars)
        return _neg(e)

    @staticmethod
    def _divide(num: SmoothExpr, den: SmoothExpr) -> SmoothExpr:
        # literal constant quotients fold to an exact rational at parse time
        if num.kind == "const" and den.kind == "const":
            if den.value == 0:
                raise GuardViolation("division by the zero constant")
            return const(num.value / den.value, num.vars)
        return SmoothExpr("div", num.vars, (num, den))


def parse_expr(src: str, vars_: VarList) -> SmoothExpr:
    """Parse concrete syntax into an AST over ``vars_``.

    Rejects unknown identifiers and non-smooth heads (abs, floor, ...) with
    position information.
    """
    if not isinstance(src, str):
        raise ParseError(f"expression must be a string, not {type(src).__name__}", 0)
    return _Parser(src, vars_).parse()


# -- compiled evaluation --------------------------------------------------


def as_callable(e: Union[SmoothExpr, Sequence[SmoothExpr]]) -> Callable:
    """Compile ``e``, one expression or a sequence of k expressions over
    one variable list, into one numpy function.

    This is the package's only numeric evaluator (``evaluate``, the lifted
    field, every residual and every sampled check run it).  The compiled
    function takes an (n, m) array holding m points as columns, of any
    numeric dtype, or one point (any sequence of n numbers); both are
    evaluated in double precision, and a point or batch with other than n
    coordinates raises ValueError.  A sequence gives the (k, m) array of
    values, row i that of expression i, or the (k,) array for a point; one
    expression gives its m values, or a float for a point.  A point is
    evaluated as a one-column batch and each row as its expression alone,
    so a value is, bit for bit, the same in a point, a batch or a tuple.
    Its rules:

    - Sums add and products multiply left to right in double precision,
      with no compensated summation: ``x + 10^16 - 10^16`` at x = 1 is 0.0.
      Rational constants round to the nearest double, and a constant
      beyond double range is +-inf.
    - Overflow gives +-inf and never raises.  A point runs with numpy's
      floating-point errors ignored.  A batch warns as numpy's error state
      says; a batch that the error state turns into a FloatingPointError is
      evaluated again with the errors ignored.
    - GuardViolation for a point outside a declared guard box, a zero
      denominator or the log of a nonpositive value; ValueError for the
      sine or cosine of an infinity.  NaN propagates.  A batch raises where
      one of its points would, though not necessarily naming that point,
      and a tuple raises what its first raising row raises.
    """
    single = isinstance(e, SmoothExpr)
    f = _compile((e,) if single else tuple(e))

    def compiled(p):
        if isinstance(p, np.ndarray) and p.ndim == 2:
            p = np.asarray(p, dtype=float)  # no copy of a float array
            # no np.errstate here: a groupoid job calls the field about 1,000
            # times, and entering it per call cost about 9% of the job (2-core
            # x86-64 host); the callers enter it once around many calls
            try:
                values = f(p)
            except FloatingPointError:
                with np.errstate(all="ignore"):
                    values = f(p)
            return values[0] if single else values
        with np.errstate(all="ignore"):
            values = f(np.asarray(p, dtype=float).reshape(-1, 1))[:, 0]
        return float(values[0]) if single else values

    return compiled


def _compile(exprs: tuple[SmoothExpr, ...]):
    """The numpy code of ``exprs``: a function of an (n, m) array of points
    to the (k, m) array of their values, one row per expression."""
    guards: dict[str, object] = {}

    def emit(node: SmoothExpr) -> str:
        kind = node.kind
        if kind == "const":
            try:
                return f"({float(node.value)!r})"
            except OverflowError:
                return "_INF" if node.value > 0 else "(-_INF)"
        if kind == "var":
            return f"p[{node.index}]"
        if kind == "add":
            return "(" + " + ".join(emit(c) for c in node.children) + ")"
        if kind == "mul":
            return "(" + " * ".join(emit(c) for c in node.children) + ")"
        if kind == "neg":
            return f"(-{emit(node.children[0])})"
        if kind == "pow":
            return f"_pow({emit(node.children[0])}, {node.exponent})"
        if kind == "div":
            g = _register_guard(node)
            return f"_div({emit(node.children[0])}, {emit(node.children[1])}, {g}, p)"
        if kind == "exp":
            return f"_exp({emit(node.children[0])})"
        if kind == "log":
            g = _register_guard(node)
            return f"_log({emit(node.children[0])}, {g}, p)"
        if kind == "sin":
            return f"_sin({emit(node.children[0])})"
        if kind == "cos":
            return f"_cos({emit(node.children[0])})"
        if kind == "cut":
            return f"_cut({emit(node.children[0])}, {node.cut_order})"
        raise AssertionError(f"unhandled node kind {kind!r}")

    def _register_guard(node: SmoothExpr) -> str:
        if node.guard is None:
            return "None"
        name = f"_g{len(guards)}"
        guards[name] = node.guard
        return name

    src = "def _compiled(p):\n"
    if exprs:
        n = exprs[0].vars.arity
        if any(x.vars != exprs[0].vars for x in exprs):
            raise ValueError("expressions over different variable lists")
        src += f"    if len(p) != {n}:\n"
        src += f"        raise ValueError(f'point length {{len(p)}} != arity {n}')\n"
    # each row is assigned into the output, so a constant row broadcasts to
    # every point and a variable row is copied; emission fills the guard table
    src += f"    out = _empty(({len(exprs)}, p.shape[1]))\n"
    src += "".join(f"    out[{i}] = {emit(x)}\n" for i, x in enumerate(exprs))
    src += "    return out\n"
    ns: dict[str, object] = dict(_HELPERS)
    ns.update(guards)
    exec(src, ns)  # noqa: S102 - generated from a closed AST, no external input
    return ns["_compiled"]


# Helpers of compiled expressions.  Each takes an array of values, one per
# point of the batch, or a number for a constant subexpression, and raises
# where any of the points would raise.


def _guard_check(guard, points: np.ndarray) -> None:
    if guard is None:
        return
    for (lo, hi), x in zip(guard, points):
        inside = (lo <= x) & (x <= hi)
        if not inside.all():
            j = int(np.argmin(inside))
            raise GuardViolation(
                f"point {tuple(points[:, j].tolist())} outside declared guard box {guard}"
            )


def _finite(x):
    # the sine and cosine of an infinity raise, as in math, not NaN
    if np.isinf(x).any():
        raise ValueError("math domain error")
    return x


def _cut(s, k: int):
    # NaN fails both tests below and stays NaN
    safe = np.where(s <= 0.0, 1.0, s)
    return np.where(s <= 0.0, 0.0, np.exp(-1.0 / safe - k * np.log(safe)))


def _div(a, b, g, p):
    _guard_check(g, p)
    if np.any(b == 0.0):
        raise GuardViolation("division by zero")
    return a / b


def _log(x, g, p):
    _guard_check(g, p)
    x = np.asarray(x)
    bad = x <= 0.0
    if bad.any():
        raise GuardViolation(f"log of nonpositive value {x[bad][0]}")
    return np.log(x)


def _pow(x, k: int):
    return np.asarray(x, dtype=float) ** k


_HELPERS = {
    "_exp": np.exp,
    "_sin": lambda x: np.sin(_finite(x)),
    "_cos": lambda x: np.cos(_finite(x)),
    "_cut": _cut,
    "_div": _div,
    "_log": _log,
    "_pow": _pow,
    "_empty": np.empty,
    "_INF": np.inf,
}
