"""Exact sparse multivariate polynomials and Groebner-basis ideal arithmetic.

A polynomial is stored as its content times its primitive part: a positive
rational times integer coefficients with gcd 1 (Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2).  Ring operations, division
and S-polynomials all run on the integers; a ``Fraction`` is built for a
content, and per term only when ``terms`` is read.  Floating point enters
only when a polynomial is evaluated as an expression (``to_expr``).
Division is pseudo-division by the divisors' primitive parts, with a gcd
reduction that bounds the growth of the integers, and its results equal
those of rational division.  Monomial orders: grevlex (default) and lex,
with variable precedence given by declaration order.

Basis computation is Buchberger's algorithm with the Gebauer-Moeller
update (Gebauer & Moeller 1988): when an element joins the basis, criterion
B drops the old pairs it makes redundant, criteria M and F keep one new
pair per minimal lcm, and pairs with coprime leading monomials are dropped.
The surviving pairs wait in a heap (a pair queue as in Giovini et al. 1991,
"One sugar cube, please") under the normal selection strategy, and a degree
cap aborts runaway runs with a diagnostic.  Division (``normal_form``) pops
the working terms from a heap keyed once per monomial, largest first, and
can return the quotients beside the remainder, which makes an ideal
membership a checkable certificate.
"""

from __future__ import annotations

import enum
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .expr import SmoothExpr, VarList, const, var

__all__ = [
    "MonomialOrder",
    "Polynomial",
    "PolyIdeal",
    "DegreeCapExceeded",
    "groebner_basis",
    "normal_form",
    "s_polynomial",
    "ideal_sum",
    "pullback_ideal",
    "bounded_membership",
]

DEFAULT_DEGREE_CAP = 40
SCALE_BITS = 128  # growth of division's scale between two gcd reductions
_ZERO, _ONE = Fraction(0), Fraction(1)


class DegreeCapExceeded(Exception):
    """Basis computation produced a polynomial above the configured degree cap."""


class MonomialOrder(enum.Enum):
    GREVLEX = "grevlex"
    LEX = "lex"

    def key(self, exps: tuple[int, ...]):
        if self is MonomialOrder.LEX:
            return exps
        # grevlex: total degree first, ties broken by the rightmost nonzero
        # entry of the exponent difference being negative
        return (sum(exps), tuple(-e for e in reversed(exps)))


class Polynomial:
    """Sparse multivariate polynomial with rational coefficients, stored as
    its content times its primitive part: a positive ``Fraction`` times a
    map exponent-vector -> nonzero int whose values have gcd 1.  The form
    is canonical, so ``==`` and ``hash`` compare it directly; zero has
    content 0 and no terms.  The constructor takes a map to int, float or
    ``Fraction`` coefficients (a float as its exact binary rational), and
    ``terms`` reads them back as Fractions.  A polynomial is never changed
    after construction, which is what lets it keep its reduction data
    (``_reducer``).
    """

    __slots__ = ("_content", "_prim", "vars", "_reducers")

    def __init__(self, terms: dict[tuple[int, ...], Fraction], vars_: VarList):
        coeffs = {m: Fraction(c) for m, c in terms.items() if c != 0}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        ints = {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}
        p = _canonical(ints, 1, den, vars_)
        self._content, self._prim, self.vars, self._reducers = p._content, p._prim, vars_, {}

    @classmethod
    def _of(cls, prim: dict[tuple[int, ...], int], content: Fraction, vars_: VarList):
        """``content * prim``, given in canonical form."""
        p = object.__new__(cls)
        # the reducers map a monomial order to its ``_reducer`` entry
        p._content, p._prim, p.vars, p._reducers = content, prim, vars_, {}
        return p

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value, vars_: VarList) -> "Polynomial":
        c = value if type(value) is Fraction else Fraction(value)
        return _canonical({(0,) * vars_.arity: c.numerator} if c else {}, 1, c.denominator, vars_)

    @classmethod
    def variable(cls, index: int, vars_: VarList) -> "Polynomial":
        exps = tuple(1 if i == index else 0 for i in range(vars_.arity))
        return cls._of({exps: 1}, _ONE, vars_)

    @classmethod
    def sum(cls, parts: Iterable["Polynomial"], vars_: VarList) -> "Polynomial":
        """The sum of ``parts``, all over ``vars_``, in one map: each primitive
        part is added times its content over the parts' common content."""
        parts = [p for p in parts if p._prim]
        if any(p.vars != vars_ for p in parts):
            raise ValueError("polynomials over different variable lists")
        if len(parts) < 2:
            return parts[0] if parts else cls._of({}, _ZERO, vars_)
        num = math.gcd(*(p._content.numerator for p in parts))
        den = math.lcm(*(p._content.denominator for p in parts))
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for p in parts:
            u = p._content.numerator // num * (den // p._content.denominator)
            for m, c in p._prim.items():
                out[m] = get(m, 0) + u * c
        return _canonical({m: c for m, c in out.items() if c}, num, den, vars_)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        return Polynomial.sum((self, other), self.vars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({m: -c for m, c in self._prim.items()}, self._content, self.vars)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        if self.vars != other.vars:
            raise ValueError("polynomials over different variable lists")
        if not (self._prim and other._prim):
            return Polynomial._of({}, _ZERO, self.vars)
        out: dict[tuple[int, ...], int] = {}
        get, add = out.get, operator.add
        for m1, c1 in self._prim.items():
            for m2, c2 in other._prim.items():
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        # Gauss's lemma: a product of primitive polynomials is primitive
        prim = {m: c for m, c in out.items() if c}
        return Polynomial._of(prim, self._content * other._content, self.vars)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(1, self.vars)
        for bit in bin(k)[2:]:  # binary powering, from the leading bit
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self._content == other._content
            and self._prim == other._prim
        )

    def __hash__(self):
        return hash((self.vars, self._content, frozenset(self._prim.items())))

    def __bool__(self):
        return bool(self._prim)

    def __repr__(self):
        return f"Polynomial({self.to_source()!r})"

    # -- structure queries -------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The map exponent-vector -> nonzero ``Fraction`` coefficient, built
        anew on each read."""
        n, d = self._content.numerator, self._content.denominator
        return {m: Fraction(c * n, d) for m, c in self._prim.items()}

    def is_zero(self) -> bool:
        return not self._prim

    def total_degree(self) -> int:
        if not self._prim:
            return -1
        return max(sum(m) for m in self._prim)

    def leading_monomial(self, order: MonomialOrder) -> tuple[int, ...]:
        if not self._prim:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self._prim, key=order.key)

    def leading_coeff(self, order: MonomialOrder) -> Fraction:
        return self._content * self._prim[self.leading_monomial(order)]

    def diff(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.vars.arity:
            raise ValueError(f"variable index {index} out of range")
        out = {}
        for m, c in self._prim.items():
            e = m[index]
            if e:
                out[m[:index] + (e - 1,) + m[index + 1 :]] = c * e
        return _canonical(out, self._content.numerator, self._content.denominator, self.vars)

    def monic(self, order: MonomialOrder) -> "Polynomial":
        """The polynomial over its leading coefficient: the content becomes
        1/|L| for the leading integer L, and the primitive part changes sign
        when L < 0."""
        if not self._prim:
            return self
        return _canonical(self._prim, 1, self._prim[self.leading_monomial(order)], self.vars)

    # -- conversion ---------------------------------------------------------

    def compose(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute args[i] for variable i; result lives over args' variables."""
        if len(args) != self.vars.arity:
            raise ValueError("composition arity mismatch")
        target = args[0].vars
        parts = []
        for m, c in self._prim.items():
            term = Polynomial.constant(c, target)
            for a, e in zip(args, m):
                if e:
                    term = term * a**e
            parts.append(term)
        return Polynomial.sum(parts, target) * self._content

    def to_expr(self) -> SmoothExpr:
        """Expression-tree form (printable in the expression grammar): terms
        largest first in grevlex, each a product folded left to right."""
        vl, grevlex = self.vars, MonomialOrder.GREVLEX.key
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda mc: grevlex(mc[0]), reverse=True):
            factors = [const(c, vl)] if c != 1 or not any(m) else []
            factors += [var(i, vl) ** e if e > 1 else var(i, vl) for i, e in enumerate(m) if e]
            parts.append(functools.reduce(operator.mul, factors))
        return functools.reduce(operator.add, parts) if parts else const(0, vl)

    def to_source(self) -> str:
        from .expr import format_expr

        return format_expr(self.to_expr())


def _canonical(ints: dict, num: int, den: int, vars_: VarList) -> Polynomial:
    """``num / den * ints`` in canonical form, for a map to nonzero ints and
    a nonzero ``num / den``: the gcd of ``ints`` moves into the content."""
    if not ints:
        return Polynomial._of({}, _ZERO, vars_)
    g = math.gcd(*ints.values())
    if (num < 0) != (den < 0):
        g = -g
    if g != 1:
        ints = {m: c // g for m, c in ints.items()}
    return Polynomial._of(ints, Fraction(num * g, den), vars_)


def _gather(scaled: dict, num: int, den: int, vars_: VarList) -> Polynomial:
    """``num / den`` times the sum of c/s x^m over ``scaled = {m: (c, s)}``,
    in canonical form, over the least common multiple of the scales s."""
    if not scaled:
        return Polynomial._of({}, _ZERO, vars_)
    lcm = math.lcm(*{s for _, s in scaled.values()})
    ints = {m: c * (lcm // s) for m, (c, s) in scaled.items()}
    return _canonical(ints, num, den * lcm, vars_)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(operator.le, a, b))


def _mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.add, a, b))


def _mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(operator.sub, a, b))


def _mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def _heap_key(order: MonomialOrder):
    """Key under which heapq's min-heap pops monomials largest-first: the
    order key with every entry negated, flattened."""
    if order is MonomialOrder.LEX:
        return lambda m: tuple(-e for e in m)
    return lambda m: (-sum(m),) + m[::-1]


def _reducer(g: Polynomial, order: MonomialOrder) -> tuple:
    """What division by the nonzero ``g`` and S-polynomials read: (leading
    monomial, leading coefficient L, negated tail, sign), where ``g`` is the
    sign times its content times the integer polynomial with the leading
    coefficient L > 0 and the integer tail.  Built once per polynomial and
    order, and kept on the polynomial."""
    entry = g._reducers.get(order)
    if entry is None:
        lm = g.leading_monomial(order)
        lc = g._prim[lm]
        sign = 1 if lc > 0 else -1
        tail = tuple((m, -sign * c) for m, c in g._prim.items() if m != lm)
        entry = g._reducers[order] = (lm, sign * lc, tail, sign)
    return entry


def normal_form(
    p: Polynomial,
    divisors: Sequence[Polynomial] | "PolyIdeal",
    order: MonomialOrder | None = None,
    quotients: bool = False,
) -> Polynomial | tuple[list[Polynomial], Polynomial]:
    """Remainder of multivariate division of ``p`` by ``divisors``.

    Against a reduced Groebner basis this is the canonical normal form:
    zero exactly when ``p`` lies in the (algebraic) ideal.  Terms leave a
    heap largest first; each is reduced by the first divisor whose leading
    monomial divides it, else it joins the remainder.  With ``quotients``
    the result is ``(quotients, remainder)``, one quotient per divisor (per
    element of the reduced basis, for an ideal), with
    ``p == sum(q * g) + remainder`` exactly.  Each divisor's reduction data
    is built on its first division and reused after (``_reducer``).

    The division runs on Python ints (pseudo-division by the divisors'
    primitive parts): the working terms W start as ``p``'s primitive part,
    and the working value is ``content / scale * W``.  A term c x^m meets a
    divisor with leading coefficient L: with d = gcd(c, L), W and the scale
    are multiplied by L/d, and (c/d) x^q times the divisor's negated integer
    tail is added.  A remainder or quotient term is kept with the scale of
    the moment it is made, and each result is brought to the least common
    multiple of its scales once, at the end, so it equals rational division
    value for value: the same terms cancel, and the same divisor reduces
    each term.  Once the
    scale has grown by ``SCALE_BITS`` bits, W and the scale are divided by
    their common gcd.  That leaves the least scale at which W is integral,
    so W stays within ``SCALE_BITS`` bits of the working terms of rational
    division brought to their least common denominator.
    """
    if isinstance(divisors, PolyIdeal):
        order = divisors.order
        divisors = divisors.groebner()
    else:
        order = order or MonomialOrder.GREVLEX
    lead = []  # (leading monomial, leading coefficient, negated tail, index)
    for k, g in enumerate(divisors):
        if g.is_zero():
            continue
        if g.vars != p.vars:
            raise ValueError("incompatible variable lists")
        lead.append((*_reducer(g, order)[:3], k))

    hkey = _heap_key(order)
    work = dict(p._prim)
    num, den = p._content.numerator, p._content.denominator
    scale, limit = 1, SCALE_BITS
    heap = [(hkey(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], tuple[int, int]] = {}  # m -> (c, scale)
    quots = [{} for _ in divisors] if quotients else None
    le, add, sub, gcd = operator.le, operator.add, operator.sub, math.gcd
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled, or a second heap entry of a reduced term
        for lm, lc, tail, k in lead:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = (c, scale)
            continue
        if lc != 1:
            d = gcd(c, lc)
            if d != lc:
                a = lc // d
                scale *= a
                work = {mm: v * a for mm, v in work.items()}
            c //= d
        q = tuple(map(sub, m, lm))
        if quots is not None:
            quots[k][q] = (c, scale)  # q falls as m falls, so it is new
        for gm, gc in tail:
            mm = tuple(map(add, gm, q))
            old = work.get(mm)
            if old is None:
                work[mm] = c * gc
                heapq.heappush(heap, (hkey(mm), mm))
            else:
                s = old + c * gc
                if s:
                    work[mm] = s
                else:
                    del work[mm]
        if scale.bit_length() > limit:
            d = gcd(scale, *work.values())
            if d > 1:
                scale //= d
                work = {mm: v // d for mm, v in work.items()}
            limit = scale.bit_length() + SCALE_BITS
    r = _gather(remainder, num, den, p.vars)
    if quots is None:
        return r
    out = []
    for g, qk in zip(divisors, quots):
        # the quotient is content / (scale * the divisor's signed content) * c
        sign = _reducer(g, order)[3] if qk else 1
        n, d = num * g._content.denominator, den * g._content.numerator
        out.append(_gather(qk, sign * n, d, p.vars))
    return out, r


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """x^(l - lm f) * f / lc f - x^(l - lm g) * g / lc g for l the lcm of the
    leading monomials; the leading terms cancel.  Formed from the primitive
    parts over the least common multiple a*Lf = b*Lg of their leading
    coefficients."""
    lf, lcf, tf, _ = _reducer(f, order)
    lg, lcg, tg, _ = _reducer(g, order)
    lcm = _mono_lcm(lf, lg)
    uf, ug = _mono_div(lcm, lf), _mono_div(lcm, lg)
    d = math.gcd(lcf, lcg)
    a, b = lcg // d, lcf // d
    out = {_mono_mul(m, uf): -a * c for m, c in tf}
    for m, c in tg:
        mm = _mono_mul(m, ug)
        s = out.get(mm, 0) + b * c
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return _canonical(out, 1, a * lcf, f.vars)


def groebner_basis(
    gens: Iterable[Polynomial],
    order: MonomialOrder = MonomialOrder.GREVLEX,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Buchberger's algorithm with the Gebauer-Moeller update; the inputs,
    sorted by leading monomial, enter through it too.  Pairs wait in a heap
    and leave by the normal selection strategy, smallest lcm first: by lcm
    degree in grevlex (ties to the lowest indices), by the lcm itself in
    lex.  Each new element drops the old pairs it makes redundant
    (criterion B), keeps one new pair per minimal lcm (criteria M and F) and
    drops new pairs with coprime leading monomials; S-polynomials are
    reduced by the elements no newer leading monomial divides.  A final
    inter-reduction leaves the basis sorted by leading monomial, and only
    its elements are made monic: a remainder does not change when a divisor
    is scaled, and S-polynomials read the integer forms.  Raises
    DegreeCapExceeded if an intermediate polynomial climbs above
    ``degree_cap``.
    """
    polys = [g for g in gens if not g.is_zero()]
    polys.sort(key=lambda g: order.key(_reducer(g, order)[0]))
    lms = [_reducer(g, order)[0] for g in polys]
    active: list[int] = []  # indices of the current basis, ascending
    pairs: list[tuple] = []  # heap of (selection key, i, j), i < j
    select = sum if order is MonomialOrder.GREVLEX else tuple

    def update(h: int) -> None:
        mh = lms[h]
        lcms = {g: _mono_lcm(lms[g], mh) for g in active}
        coprime = {g for g in active if _mono_mul(lms[g], mh) == lcms[g]}
        # criteria M and F: a new pair survives when no later new pair and no
        # kept one has an lcm dividing its own; coprime pairs take part in
        # this test and are dropped after it
        kept: list[int] = []
        for n, g in enumerate(active):
            rivals = itertools.chain(active[n + 1 :], kept)
            if g in coprime or not any(_divides(lcms[o], lcms[g]) for o in rivals):
                kept.append(g)

        def redundant(i: int, j: int) -> bool:  # criterion B
            lij = _mono_lcm(lms[i], lms[j])
            return (
                _divides(mh, lij)
                and _mono_lcm(lms[i], mh) != lij
                and _mono_lcm(lms[j], mh) != lij
            )

        pairs[:] = [p for p in pairs if not redundant(p[1], p[2])]
        pairs.extend((select(lcms[g]), g, h) for g in kept if g not in coprime)
        heapq.heapify(pairs)
        active[:] = [g for g in active if not _divides(mh, lms[g])] + [h]

    for h in range(len(polys)):
        update(h)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        basis = [polys[k] for k in active]
        r = normal_form(s_polynomial(polys[i], polys[j], order), basis, order)
        if r.is_zero():
            continue
        if r.total_degree() > degree_cap:
            raise DegreeCapExceeded(
                f"intermediate degree {r.total_degree()} exceeds cap {degree_cap}; "
                "raise the cap to continue"
            )
        polys.append(r)
        lms.append(_reducer(polys[-1], order)[0])
        update(len(polys) - 1)

    # minimalize: drop elements whose leading monomial is divisible by another's
    minimal: list[int] = []
    for k in sorted(active, key=lambda k: order.key(lms[k])):
        if not any(_divides(lms[j], lms[k]) for j in minimal):
            minimal.append(k)
    # fully reduce each element against the others: no other leading
    # monomial divides its own, so it keeps its leading term, and the basis
    # keeps the ascending order of ``minimal``
    reduced = []
    for k in minimal:
        others = [polys[j] for j in minimal if j != k]
        reduced.append((normal_form(polys[k], others, order) if others else polys[k]).monic(order))
    return reduced


@dataclass
class PolyIdeal:
    """Finitely generated ideal with a lazily cached reduced Groebner basis.
    The basis elements keep their reduction data, so normal forms against
    the ideal rebuild none of it."""

    gens: tuple[Polynomial, ...]
    order: MonomialOrder = MonomialOrder.GREVLEX
    degree_cap: int = DEFAULT_DEGREE_CAP
    _basis: Optional[list[Polynomial]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.gens = tuple(self.gens)
        if self.gens:
            vl = self.gens[0].vars
            for g in self.gens:
                if g.vars != vl:
                    raise ValueError("ideal generators over different variable lists")

    @property
    def vars(self) -> VarList:
        if not self.gens:
            raise ValueError("empty ideal carries no variable list")
        return self.gens[0].vars

    def groebner(self) -> list[Polynomial]:
        if self._basis is None:
            self._basis = groebner_basis(self.gens, self.order, self.degree_cap)
        return self._basis

    def normal_form(self, p: Polynomial) -> Polynomial:
        return normal_form(p, self)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()


def ideal_sum(a: PolyIdeal, b: PolyIdeal) -> PolyIdeal:
    """Ideal generated by the concatenated generators; zero sets intersect."""
    if a.gens and b.gens and a.vars != b.vars:
        raise ValueError("ideal sum over different variable lists")
    return PolyIdeal(a.gens + b.gens, a.order, max(a.degree_cap, b.degree_cap))


def pullback_ideal(ideal: PolyIdeal, components: Sequence[Polynomial]) -> PolyIdeal:
    """Ideal generated by g o f for each generator g, where f has the given
    polynomial components (a map from the components' space into the ideal's).
    """
    if len(components) != ideal.vars.arity:
        raise ValueError(
            f"map has {len(components)} components, ideal lives over "
            f"{ideal.vars.arity} variables"
        )
    pulled = tuple(g.compose(components) for g in ideal.gens)
    return PolyIdeal(pulled, ideal.order, ideal.degree_cap)


def bounded_membership(
    p: Polynomial, gens: Sequence[Polynomial], cofactor_degree: int
) -> bool:
    """Decide whether p = sum(q_i g_i) has a solution with deg(q_i) bounded.

    Brute-force linear algebra over the rationals; exists as an independent
    cross-check of normal-form membership on small instances.
    """
    if p.is_zero():
        return True
    monos = [
        m
        for m in itertools.product(range(cofactor_degree + 1), repeat=p.vars.arity)
        if sum(m) <= cofactor_degree
    ]
    # unknowns: coefficient of each monomial in each cofactor; the column of
    # g times x^m is g's terms shifted by m
    columns = []
    for terms in [g.terms for g in gens]:
        columns += [{_mono_mul(gm, m): gc for gm, gc in terms.items()} for m in monos]
    target = p.terms
    rows = sorted(set().union(target, *columns))
    matrix = [[col.get(r, 0) for col in columns] for r in rows]
    return _solvable(matrix, [target.get(r, 0) for r in rows])


def _solvable(matrix: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    rows = [row[:] + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pr = rows[pivot_row]
        inv = 1 / pr[col]
        rows[pivot_row] = [x * inv for x in pr]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    # inconsistent iff a zero row has nonzero rhs
    return all(any(x != 0 for x in row[:-1]) or row[-1] == 0 for row in rows)
