"""Exact sparse multivariate polynomials and Groebner-basis ideal arithmetic.

Coefficients are rationals (fractions.Fraction) throughout; floating point
enters only when a polynomial is evaluated as an expression (``to_expr``).
Monomial orders: grevlex (default) and lex, with variable precedence given
by declaration order.

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
import heapq
import itertools
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
    """Sparse map exponent-vector -> nonzero rational coefficient.

    ``int`` and ``float`` coefficients are stored as ``Fraction`` (a float as
    its exact binary rational), so arithmetic stays exact.  ``terms`` is
    never written after construction (nothing in the package does), which
    is what lets a polynomial keep its reduction data (``_reducer``).
    """

    __slots__ = ("terms", "vars", "_reducers")

    def __init__(self, terms: dict[tuple[int, ...], Fraction], vars_: VarList):
        self.terms = {
            m: c if type(c) is Fraction else Fraction(c) for m, c in terms.items() if c != 0
        }
        self.vars = vars_
        self._reducers = None  # monomial order -> ``_reducer`` entry, on first use

    # -- constructors ----------------------------------------------------

    @classmethod
    def constant(cls, value, vars_: VarList) -> "Polynomial":
        c = Fraction(value)
        zero = (0,) * vars_.arity
        return cls({zero: c} if c != 0 else {}, vars_)

    @classmethod
    def variable(cls, index: int, vars_: VarList) -> "Polynomial":
        exps = tuple(1 if i == index else 0 for i in range(vars_.arity))
        return cls({exps: Fraction(1)}, vars_)

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise ValueError("polynomials over different variable lists")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(out, self.vars)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()}, self.vars)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.vars)
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        add = operator.add
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                old = out.get(m)
                out[m] = c1 * c2 if old is None else old + c1 * c2
        return Polynomial(out, self.vars)  # drops the terms that cancelled

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({self.to_source()!r})"

    # -- structure queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self, order: MonomialOrder) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coeff(self, order: MonomialOrder) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def diff(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.vars.arity:
            raise ValueError(f"variable index {index} out of range")
        out = {}
        for m, c in self.terms.items():
            e = m[index]
            if e:
                out[m[:index] + (e - 1,) + m[index + 1 :]] = c * e
        return Polynomial(out, self.vars)

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coeff(order)
        if lc == 1:
            return self
        return Polynomial({m: c / lc for m, c in self.terms.items()}, self.vars)

    # -- conversion ---------------------------------------------------------

    def compose(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute args[i] for variable i; result lives over args' variables."""
        if len(args) != self.vars.arity:
            raise ValueError("composition arity mismatch")
        target = args[0].vars
        out = Polynomial.constant(0, target)
        for m, c in self.terms.items():
            term = Polynomial.constant(c, target)
            for a, e in zip(args, m):
                if e:
                    term = term * a**e
            out = out + term
        return out

    def to_expr(self) -> SmoothExpr:
        """Expression-tree form (printable in the expression grammar)."""
        terms = sorted(
            self.terms.items(), key=lambda mc: MonomialOrder.GREVLEX.key(mc[0]), reverse=True
        )
        vl = self.vars
        if not terms:
            return const(0, vl)
        parts = []
        for m, c in terms:
            factors: list[SmoothExpr] = []
            if c != 1 or not any(m):
                factors.append(const(c, vl))
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(var(i, vl))
                elif e > 1:
                    factors.append(var(i, vl) ** e)
            term = factors[0]
            for f in factors[1:]:
                term = term * f
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out

    def to_source(self) -> str:
        from .expr import format_expr

        return format_expr(self.to_expr())


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
    monomial, leading coefficient, negated tail).  Built once per polynomial
    and order, and kept on the polynomial."""
    cache = g._reducers
    if cache is None:
        cache = g._reducers = {}
    entry = cache.get(order)
    if entry is None:
        lm = g.leading_monomial(order)
        tail = tuple((m, -c) for m, c in g.terms.items() if m != lm)
        entry = cache[order] = (lm, g.terms[lm], tail)
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
        lead.append((*_reducer(g, order), k))

    hkey = _heap_key(order)
    work = dict(p.terms)
    heap = [(hkey(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[tuple[int, ...], Fraction] = {}
    quots = [{} for _ in divisors] if quotients else None
    le, add, sub = operator.le, operator.add, operator.sub
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # cancelled, or a second heap entry of a reduced term
        for lm, lc, tail, k in lead:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = c
            continue
        q = tuple(map(sub, m, lm))
        factor = c if lc == 1 else c / lc
        if quots is not None:
            quots[k][q] = factor  # q falls as m falls, so it is new
        for gm, gc in tail:
            mm = tuple(map(add, gm, q))
            old = work.get(mm)
            if old is None:
                work[mm] = factor * gc
                heapq.heappush(heap, (hkey(mm), mm))
            else:
                s = old + factor * gc
                if s:
                    work[mm] = s
                else:
                    del work[mm]
    r = Polynomial(remainder, p.vars)
    if quots is None:
        return r
    return [Polynomial(q, p.vars) for q in quots], r


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lf, lcf, _ = _reducer(f, order)
    lg, lcg, _ = _reducer(g, order)
    lcm = _mono_lcm(lf, lg)
    uf, ug = _mono_div(lcm, lf), _mono_div(lcm, lg)
    cf, cg = 1 / lcf, 1 / lcg
    out = {_mono_mul(m, uf): c * cf for m, c in f.terms.items()}
    for m, c in g.terms.items():
        mm = _mono_mul(m, ug)
        s = out.get(mm, 0) - c * cg
        if s:
            out[mm] = s
        else:
            out.pop(mm, None)
    return Polynomial(out, f.vars)


def groebner_basis(
    gens: Iterable[Polynomial],
    order: MonomialOrder = MonomialOrder.GREVLEX,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Buchberger's algorithm with the Gebauer-Moeller update; the inputs,
    made monic and sorted by leading monomial, enter through it too.  Pairs
    wait in a heap and leave by the normal selection strategy, smallest lcm
    first: by lcm degree in grevlex (ties to the lowest indices), by the lcm
    itself in lex.  Each new element drops the old pairs it makes redundant
    (criterion B), keeps one new pair per minimal lcm (criteria M and F) and
    drops new pairs with coprime leading monomials; S-polynomials are
    reduced by the elements no newer leading monomial divides.  A final
    inter-reduction leaves the basis sorted by leading monomial.  Raises
    DegreeCapExceeded if an intermediate polynomial climbs above
    ``degree_cap``.
    """
    polys = [g.monic(order) for g in gens if not g.is_zero()]
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
        polys.append(r.monic(order))
        lms.append(_reducer(polys[-1], order)[0])
        update(len(polys) - 1)

    # minimalize: drop elements whose leading monomial is divisible by another's
    minimal: list[int] = []
    for k in sorted(active, key=lambda k: order.key(lms[k])):
        if not any(_divides(lms[j], lms[k]) for j in minimal):
            minimal.append(k)
    # fully reduce each element against the others: no other leading
    # monomial divides its own, so it keeps its monic leading term, and the
    # basis keeps the ascending order of ``minimal``
    reduced = []
    for k in minimal:
        others = [polys[j] for j in minimal if j != k]
        reduced.append(normal_form(polys[k], others, order) if others else polys[k])
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
    vl = p.vars
    n = vl.arity
    monos = [
        m
        for m in itertools.product(range(cofactor_degree + 1), repeat=n)
        if sum(m) <= cofactor_degree
    ]
    # unknowns: coefficient of each monomial in each cofactor
    columns: list[dict[tuple[int, ...], Fraction]] = []
    for g in gens:
        for m in monos:
            col: dict[tuple[int, ...], Fraction] = {}
            for gm, gc in g.terms.items():
                mm = _mono_mul(gm, m)
                col[mm] = col.get(mm, Fraction(0)) + gc
            columns.append(col)
    rows = sorted(set().union(p.terms, *[c.keys() for c in columns]))
    matrix = [[col.get(r, Fraction(0)) for col in columns] for r in rows]
    rhs = [p.terms.get(r, Fraction(0)) for r in rows]
    return _solvable(matrix, rhs)


def _solvable(matrix: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    rows = [row[:] + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                sel = r
                break
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
