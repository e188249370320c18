"""Derivations of a presented smooth ring, given by lift coefficients.

A derivation is input as coefficients (a_1, ..., a_n): it acts on a
representative f as sum(a_i * df/dx_i), and the same coefficients define the
lifted vector field on R^n whose trajectories realize the integral curves.
Ideal preservation is certified generator by generator through polynomial
normal forms; the Leibniz rule makes the generator check sufficient.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import cring
from . import expr as ex
from . import polyring as pr

__all__ = [
    "LiftedField",
    "PreservationReport",
    "GeneratorCheck",
    "GeneratorStatus",
    "NotCertifiedError",
    "lift",
    "preserves_ideal",
    "apply",
    "related",
    "RelatednessStatus",
    "RelatednessResult",
    "hadamard_decompose",
    "derivation_equal",
    "lie_bracket",
]


class NotCertifiedError(Exception):
    pass


@dataclass(frozen=True)
class LiftedField:
    """Vector field sum(coeffs[i] * d/dx_i); home=None means the free ring on
    the coefficient variables (all of R^n as the point set)."""

    coeffs: tuple[ex.SmoothExpr, ...]
    home: Optional[cring.SchemePresentation] = None

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a field needs at least one coefficient")
        vl = self.coeffs[0].vars
        for c in self.coeffs:
            if c.vars != vl:
                raise ValueError("coefficients over different variable lists")
        if len(self.coeffs) != vl.arity:
            raise ValueError(
                f"{len(self.coeffs)} coefficients for arity {vl.arity}"
            )
        if self.home is not None and self.home.vars != vl:
            raise ValueError("home presentation over a different variable list")

    @property
    def vars(self) -> ex.VarList:
        return self.coeffs[0].vars

    @functools.cached_property
    def poly_coeffs(self) -> Optional[tuple[pr.Polynomial, ...]]:
        """The coefficients as exact polynomials, or None when one of them
        does not convert (``expr.as_polynomial``).  Computed once per field."""
        polys = tuple(ex.as_polynomial(a) for a in self.coeffs)
        return None if None in polys else polys

    @functools.cached_property
    def rhs(self) -> Callable[[Sequence[float]], np.ndarray]:
        """The coefficients compiled by ``expr.as_callable`` (see ``lift``).
        Compiled once per field."""
        return ex.as_callable(self.coeffs)

    @classmethod
    def from_strings(
        cls, sources: Sequence[str], home: cring.SchemePresentation
    ) -> "LiftedField":
        return cls(tuple(ex.parse_expr(s, home.vars) for s in sources), home)

    def directional(self, f: ex.SmoothExpr) -> ex.SmoothExpr:
        """The derivative of ``f`` along the field: sum(a_i * df/dx_i)."""
        if f.vars != self.vars:
            raise ValueError("expression over a different variable list")
        terms = [a * ex.diff(f, i) for i, a in enumerate(self.coeffs)]
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return ex.simplify(out)


def lift(field: LiftedField) -> Callable[[Sequence[float]], np.ndarray]:
    """Compiled coefficient evaluation, usable as an ODE right-hand side:
    a point to the (n,) array of coefficient values, or an (n, m) array
    holding m points as columns to the (n, m) array of their values, by
    ``expr.as_callable`` of the coefficient tuple, compiled once per field
    (``LiftedField.rhs``)."""
    return field.rhs


class GeneratorStatus(enum.Enum):
    CERTIFIED = "certified-zero"
    NOT_CERTIFIED = "not-certified"
    NUMERIC = "numeric-only"


@dataclass(frozen=True)
class GeneratorCheck:
    generator: ex.SmoothExpr
    # V(g): the polynomial when it was computed in the polynomial ring, else
    # the expression; ``image`` is always the expression
    image_data: Union[pr.Polynomial, ex.SmoothExpr]
    status: GeneratorStatus
    residual: Optional[pr.Polynomial] = None  # nonzero normal form, if any
    # certificate of a certified check: image == sum(q_k * G_k) over the
    # reduced Groebner basis G of the home ideal (``poly_ideal().groebner()``)
    quotients: Optional[tuple[pr.Polynomial, ...]] = None
    numeric_residual: Optional[float] = None  # max |V(g)| over zero-set samples
    sample_count: int = 0  # points behind a numeric residual

    @functools.cached_property
    def image(self) -> ex.SmoothExpr:
        """V(g) as an expression, built from the polynomial on first read."""
        data = self.image_data
        return data.to_expr() if isinstance(data, pr.Polynomial) else data


@dataclass(frozen=True)
class PreservationReport:
    checks: tuple[GeneratorCheck, ...]
    note: str = ""

    @property
    def certified(self) -> bool:
        return all(c.status is GeneratorStatus.CERTIFIED for c in self.checks)

    @property
    def failed(self) -> bool:
        return any(c.status is GeneratorStatus.NOT_CERTIFIED for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            g = ex.format_expr(c.generator)
            if c.status is GeneratorStatus.CERTIFIED:
                lines.append(f"generator {g}: certified (normal form 0)")
            elif c.status is GeneratorStatus.NOT_CERTIFIED:
                lines.append(
                    f"generator {g}: not certified, residual {c.residual.to_source()}"
                )
            else:
                lines.append(
                    f"generator {g}: numeric only, max residual "
                    f"{c.numeric_residual:.3e} over {c.sample_count} samples"
                )
        if self.note:
            lines.append(self.note)
        verdict = "certified" if self.certified else "not certified"
        lines.append(f"overall: {verdict}")
        return "\n".join(lines)


def preserves_ideal(
    field: LiftedField,
    box: Optional[tuple[tuple[float, float], ...]] = None,
    resolution: int = 9,
) -> PreservationReport:
    """Check that the field maps every ideal generator back into the ideal.

    Polynomial generators with a polynomial ideal get an exact certificate
    via normal forms; anything else falls back to the sampled size of V(g)
    on the zero set (necessary, not sufficient).  Region-only presentations
    have nothing to check: every smooth field preserves the vanishing ideal
    of a full-dimensional closed region.

    When the ideal and every coefficient are polynomial, V(g) is computed in
    ``polyring`` as sum(a_i * dg/dx_i) over ``poly_ideal().gens``, in exact
    rational arithmetic, and ``GeneratorCheck.image`` is its ``to_expr()``,
    built when first read.
    Otherwise (a non-polynomial generator or coefficient) V(g) is
    ``field.directional(g)``, converted by ``expr.as_polynomial`` where it
    can be.  Both give the same polynomial wherever both apply.
    """
    scheme = field.home
    if scheme is None:
        raise ValueError("free fields have no ideal to preserve")
    ideal = scheme.poly_ideal()
    coeffs = None if ideal is None else field.poly_coeffs
    checks, images = [], []
    for k, g in enumerate(scheme.ideal_gens):
        if coeffs is not None:
            gen = ideal.gens[k]
            image = image_poly = sum(a * gen.diff(i) for i, a in enumerate(coeffs))
        else:
            image = field.directional(g)
            image_poly = ex.as_polynomial(image)
        images.append(image)
        if ideal is None or image_poly is None:
            checks.append(None)  # numeric: all such images are sampled below
            continue
        quotients, nf = pr.normal_form(image_poly, ideal, quotients=True)
        if nf.is_zero():
            checks.append(
                GeneratorCheck(g, image, GeneratorStatus.CERTIFIED, quotients=tuple(quotients))
            )
        else:
            checks.append(GeneratorCheck(g, image, GeneratorStatus.NOT_CERTIFIED, residual=nf))
    numeric = [k for k, c in enumerate(checks) if c is None]
    if numeric:
        pts = cring.sample_zero_set(scheme, box or scheme.default_box(), resolution)
        worst = _max_abs([images[k] for k in numeric], [p.coords for p in pts])
        for k, w in zip(numeric, worst):
            checks[k] = GeneratorCheck(
                scheme.ideal_gens[k],
                images[k],
                GeneratorStatus.NUMERIC,
                numeric_residual=w,
                sample_count=len(pts),
            )
    note = ""
    if not scheme.ideal_gens and scheme.region:
        note = (
            "region-backed presentation: every smooth field preserves the "
            "vanishing ideal of a closed full-dimensional region"
        )
    return PreservationReport(tuple(checks), note=note)


def apply(field: LiftedField, element: cring.RingElement) -> cring.RingElement:
    """The induced derivation on the quotient: well defined once the ideal is
    preserved; raises NotCertifiedError otherwise."""
    if field.home is None or element.home != field.home:
        raise ValueError("element and field must share a home presentation")
    report = preserves_ideal(field)
    if report.failed:
        raise NotCertifiedError(
            "field does not certifiably preserve the ideal:\n" + report.summary()
        )
    return cring.RingElement(field.directional(element.rep), field.home)


class RelatednessStatus(enum.Enum):
    CERTIFIED = "certified"
    NOT_CERTIFIED = "not-certified"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class RelatednessResult:
    status: RelatednessStatus
    per_coordinate: tuple[cring.EqualityResult, ...]
    max_sampled: float = 0.0


def related(
    phi: Sequence[ex.SmoothExpr],
    w: LiftedField,
    v: LiftedField,
    tol: float = 1e-7,
    box: Optional[tuple[tuple[float, float], ...]] = None,
    resolution: int = 9,
) -> RelatednessResult:
    """Are v (on the source) and w (on the target) intertwined by the map
    with components ``phi``?  Checks v(phi_j) = w_j o phi for every target
    coordinate, modulo the source ideal; the chain rule extends the
    coordinate check to the whole ring.
    """
    if len(phi) != w.vars.arity:
        raise ValueError("map components must match the target arity")
    for c in phi:
        if c.vars != v.vars:
            raise ValueError("map components live over the source variables")

    source = v.home
    results = []
    sampled = 0.0
    status = RelatednessStatus.CERTIFIED
    free = []  # (index in results, difference) on a free source
    unknown = []  # differences a presented source leaves unknown
    for j, wj in enumerate(w.coeffs):
        lhs = v.directional(phi[j])
        rhs = ex.apply_operation(wj, tuple(phi))
        diff = ex.simplify(lhs - rhs)
        if diff.kind == "const" and diff.value == 0:
            results.append(cring.EqualityResult(cring.EqualityStatus.EQUAL))
            continue
        if source is not None:
            r = cring.element_equal(source.element(diff), source.element("0"), box, resolution)
            results.append(r)
            if r.status is cring.EqualityStatus.DISTINCT:
                status = RelatednessStatus.NOT_CERTIFIED
            elif r.status is cring.EqualityStatus.UNKNOWN:
                status = _merge_numeric(status)
                unknown.append(diff)
            continue
        free.append((len(results), diff))
        results.append(None)
    if unknown:
        # presented source: one sample of the zero set, all differences in one call
        pts = cring.sample_zero_set(source, box or source.default_box(), resolution)
        sampled = max(sampled, *_max_abs(unknown, [p.coords for p in pts]))
    if free:
        # free source: sample a box grid, all differences in one call
        half = cring.DEFAULT_BOX_HALFWIDTH
        pts = cring.box_grid(box or ((-half, half),) * v.vars.arity, resolution)
        for (j, _), worst in zip(free, _max_abs([d for _, d in free], pts)):
            sampled = max(sampled, worst)
            if worst > tol:
                status = RelatednessStatus.NOT_CERTIFIED
                verdict = cring.EqualityStatus.DISTINCT
            else:
                status = _merge_numeric(status)
                verdict = cring.EqualityStatus.UNKNOWN
            results[j] = cring.EqualityResult(verdict, detail=f"max {worst:.3e}")
    if status is RelatednessStatus.NUMERIC and sampled > tol:
        status = RelatednessStatus.NOT_CERTIFIED
    return RelatednessResult(status, tuple(results), sampled)


def _merge_numeric(status: RelatednessStatus) -> RelatednessStatus:
    return status if status is RelatednessStatus.NOT_CERTIFIED else RelatednessStatus.NUMERIC


def _max_abs(exprs: Sequence[ex.SmoothExpr], points) -> list[float]:
    """max |e| over ``points`` (one per row) of each expression, all in one
    batched call; 0.0 for no points, and a NaN value is skipped."""
    with np.errstate(all="ignore"):
        values = ex.as_callable(exprs)(np.reshape(points, (-1, exprs[0].vars.arity)).T)
    return np.fmax.reduce(np.abs(values), axis=1, initial=0.0).tolist()


def hadamard_decompose(f: pr.Polynomial) -> list[pr.Polynomial]:
    """Writes f(x) - f(y) = sum((x_i - y_i) * g_i(x, y)) by telescoping and
    exact division; the identity holds exactly as polynomials over 2n
    variables (x_1..x_n, y_1..y_n)."""
    vl = f.vars
    n = vl.arity
    doubled = ex.VarList(tuple(vl.names) + tuple(f"{name}__y" for name in vl.names))
    xs = [pr.Polynomial.variable(i, doubled) for i in range(n)]
    ys = [pr.Polynomial.variable(n + i, doubled) for i in range(n)]

    def mixed(k: int) -> pr.Polynomial:
        # f evaluated at (y_1..y_k, x_{k+1}..x_n)
        args = [ys[i] if i < k else xs[i] for i in range(n)]
        return f.compose(args)

    out = []
    for i in range(n):
        numerator = mixed(i) - mixed(i + 1)
        divisor = xs[i] - ys[i]
        (quotient,), remainder = pr.normal_form(
            numerator, [divisor], pr.MonomialOrder.GREVLEX, quotients=True
        )
        if not remainder.is_zero():
            raise AssertionError("telescoping difference not divisible; check inputs")
        out.append(quotient)
    return out


def derivation_equal(
    d: LiftedField,
    e: LiftedField,
    box: Optional[tuple[tuple[float, float], ...]] = None,
    resolution: int = 9,
) -> cring.EqualityResult:
    """Coefficientwise coset equality; a derivation of the quotient is
    determined by its values on the coordinate generators."""
    if d.home is None or e.home is None or d.home != e.home:
        raise ValueError("fields must share a home presentation")
    scheme = d.home
    verdicts = []
    for a, b in zip(d.coeffs, e.coeffs):
        r = cring.element_equal(scheme.element(a), scheme.element(b), box, resolution)
        if r.status is cring.EqualityStatus.DISTINCT:
            return r
        verdicts.append(r)
    if all(r.status is cring.EqualityStatus.EQUAL for r in verdicts):
        return cring.EqualityResult(cring.EqualityStatus.EQUAL)
    return cring.EqualityResult(
        cring.EqualityStatus.UNKNOWN, detail="some coordinates lack a certificate"
    )


def lie_bracket(d: LiftedField, e: LiftedField) -> LiftedField:
    """Coefficients of [d, e]; preservation of the ideal is re-certified by
    callers, never assumed."""
    if d.vars != e.vars or d.home != e.home:
        raise ValueError("fields must live on the same presentation")
    coeffs = tuple(
        ex.simplify(d.directional(e.coeffs[i]) - e.directional(d.coeffs[i]))
        for i in range(d.vars.arity)
    )
    return LiftedField(coeffs, d.home)
