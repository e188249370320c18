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
    "lift",
    "preserves_ideal",
    "hadamard_decompose",
]


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

    When the ideal and every coefficient are polynomial, V(g) is computed
    exactly in ``polyring`` as sum(a_i * dg/dx_i) over
    ``poly_ideal().gens``, and ``GeneratorCheck.image`` is its
    ``to_expr()``, built when first read.  Otherwise (a non-polynomial
    generator or coefficient) V(g) is ``field.directional(g)``, converted by
    ``expr.as_polynomial`` when the ideal is polynomial.  Both give the same
    polynomial wherever both apply.
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
            parts = (a * gen.diff(i) for i, a in enumerate(coeffs))
            image = image_poly = pr.Polynomial.sum(parts, gen.vars)
        else:
            image = field.directional(g)
            image_poly = None if ideal is None else ex.as_polynomial(image)
        images.append(image)
        if image_poly is None:
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


def _max_abs(exprs: Sequence[ex.SmoothExpr], points) -> list[float]:
    """max |e| over ``points`` (one per row) of each expression, all in one
    batched call; 0.0 for no points, and NaN when a value is NaN."""
    with np.errstate(all="ignore"):
        values = ex.as_callable(exprs)(np.reshape(points, (-1, exprs[0].vars.arity)).T)
    return np.max(np.abs(values), axis=1, initial=0.0).tolist()


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
