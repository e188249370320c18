"""Finitely presented smooth rings and their point sets.

A SchemePresentation is (variables, ideal generators, optional inequality
region): the quotient of smooth functions on R^n by the ideal, together with
the closed subset of R^n where all generators vanish (intersected with the
region g <= 0 when one is declared).  Ring elements are represented by
expressions; points of the quotient's spectrum are represented by points of
the zero set, which is what all numeric checks sample.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expr as ex
from . import polyring as pr

__all__ = [
    "SchemePresentation",
    "RingElement",
    "SchemePoint",
    "EqualityStatus",
    "EqualityResult",
    "PointNotOnScheme",
    "element_equal",
    "in_zero_set",
    "membership_residual",
    "sample_zero_set",
]

DEFAULT_EPS_Z = 1e-9
DEFAULT_BOX_HALFWIDTH = 2.0


class PointNotOnScheme(Exception):
    pass


@dataclass(frozen=True)
class SchemePoint:
    coords: tuple[float, ...]

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


@dataclass(frozen=True)
class SchemePresentation:
    """Presentation data for C^inf(R^n) / (ideal_gens), point set cut out by
    ideal_gens = 0 and region constraints <= 0."""

    vars: ex.VarList
    ideal_gens: tuple[ex.SmoothExpr, ...] = ()
    region: tuple[ex.SmoothExpr, ...] = ()
    eps_z: float = DEFAULT_EPS_Z
    germ_determined: bool = True  # declared by the presenter, never verified

    def __post_init__(self):
        if not self.ideal_gens and not self.region:
            raise ValueError("presentation needs ideal generators or region constraints")
        if self.eps_z <= 0:
            raise ValueError("zero-set tolerance must be positive")
        for g in self.ideal_gens + self.region:
            if g.vars != self.vars:
                raise ValueError("generator over a different variable list")

    @property
    def arity(self) -> int:
        return self.vars.arity

    def poly_ideal(self) -> Optional[pr.PolyIdeal]:
        """The ideal as polynomials, when every generator converts; else None."""
        polys = []
        for g in self.ideal_gens:
            p = ex.as_polynomial(g)
            if p is None:
                return None
            polys.append(p)
        if not polys:
            return None
        return pr.PolyIdeal(tuple(polys))

    def residual_fn(self) -> Callable[[Sequence[float]], float]:
        """Compiled membership residual: max over |generator| and max(region, 0).

        A point belongs to the zero set exactly when the residual is <= eps_z.
        The callable takes one point, or an (n, m) array holding m points as
        columns and returning their m residuals.  Both skip a NaN constraint
        value (``max`` point-wise, ``np.fmax`` on a batch).  A batch runs the
        constraints compiled with ``expr.as_callable(..., batch=True)`` and
        raises where one of its points would.  It also raises
        FloatingPointError on any overflow, because point-wise some
        overflows raise and others give inf; the caller then evaluates the
        points one by one.  Batch values may differ from point-wise ones in
        the last bits.
        """
        gen_fns = [ex.as_callable(g) for g in self.ideal_gens]
        region_fns = [ex.as_callable(g) for g in self.region]
        gen_batch = [ex.as_callable(g, batch=True) for g in self.ideal_gens]
        region_batch = [ex.as_callable(g, batch=True) for g in self.region]

        def residual(p: Sequence[float]) -> float:
            if isinstance(p, np.ndarray) and p.ndim == 2:
                with np.errstate(all="ignore", over="raise"):
                    r = np.zeros(p.shape[1])
                    for f in gen_batch:
                        r = np.fmax(r, np.abs(f(p)))
                    for f in region_batch:
                        r = np.fmax(r, f(p))
                return r
            r = 0.0
            for f in gen_fns:
                r = max(r, abs(f(p)))
            for f in region_fns:
                r = max(r, f(p))
            return r

        return residual

    def element(self, source) -> "RingElement":
        e = ex.parse_expr(source, self.vars) if isinstance(source, str) else source
        return RingElement(e, self)

    def point(self, coords: Sequence[float], tol: Optional[float] = None) -> SchemePoint:
        coords = tuple(float(c) for c in coords)
        if len(coords) != self.arity:
            raise ValueError(f"point length {len(coords)} != arity {self.arity}")
        r = membership_residual(self, coords)
        if r > (self.eps_z if tol is None else tol):
            raise PointNotOnScheme(
                f"point {coords} has membership residual {r:.3e} above tolerance"
            )
        return SchemePoint(coords)

    def default_box(self) -> tuple[tuple[float, float], ...]:
        w = DEFAULT_BOX_HALFWIDTH
        return tuple((-w, w) for _ in range(self.arity))


@dataclass(frozen=True)
class RingElement:
    rep: ex.SmoothExpr
    home: SchemePresentation

    def __post_init__(self):
        if self.rep.vars != self.home.vars:
            raise ValueError("representative over a different variable list")

    def __add__(self, other):
        other = self._coerce(other)
        return RingElement(self.rep + other.rep, self.home)

    def __sub__(self, other):
        other = self._coerce(other)
        return RingElement(self.rep - other.rep, self.home)

    def __mul__(self, other):
        other = self._coerce(other)
        return RingElement(self.rep * other.rep, self.home)

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.home is not self.home and other.home != self.home:
                raise ValueError("elements of different presentations")
            return other
        return RingElement(ex.const(other, self.home.vars), self.home)

    def __repr__(self):
        return f"RingElement({ex.format_expr(self.rep)!r})"


def membership_residual(scheme: SchemePresentation, point: Sequence[float]) -> float:
    r = 0.0
    for g in scheme.ideal_gens:
        r = max(r, abs(ex.evaluate(g, point)))
    for g in scheme.region:
        r = max(r, ex.evaluate(g, point))
    return r


def in_zero_set(scheme: SchemePresentation, point: Sequence[float]) -> bool:
    """True iff all ideal generators vanish and all region constraints hold
    at the point, to the presentation's tolerance."""
    return membership_residual(scheme, point) <= scheme.eps_z


class EqualityStatus(enum.Enum):
    EQUAL = "equal-certified"
    DISTINCT = "distinct-certified"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class EqualityResult:
    status: EqualityStatus
    normal_form: Optional[pr.Polynomial] = None
    witness: Optional[tuple[float, ...]] = None
    detail: str = ""

    def __bool__(self):
        return self.status is EqualityStatus.EQUAL


def element_equal(
    a: RingElement,
    b: RingElement,
    box: Optional[tuple[tuple[float, float], ...]] = None,
    resolution: int = 9,
) -> EqualityResult:
    """Certificate-style equality of cosets.

    equal-certified: the difference is polynomial and reduces to zero modulo
    a polynomial presentation of the ideal (sound: the algebraic ideal sits
    inside the smooth one).  distinct-certified: a sampled zero-set point
    witnesses a nonzero value, or a gradient outside the span of the
    generator gradients (both witnesses are sound for the smooth ideal).
    Anything else: unknown, with the nonzero normal form attached when one
    was computed.
    """
    if a.home != b.home:
        raise ValueError("elements of different presentations")
    scheme = a.home
    d = ex.simplify(a.rep - b.rep)
    if d.kind == "const" and d.value == 0:
        return EqualityResult(EqualityStatus.EQUAL, detail="representatives identical")

    nf = None
    dp = ex.as_polynomial(d)
    ideal = scheme.poly_ideal()
    if dp is not None and ideal is not None:
        nf = ideal.normal_form(dp)
        if nf.is_zero():
            return EqualityResult(EqualityStatus.EQUAL, normal_form=nf)

    pts = sample_zero_set(scheme, box or scheme.default_box(), resolution)
    # sampled points satisfy the generators only to eps_z, so a sound value
    # witness needs headroom above what an ideal element could reach there
    value_tol = max(1e-6, 100.0 * scheme.eps_z, scheme.eps_z**0.5 * 10.0)
    grads = [[ex.diff(g, i) for i in range(scheme.arity)] for g in scheme.ideal_gens]
    d_grad = [ex.diff(d, i) for i in range(scheme.arity)]
    for p in pts:
        val = ex.evaluate(d, p.coords)
        if abs(val) > value_tol:
            return EqualityResult(
                EqualityStatus.DISTINCT,
                normal_form=nf,
                witness=p.coords,
                detail=f"value {val:.3e} off the zero set tolerance",
            )
        v = np.array([ex.evaluate(de, p.coords) for de in d_grad])
        if not np.all(np.isfinite(v)):
            continue
        if grads:
            span = np.array([[ex.evaluate(ge, p.coords) for ge in row] for row in grads]).T
            coeffs, *_ = np.linalg.lstsq(span, v, rcond=None)
            resid = float(np.linalg.norm(v - span @ coeffs, ord=np.inf))
        else:
            resid = float(np.linalg.norm(v, ord=np.inf))
        if resid > 1e-6 * (1.0 + float(np.linalg.norm(v, ord=np.inf))):
            return EqualityResult(
                EqualityStatus.DISTINCT,
                normal_form=nf,
                witness=p.coords,
                detail="gradient outside the span of generator gradients",
            )
    return EqualityResult(
        EqualityStatus.UNKNOWN,
        normal_form=nf,
        detail="no zero normal form and no distinctness witness found",
    )


def sample_zero_set(
    scheme: SchemePresentation,
    box: Optional[tuple[tuple[float, float], ...]] = None,
    resolution: int = 9,
    polish_steps: int = 30,
) -> list[SchemePoint]:
    """Deterministic zero-set sample: grid scan plus damped Gauss-Newton
    polish of near-misses on the squared generator residual, with dedup at
    half the grid spacing."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    box = box or scheme.default_box()
    if len(box) != scheme.arity:
        raise ValueError("box dimension mismatch")
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

    def consider(p: np.ndarray):
        if residual(p) > scheme.eps_z:
            return
        for q in accepted:
            if np.max(np.abs(q - p)) < dedup_radius:
                return
        accepted.append(p.copy())

    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=-1)
    # exact grid hits first so polished near-misses dedup against them
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
        # Gauss-Newton on the generator residual vector, projected to the box
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
