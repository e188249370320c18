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
import functools
import itertools
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
    "box_grid",
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
        if not self.eps_z > 0:  # NaN included
            raise ValueError("zero-set tolerance must be positive")
        for g in self.ideal_gens + self.region:
            if g.vars != self.vars:
                raise ValueError("generator over a different variable list")

    @property
    def arity(self) -> int:
        return self.vars.arity

    def poly_ideal(self) -> Optional[pr.PolyIdeal]:
        """The ideal as polynomials, when every generator converts; else None.
        Built once per presentation, so its Groebner basis is computed once."""
        return self._poly_ideal

    @functools.cached_property
    def _poly_ideal(self) -> Optional[pr.PolyIdeal]:
        polys = []
        for g in self.ideal_gens:
            p = ex.as_polynomial(g)
            if p is None:
                return None
            polys.append(p)
        if not polys:
            return None
        return pr.PolyIdeal(tuple(polys))

    def constraint_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """The compiled constraint table: an (n, m) array holding m points as
        columns to the (k, m) array of their signed constraint values, one
        row per ideal generator, then one per region constraint.  It is one
        ``expr.as_callable`` of the constraints, with that function's rules,
        built once per presentation; ``residual_fn`` is its fold."""
        return self._constraints

    @functools.cached_property
    def _constraints(self) -> Callable[[np.ndarray], np.ndarray]:
        return ex.as_callable(self.ideal_gens + self.region)

    def residual_fn(self) -> Callable[[Sequence[float]], float]:
        """Compiled membership residual: max over |generator| and max(region, 0).

        A point belongs to the zero set exactly when the residual is <= eps_z.
        The callable takes one point, or an (n, m) array holding m points as
        columns and returning their m residuals; a point is a one-column
        batch, so its residual is, bit for bit, its column's.  It is one call
        of the constraint table (``constraint_fn``), folded with ``np.fmax``,
        so a NaN constraint value is skipped.  The call follows
        ``expr.as_callable``'s rules: a point or batch with other than n
        coordinates raises ValueError, an overflow gives +-inf (a generator
        at inf fails membership, a region constraint at -inf holds), and a
        batch raises where one of its points would.  The residual runs with
        numpy's floating-point warnings off.  The callable is built once per
        presentation.
        """
        return self._residual

    @functools.cached_property
    def _residual(self) -> Callable[[Sequence[float]], float]:
        constraints = self._constraints
        k = len(self.ideal_gens)

        def residual(p: Sequence[float]) -> float:
            point = not (isinstance(p, np.ndarray) and p.ndim == 2)
            if point:  # a one-column batch, so errstate is entered once
                p = np.asarray(p, dtype=float).reshape(-1, 1)
            with np.errstate(all="ignore"):
                values = constraints(p)
                np.abs(values[:k], out=values[:k])
                r = functools.reduce(np.fmax, values, 0.0)
            return r[0] if point else r

        return residual

    def constraint_majorants(self) -> Optional[tuple]:
        """The a-priori error data of the constraint table's rows, when every
        constraint is a polynomial tree (``expr.majorant``), else None:
        (fn, roundings, degrees), where fn maps an (n, m) array of coordinate
        bounds X to the (k, m) majorant values m_i(X), and roundings and
        degrees hold each row's rounding count and tree degree.  Built once
        per presentation."""
        return self._majorants

    @functools.cached_property
    def _majorants(self) -> Optional[tuple]:
        data = [ex.majorant(c) for c in self.ideal_gens + self.region]
        if None in data:
            return None
        majorants, roundings, degrees = zip(*data)
        return ex.as_callable(majorants), roundings, degrees

    def element(self, source) -> "RingElement":
        e = ex.parse_expr(source, self.vars) if isinstance(source, str) else source
        return RingElement(e, self)

    def point(self, coords: Sequence[float], tol: Optional[float] = None) -> SchemePoint:
        """The point at ``coords`` if it is on the zero set (residual within
        ``tol``, default eps_z); a NaN coordinate raises ValueError."""
        coords = tuple(float(c) for c in coords)
        if np.isnan(coords).any():
            raise ValueError(f"point {coords} has a NaN coordinate")
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
    """The scheme's compiled residual (``residual_fn``) at one point."""
    return scheme.residual_fn()(point)


def in_zero_set(scheme: SchemePresentation, point: Sequence[float]) -> bool:
    """True iff all ideal generators vanish and all region constraints hold
    at the point, to the presentation's tolerance.  A point with a NaN
    coordinate is not in the zero set, although its residual skips the NaN
    constraint values it gives."""
    r = membership_residual(scheme, point)
    return r <= scheme.eps_z and not np.isnan(np.asarray(point, dtype=float)).any()


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
    n = scheme.arity
    cols = np.reshape([p.coords for p in pts], (-1, n)).T
    with np.errstate(all="ignore"):
        # row 0 holds d, rows 1..n its gradient
        d_values = ex.as_callable([d] + [ex.diff(d, i) for i in range(n)])(cols)
        grads = ex.as_callable([ex.diff(g, i) for g in scheme.ideal_gens for i in range(n)])(cols)
    grads = grads.reshape(len(scheme.ideal_gens), n, len(pts))
    for j, p in enumerate(pts):
        val = float(d_values[0, j])
        if abs(val) > value_tol:
            return EqualityResult(
                EqualityStatus.DISTINCT,
                normal_form=nf,
                witness=p.coords,
                detail=f"value {val:.3e} off the zero set tolerance",
            )
        v = d_values[1:, j]
        if not np.all(np.isfinite(v)):
            continue
        if scheme.ideal_gens:
            span = grads[:, :, j].T
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


def box_grid(box: Sequence[tuple[float, float]], resolution: int) -> np.ndarray:
    """The ``resolution``-per-axis grid on an axis-aligned box, one point per
    row in C order (the last coordinate varies fastest).  The grid is
    allocated first, so a grid too large for memory raises MemoryError
    before anything of its size is computed."""
    n, r = len(box), max(resolution, 0)
    grid = np.empty((r**n, n))
    cube = grid.reshape((r,) * n + (n,))
    for i, (lo, hi) in enumerate(box):
        cube[..., i] = np.linspace(lo, hi, resolution).reshape((-1,) + (1,) * (n - 1 - i))
    return grid


def sample_zero_set(
    scheme: SchemePresentation,
    box: Optional[tuple[tuple[float, float], ...]] = None,
    resolution: int = 9,
    polish_steps: int = 30,
    limit: Optional[int] = None,
) -> list[SchemePoint]:
    """Deterministic zero-set sample: grid scan plus damped Gauss-Newton
    polish of near-misses on the squared generator residual, with dedup at
    half the grid spacing.

    The scan evaluates the residual on every grid point in one call; exact
    hits come first, in grid order, then the polished misses, in grid order.
    The polish moves a batch of misses together, one batched evaluation of
    the generators and their gradients per step, each point stopping on its
    own (converged, non-finite, negligible step, or out of steps).  The
    dedup keeps a candidate unless an earlier kept one lies closer than half
    the grid spacing in every coordinate, comparing only candidates in
    neighbouring cells of that side.  Polished coordinates may differ in
    the last bits from a point-by-point solve (numpy arithmetic, one stacked
    SVD instead of one least-squares solve per point); where a Jacobian's
    smallest singular value sits at the rank cutoff, the two can step
    differently.

    With ``limit`` (at least 1), the sample is the first ``limit`` points of
    the full one, or all of it when it has fewer.  The misses are then
    polished in chunks, in grid order: ``limit`` of them first, each later
    chunk twice as large, until ``limit`` points are kept.  A point's polish
    depends on no other point, so the kept points are the full sample's, bit
    for bit, wherever numpy's elementwise evaluation of the generators does
    not depend on the array's length (see the ``curves`` module docstring;
    polynomials qualify).  Without a limit, all misses form one batch.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    box = box or scheme.default_box()
    if len(box) != scheme.arity:
        raise ValueError("box dimension mismatch")
    spacing = min((hi - lo) / (resolution - 1) for lo, hi in box)

    residual = scheme.residual_fn()
    grid = box_grid(box, resolution).T
    hit = residual(grid) <= scheme.eps_z
    dedup = _Dedup(box, 0.5 * spacing)
    dedup.add(grid[:, hit].T)
    misses = grid[:, ~hit]
    if scheme.ideal_gens and misses.shape[1]:
        polish = _polisher(scheme, box, polish_steps)
        start, size = 0, limit or misses.shape[1]
        while start < misses.shape[1] and (limit is None or len(dedup.kept) < limit):
            polished = polish(misses[:, start : start + size])
            dedup.add(polished[:, residual(polished) <= scheme.eps_z].T)
            start, size = start + size, 2 * size
    return [SchemePoint(tuple(p)) for p in dedup.kept[:limit]]


def _polisher(
    scheme: SchemePresentation, box, steps: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Gauss-Newton on the generator residual vector for every column of a
    points array at once, clipped to the box.  Each step takes the
    minimum-norm least-squares step with ``lstsq``'s default cutoff.  The
    generators and their Jacobian are compiled once, here, for every batch
    the returned function polishes."""
    k, n = len(scheme.ideal_gens), scheme.arity
    gens = ex.as_callable(scheme.ideal_gens)
    # row i * n + j holds d(generator i)/dx_j
    jacobian = ex.as_callable([ex.diff(g, j) for g in scheme.ideal_gens for j in range(n)])
    lows = np.array([[lo] for lo, _ in box])
    highs = np.array([[hi] for _, hi in box])
    rcond = np.finfo(float).eps * max(k, n)

    def polish(points: np.ndarray) -> np.ndarray:
        q = points.copy()
        active = np.arange(q.shape[1])
        # an overflow gives inf, and a non-finite g, J or step stops its point
        with np.errstate(all="ignore"):
            for _ in range(steps):
                if not active.size:
                    break
                p = q[:, active]
                g = gens(p)
                moving = ~(np.max(np.abs(g), axis=0) <= 0.01 * scheme.eps_z)
                p, g, active = p[:, moving], g[:, moving], active[moving]
                J = jacobian(p).reshape(k, n, p.shape[1]).transpose(2, 0, 1)
                finite = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(g).all(axis=0)
                p, g, J, active = p[:, finite], g[:, finite], J[finite], active[finite]
                U, s, Vh = np.linalg.svd(J, full_matrices=False)
                inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > rcond * s[:, :1])
                step = np.einsum("arn,ar->na", Vh, inv * np.einsum("akr,ka->ar", U, -g))
                moving = np.isfinite(step).all(axis=0) & ~(np.max(np.abs(step), axis=0) < 1e-16)
                active = active[moving]
                q[:, active] = np.clip(p[:, moving] + step[:, moving], lows, highs)
        return q

    return polish


# Cells are a hair wider than the dedup radius, so rounding in a cell index
# never puts two points closer than the radius two cells apart.
_CELL_WIDENING = 1.0 + 1e-6


class _Dedup:
    """Greedy dedup of points fed in batches, in order: a point is dropped
    when an earlier kept point lies closer than ``radius`` in every
    coordinate.  Kept points are hashed into cells of side ``radius``
    anchored at the box's low corner, so each point is compared only with
    those in the 3^n cells around it.  Which points are kept does not depend
    on where the cells are anchored, nor on how the points are batched.
    Points must lie in the box."""

    def __init__(self, box: Sequence[tuple[float, float]], radius: float):
        self.radius = radius
        self.kept: list[list[float]] = []  # in the order they were kept
        self._width = radius * _CELL_WIDENING
        self._lows = np.array([lo for lo, _ in box], dtype=float)
        # cell coordinates start at 1 and stay below base - 1, so a
        # neighbour's coordinates are digits in [0, base) and its key is unique
        if radius > 0:
            base = int(max(np.floor((hi - lo) / self._width) for lo, hi in box)) + 3
            self._weights = [base**i for i in range(len(box))]
            # the own cell first, where a duplicate is likeliest
            self._deltas = sorted(
                (self._key(d) for d in itertools.product((-1, 0, 1), repeat=len(box))),
                key=abs,
            )
        self._cells: dict[int, list[list[float]]] = {}

    def _key(self, cell) -> int:
        return sum(int(c) * w for c, w in zip(cell, self._weights))

    def add(self, points: np.ndarray) -> None:
        """Feed the rows of ``points``, appending those kept to ``kept``."""
        if self.radius <= 0:
            # a degenerate box axis gives a zero radius, within which nothing lies
            self.kept += points.tolist()
            return
        radius, cells_of = self.radius, self._cells
        cells = np.floor((points - self._lows) / self._width) + 1
        for p, cell in zip(points.tolist(), cells.tolist()):
            k = self._key(cell)
            if any(
                all(abs(a - b) < radius for a, b in zip(p, q))
                for d in self._deltas
                for q in cells_of.get(k + d, ())
            ):
                continue
            cells_of.setdefault(k, []).append(p)
            self.kept.append(p)
