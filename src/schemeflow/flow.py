"""Flows assembled from maximal curves: the domain table, flow evaluation,
the cached numeric flow and the closed forms checked against it, and the
presentation of the flow ideal over the extended variable list.

The flow domain is sampled as a table of (base point, definition interval)
rows.  Its two structural facts are checked rather than assumed: slices are
intervals containing 0 (t-convexity, verified by membership of the
trajectory at scaled times) and the unit section sits inside the domain.
While each row's curve is integrated, the membership residuals at the times
the t-convexity check probes are recorded on the row, so the check reads
them instead of integrating the curve again; only those few numbers outlive
the curve.  The table keeps the options its curves were integrated with,
so a row the check integrates again gets the same curve.

The numeric flow is a ``MemoFlow``, which holds the field, the options and
the curves integrated so far; the checks that read a flow take it whole.

The flow ideal over (x_1..x_n, t) carries two generator families: the base
generators reindexed through the projection, and, when a closed-form flow
map is supplied, the generators composed with it.  The third ingredient is
not a generator list at all but a membership predicate (vanishing on the
sampled domain plus a unit-section condition), because its exact generators
are not constructible in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import cring
from . import curves as cv
from . import derivation as dv
from . import expr as ex

__all__ = [
    "FlowDomain",
    "DomainRow",
    "MemoFlow",
    "FlowIdealPresentation",
    "ConvexityReport",
    "ClosedFormReport",
    "flow_domain",
    "flow_eval",
    "t_convexity_check",
    "flow_ideal",
    "validate_closed_form",
    "closed_form_flow",
    "flow_columns",
    "domain_to_csv",
    "scale_row_bounds",
]

TIME_VAR = "t"
CONVEXITY_SUBDIVISIONS = 11


@dataclass(frozen=True)
class DomainRow:
    point: cring.SchemePoint
    interval: cv.IntervalRecord
    classification: str
    error: Optional[str] = None
    # membership residual of the row's curve at each t-convexity probe time
    # (see _probe_times); empty for failed or hand-built rows
    residuals: dict = field(default_factory=dict, compare=False, repr=False)


@dataclass(frozen=True)
class FlowDomain:
    scheme: cring.SchemePresentation
    field: dv.LiftedField
    rows: tuple[DomainRow, ...]
    opts: cv.IntegratorOptions  # those the rows' curves were integrated with

    @property
    def all_horizon_complete(self) -> bool:
        return all(
            r.error is None and r.classification == cv.CurveClass.HORIZON_COMPLETE
            for r in self.rows
        )


def flow_domain(
    field: dv.LiftedField,
    grid: Sequence[cring.SchemePoint],
    opts: cv.IntegratorOptions = cv.IntegratorOptions(),
) -> FlowDomain:
    """Integrate every grid point, all in one lockstep batch; per-point
    failures are recorded in the row rather than aborting the table.  Each
    curve is dropped once its row has its probe residuals."""
    scheme = field.home
    if scheme is None:
        raise ValueError("the field needs a home presentation")
    residual = scheme.residual_fn()
    grid = list(grid)
    rows: list[Optional[DomainRow]] = [None] * len(grid)
    for i, c in cv.integrate_max_curves(field, grid, opts):
        if isinstance(c, Exception):  # recorded, not fatal
            empty = cv.IntervalRecord(0.0, 0.0)
            rows[i] = DomainRow(grid[i], empty, cv.CurveClass.SINGLETON, error=str(c))
        else:
            rows[i] = DomainRow(
                grid[i], c.interval, c.classification, residuals=_probe_residuals(c, residual)
            )
    return FlowDomain(scheme, field, tuple(rows), opts)


def _probe_times(interval: cv.IntervalRecord) -> list[tuple[float, float]]:
    """(endpoint, a*endpoint) for each nonzero endpoint of ``interval`` and a
    uniform grid of a in [0, 1]: the times t_convexity_check probes."""
    return [
        (endpoint, float(a) * endpoint)
        for endpoint in sorted({interval.lo, interval.hi} - {0.0})
        for a in np.linspace(0.0, 1.0, CONVEXITY_SUBDIVISIONS)
    ]


def _residuals_at(curve: cv.IntegralCurve, times, residual) -> dict:
    """The membership residual of the curve's state at each of ``times`` it
    is defined at, from one ``evaluate_curve`` call and one residual call:
    each is the value of its state alone."""
    times = np.array(times, dtype=float)
    times = times[curve.defined_at(times)]
    return dict(zip(times.tolist(), residual(cv.evaluate_curve(curve, times)).tolist()))


def _probe_residuals(curve: cv.IntegralCurve, residual) -> dict:
    """Residuals at the probe times.  If the residual call raises, no time
    is recorded: the check redoes them and reports or raises."""
    try:
        return _residuals_at(curve, [ta for _, ta in _probe_times(curve.interval)], residual)
    except (ex.ExprError, ArithmeticError, ValueError):
        return {}


def flow_eval(
    field: dv.LiftedField,
    point: cring.SchemePoint,
    t: float,
    opts: cv.IntegratorOptions = cv.IntegratorOptions(),
) -> np.ndarray:
    """State of the flow at (point, t): exactly the maximal curve evaluated
    at t, same code path, so the two agree bit for bit."""
    curve = cv.integrate_max_curve(field, point, opts)
    return cv.evaluate_curve(curve, t)


@dataclass(frozen=True)
class ConvexityViolation:
    point: cring.SchemePoint
    endpoint: float
    scaled_time: float
    reason: str


@dataclass(frozen=True)
class ConvexityReport:
    violations: tuple[ConvexityViolation, ...]
    checks: int

    @property
    def ok(self) -> bool:
        return not self.violations


def t_convexity_check(domain: FlowDomain) -> ConvexityReport:
    """For every row and both interval endpoints, membership of the
    trajectory at a*t for a uniform grid of a in [0, 1]; slices of the
    domain are intervals, so honest tables report zero violations.

    Residuals the row recorded while its curve was integrated are read as
    they are.  A row missing any probe time (bounds altered after the fact,
    a hand-built row) has its curve integrated again with ``domain.opts``,
    all such rows in one batch; a time outside that curve is a violation."""
    tol = 10.0 * domain.scheme.eps_z
    probes = {
        i: _probe_times(row.interval) for i, row in enumerate(domain.rows) if row.error is None
    }
    missing = {}
    for i, times in probes.items():
        gaps = [ta for _, ta in times if ta not in domain.rows[i].residuals]
        if gaps:
            missing[i] = gaps
    recomputed = _recompute_residuals(domain, missing)
    violations = []
    checks = 0
    for i, row in enumerate(domain.rows):
        if row.error is not None:
            violations.append(
                ConvexityViolation(row.point, 0.0, 0.0, f"row error: {row.error}")
            )
            continue
        times = probes[i]
        if not times:
            checks += 1
            continue
        residuals = dict(row.residuals)
        if i in recomputed:
            if isinstance(recomputed[i], Exception):
                violations.append(ConvexityViolation(row.point, 0.0, 0.0, str(recomputed[i])))
                continue
            residuals.update(recomputed[i])
        for endpoint, ta in times:
            checks += 1
            r = residuals.get(ta)
            if r is None:
                violations.append(
                    ConvexityViolation(
                        row.point, endpoint, ta, "time outside the recomputed curve"
                    )
                )
            elif r > tol:
                violations.append(
                    ConvexityViolation(
                        row.point, endpoint, ta, f"membership residual {r:.3e}"
                    )
                )
    return ConvexityReport(tuple(violations), checks)


def _recompute_residuals(domain: FlowDomain, missing: dict) -> dict:
    """Residuals at the probe times ``missing`` lists per row index, from
    the rows' curves integrated again with ``domain.opts`` in one batch, each
    dropped once read.  Maps a row index to its residuals (a time outside
    the curve left out), or to the exception integrating its curve raised."""
    if not missing:
        return {}
    residual = domain.scheme.residual_fn()
    index = list(missing)
    points = [domain.rows[i].point for i in index]
    out = {}
    for j, curve in cv.integrate_max_curves(domain.field, points, domain.opts):
        i = index[j]
        if isinstance(curve, Exception):
            out[i] = curve
        else:
            out[i] = _residuals_at(curve, missing[i], residual)
    return out


@dataclass(frozen=True)
class ClosedFormReport:
    max_deviation: float
    samples: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= self.tol


def _extended_vars(scheme: cring.SchemePresentation) -> ex.VarList:
    if TIME_VAR in scheme.vars.names:
        raise ValueError(
            f"scheme variables may not shadow the flow time variable {TIME_VAR!r}"
        )
    return scheme.vars.extended(TIME_VAR)


def flow_columns(points, t) -> tuple[np.ndarray, np.ndarray, bool]:
    """The arguments of a batched flow call as (n, m) points, one per
    column, and their m times; one point or one time is repeated to the
    other's m.  The flag says the call has one point and one time, whose
    state it returns as (n,) rather than as one column."""
    cols = np.asarray(points, dtype=float)
    times = np.asarray(t, dtype=float)
    single = cols.ndim == 1 and times.ndim == 0
    cols = cols.reshape(len(cols), -1)
    times = times.reshape(-1)
    m = max(cols.shape[1], len(times))
    return np.broadcast_to(cols, (len(cols), m)), np.broadcast_to(times, (m,)), single


def closed_form_flow(psi: Sequence[ex.SmoothExpr]):
    """Compile closed-form flow components over (x_1..x_n, t) into a flow
    map with the batched protocol of ``MemoFlow``: ``phi(point, t)``
    is the state (n,) at one point and time; ``phi(points, times)``, with an
    (n, m) array of points as columns and m times, gives their states as the
    columns of an (n, m) array (see ``flow_columns``).  The components are
    one compiled call on the (n+1, m) batch, with numpy's floating-point
    warnings off as for a point, so each column is bit for bit the state its
    own call gives."""
    components = ex.as_callable(psi)

    def phi(points, t) -> np.ndarray:
        cols, times, single = flow_columns(points, t)
        with np.errstate(all="ignore"):
            states = components(np.vstack([cols, times]))
        return states[:, 0] if single else states

    return phi


class MemoFlow:
    """The numeric flow of ``field`` integrated with ``opts``: the maximal
    curves, one per base point, cached for the completeness gate, the axiom
    sweep and closed-form validation; the same integrator and curve
    evaluation as flow_eval.

    A call follows the batched protocol of ``closed_form_flow``:
    ``(point, t)`` gives the state (n,), and ``(points, times)``, with an
    (n, m) array of points as columns and m times, gives their states as the
    columns of an (n, m) array, each bit for bit the state its own call
    gives.  The call integrates, in one lockstep batch, the curves of its
    points that are not cached to at least its largest |t|, then reads each
    distinct curve with one ``evaluate_curve`` call.  If several curves
    raise, the first column's error is raised.

    ``fill`` integrates many base points in one lockstep batch, to the
    horizon or only to a ``reach`` (see ``curves.integrate_max_curves``),
    and records per point the reach it was integrated to.  ``curve`` serves
    only curves integrated to the horizon; a call serves any cached curve
    that reaches its largest |t|.  A cached curve that falls short is
    integrated again, so every value read is the one the curve integrated
    to the horizon gives.  A point whose integration raises caches the
    exception (an error beyond the reach is not seen), and each read of the
    point raises it again."""

    def __init__(self, field: dv.LiftedField, opts: cv.IntegratorOptions):
        self.field = field
        self.opts = opts
        # base point -> (reach, curve or exception); reach inf: the horizon
        self._curves: dict[tuple[float, ...], tuple[float, object]] = {}

    def fill(self, keys: Sequence[tuple[float, ...]], reach: Optional[float] = None) -> None:
        """Integrate, in one batch, the curves of the base points ``keys``
        not cached yet at least to ``reach`` (None: to the horizon)."""
        if reach is not None and not reach < self.opts.horizon:  # nan too
            reach = None
        need = math.inf if reach is None else reach
        missing = [
            k for k in dict.fromkeys(keys) if k not in self._curves or self._curves[k][0] < need
        ]
        if not missing:
            return
        points = [cring.SchemePoint(k) for k in missing]
        for i, result in cv.integrate_max_curves(self.field, points, self.opts, reach=reach):
            self._curves[missing[i]] = (need, result)

    def _cached(self, coords: tuple[float, ...]) -> cv.IntegralCurve:
        c = self._curves[coords][1]
        if isinstance(c, Exception):
            raise c
        return c

    def curve(self, coords: tuple[float, ...]) -> cv.IntegralCurve:
        self.fill([coords])
        return self._cached(coords)

    def __call__(self, points, t) -> np.ndarray:
        cols, times, single = flow_columns(points, t)
        keys = [tuple(c) for c in cols.T.tolist()]
        self.fill(keys, float(np.abs(times).max(initial=0.0)))
        columns: dict[tuple[float, ...], list[int]] = {}
        for j, k in enumerate(keys):
            columns.setdefault(k, []).append(j)
        states = np.empty(cols.shape)
        for k, js in columns.items():
            states[:, js] = cv.evaluate_curve(self._cached(k), times[js])
        return states[:, 0] if single else states


def validate_closed_form(
    flow: MemoFlow,
    psi: Sequence[ex.SmoothExpr],
    points: Sequence[cring.SchemePoint],
    times: Sequence[float],
    tol: float = 1e-6,
) -> ClosedFormReport:
    """Compare a claimed closed-form flow against the numeric flow on a
    sample; the closed form is never reconstructed, only validated.

    The points' curves are read from ``flow``, which integrates those it
    does not hold yet in one batch.  Each curve is compared at the times
    it is defined at (``IntegralCurve.defined_at``); the first point whose
    integration raised raises."""
    phi = closed_form_flow(psi)
    points = list(points)
    flow.fill([p.coords for p in points])
    times = np.array(times, dtype=float)
    worst = 0.0
    count = 0
    for p in points:
        curve = flow.curve(p.coords)
        inside = times[curve.defined_at(times)]
        if len(inside):
            num = cv.evaluate_curve(curve, inside)
            sym = phi(p.coords, inside)
            # Python's max: a NaN deviation never becomes the worst
            worst = max([worst, *np.abs(num - sym).max(axis=0).tolist()])
            count += len(inside)
    return ClosedFormReport(worst, count, tol)


@dataclass(frozen=True)
class FlowIdealPresentation:
    scheme: cring.SchemePresentation
    extended_vars: ex.VarList
    pr_generators: tuple[ex.SmoothExpr, ...]
    psi_generators: tuple[ex.SmoothExpr, ...]
    psi: Optional[tuple[ex.SmoothExpr, ...]]
    domain: Optional[FlowDomain] = None

    def generators(self) -> tuple[ex.SmoothExpr, ...]:
        return self.pr_generators + self.psi_generators

    def iprime_member(
        self, g: ex.SmoothExpr, samples_per_row: int = 9, tol: Optional[float] = None
    ) -> bool:
        """The two defining conditions of the remainder ideal: g vanishes on
        the sampled domain, and g(x, 0) lies in the base ideal (normal-form
        test when polynomial, sampled vanishing on the zero set otherwise).
        """
        if g.vars != self.extended_vars:
            raise ValueError("candidate must live over the extended variables")
        tol = self.scheme.eps_z if tol is None else tol
        n = self.scheme.arity

        if self.domain is not None:
            samples = []  # (x_1..x_n, t) of every sample, in one batched call
            for row in self.domain.rows:
                if row.error is None:
                    lo, hi = row.interval.lo, row.interval.hi
                    times = np.linspace(lo, hi, samples_per_row) if hi > lo else [0.0]
                    samples += [(*row.point.coords, float(t)) for t in times]
            with np.errstate(all="ignore"):
                values = ex.as_callable(g)(np.reshape(samples, (-1, n + 1)).T)
            if np.any(np.abs(values) > tol):  # a NaN sample fails nothing
                return False

        # restriction to t = 0
        unit_args = tuple(
            ex.var(i, self.scheme.vars) for i in range(n)
        ) + (ex.const(0, self.scheme.vars),)
        at_unit = ex.simplify(ex.apply_operation(g, unit_args))
        poly = ex.as_polynomial(at_unit)
        ideal = self.scheme.poly_ideal()
        if poly is not None and ideal is not None:
            return ideal.normal_form(poly).is_zero()
        pts = cring.sample_zero_set(self.scheme, self.scheme.default_box(), 9)
        with np.errstate(all="ignore"):
            values = ex.as_callable(at_unit)(np.reshape([p.coords for p in pts], (-1, n)).T)
        return bool(np.all(np.abs(values) <= tol))


def flow_ideal(
    scheme: cring.SchemePresentation,
    psi: Optional[Sequence[ex.SmoothExpr]] = None,
    domain: Optional[FlowDomain] = None,
    identity_tol: float = 1e-9,
) -> FlowIdealPresentation:
    """Generators of the flow ideal over (x_1..x_n, t).

    ``psi``, when given, must be expressions over the extended variables
    satisfying psi(x, 0) = x (checked on a sample grid).  Its pullback
    generators join the projection pullbacks; the remainder ideal is exposed
    as the iprime_member predicate on the returned presentation.
    """
    evl = _extended_vars(scheme)
    pr_gens = tuple(ex.extend_vars(g, evl) for g in scheme.ideal_gens)

    psi_gens: tuple[ex.SmoothExpr, ...] = ()
    psi_tuple = None
    if psi is not None:
        psi_tuple = tuple(psi)
        if len(psi_tuple) != scheme.arity:
            raise ValueError("closed form needs one component per scheme variable")
        for c in psi_tuple:
            if c.vars != evl:
                raise ValueError("closed-form components live over (x..., t)")
        _check_time_zero_identity(scheme, psi_tuple, identity_tol)
        psi_gens = tuple(
            ex.apply_operation(g, psi_tuple) for g in scheme.ideal_gens
        )
    return FlowIdealPresentation(scheme, evl, pr_gens, psi_gens, psi_tuple, domain)


def _check_time_zero_identity(scheme, psi, tol):
    """psi(x, 0) = x on a grid over the default box, in one batched call of
    the closed form; the first failure in grid-row order, then component
    order, raises."""
    grid = cring.box_grid(scheme.default_box(), 5)
    states = closed_form_flow(psi)(grid.T, 0.0)
    bad = np.abs(states - grid.T) > tol
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        i = int(np.argmax(bad[:, j]))
        raise ValueError(
            f"closed form fails the t=0 identity at {tuple(grid[j].tolist())}: "
            f"component {i} maps to {float(states[i, j])}"
        )


def domain_to_csv(domain: FlowDomain) -> str:
    n = domain.scheme.arity
    header = (
        ",".join(f"x{i + 1}" for i in range(n))
        + ",Kp_lo,Kp_hi,lo_closed,hi_closed,class"
    )
    lines = [header]
    for row in domain.rows:
        cls = row.classification if row.error is None else f"error:{row.error}"
        cells = [f"{c:.17g}" for c in row.point.coords] + [
            f"{row.interval.lo:.17g}",
            f"{row.interval.hi:.17g}",
            str(row.interval.lo_closed).lower(),
            str(row.interval.hi_closed).lower(),
            cls,
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def scale_row_bounds(domain: FlowDomain, index: int, factor: float) -> FlowDomain:
    """Return a copy with one row's interval bounds scaled; exists for fault
    injection in tests and diagnostics."""
    rows = list(domain.rows)
    r = rows[index]
    rows[index] = replace(
        r,
        interval=replace(
            r.interval, lo=r.interval.lo * factor, hi=r.interval.hi * factor
        ),
    )
    return replace(domain, rows=tuple(rows))
