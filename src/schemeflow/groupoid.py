"""Groupoid structure carried by the flow of a complete field.

When every sampled curve runs to the horizon, the flow behaves as the target
map of a groupoid whose arrows are (base point, time) pairs: source is the
base point, target is the flow, the unit at q is (q, 0), composition adds
times along matched endpoints, and the inverse of (p, t) anchors -t at the
flow image.  All of the axioms are checked numerically on sampled arrows;
the two pullback identities relating composition to the projections are
checked pointwise on composable pairs when a closed-form flow is available.

Fields whose sampled curves stop before the horizon are refused outright:
the construction needs all of them complete.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import cring
from . import curves as cv
from . import derivation as dv
from . import expr as ex
from . import flow as fl

__all__ = [
    "Arrow",
    "MemoFlow",
    "GroupoidReport",
    "IdealInclusionReport",
    "IncompleteFieldError",
    "NonComposableError",
    "source",
    "target",
    "unit",
    "compose",
    "inverse",
    "sample_arrows",
    "check_axioms",
    "check_ideal_inclusions",
]

DEFAULT_COMPOSABILITY_TOL = 1e-6


class IncompleteFieldError(Exception):
    """Some sampled curve stops before the horizon; no groupoid structure."""


class NonComposableError(Exception):
    def __init__(self, residual: float):
        super().__init__(
            f"pair not composable: source/target mismatch {residual:.3e}"
        )
        self.residual = residual


@dataclass(frozen=True)
class Arrow:
    point: cring.SchemePoint
    t: float


FlowFn = Callable[[Sequence[float], float], np.ndarray]


class MemoFlow:
    """Flow evaluation through the maximal curves with one curve per base
    point; the same integrator and curve evaluation as flow_eval, cached for
    the completeness gate, the axiom sweep and closed-form validation.

    ``fill`` integrates many base points in one lockstep batch, to the
    horizon or only to a ``reach`` (see ``curves.integrate_max_curves``),
    and records per point the reach it was integrated to.  ``curve`` serves
    only curves integrated to the horizon; a call ``(coords, t)`` serves any
    cached curve that reaches |t|.  A cached curve that falls short is
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

    def _served(self, coords: tuple[float, ...], reach: Optional[float]) -> cv.IntegralCurve:
        self.fill([coords], reach)
        c = self._curves[coords][1]
        if isinstance(c, Exception):
            raise c
        return c

    def curve(self, coords: tuple[float, ...]) -> cv.IntegralCurve:
        return self._served(coords, None)

    def __call__(self, coords: Sequence[float], t: float) -> np.ndarray:
        return cv.evaluate_curve(self._served(_key(coords), abs(t)), t)


def source(arrow: Arrow) -> cring.SchemePoint:
    return arrow.point


def target(
    arrow: Arrow,
    field: dv.LiftedField,
    opts: cv.IntegratorOptions = cv.IntegratorOptions(),
    flow: Optional[FlowFn] = None,
) -> np.ndarray:
    phi = flow or MemoFlow(field, opts)
    return phi(arrow.point.coords, arrow.t)


def unit(point: cring.SchemePoint) -> Arrow:
    return Arrow(point, 0.0)


def compose(
    a2: Arrow,
    a1: Arrow,
    field: dv.LiftedField,
    opts: cv.IntegratorOptions = cv.IntegratorOptions(),
    flow: Optional[FlowFn] = None,
    tol: float = DEFAULT_COMPOSABILITY_TOL,
) -> Arrow:
    """(q, t2) after (p, t1) requires q to match the flow of (p, t1); the
    composite rides the first arrow's base point for the summed time."""
    phi = flow or MemoFlow(field, opts)
    reached = phi(a1.point.coords, a1.t)
    residual = float(np.max(np.abs(reached - np.array(a2.point.coords))))
    if residual > tol:
        raise NonComposableError(residual)
    return Arrow(a1.point, a1.t + a2.t)


def inverse(
    a: Arrow,
    field: dv.LiftedField,
    opts: cv.IntegratorOptions = cv.IntegratorOptions(),
    flow: Optional[FlowFn] = None,
) -> Arrow:
    phi = flow or MemoFlow(field, opts)
    reached = phi(a.point.coords, a.t)
    endpoint = cring.SchemePoint(tuple(float(c) for c in reached))
    return Arrow(endpoint, -a.t)


def sample_arrows(
    scheme: cring.SchemePresentation,
    count: int,
    seed: int = 0,
    time_span: float = 3.0,
    box: Optional[tuple[tuple[float, float], ...]] = None,
    resolution: int = 15,
) -> list[Arrow]:
    """Deterministic arrow sample: zero-set grid points paired with seeded
    uniform times in [-time_span, time_span]."""
    points = cring.sample_zero_set(scheme, box or scheme.default_box(), resolution)
    if not points:
        raise ValueError("no zero-set points found to anchor arrows")
    rng = random.Random(seed)
    return [
        Arrow(points[i % len(points)], rng.uniform(-time_span, time_span))
        for i in range(count)
    ]


@dataclass(frozen=True)
class GroupoidReport:
    residuals: dict[str, float]
    arrows: int
    tol: float
    complete: bool

    @property
    def passed(self) -> bool:
        return self.complete and all(r <= self.tol for r in self.residuals.values())

    def summary(self) -> str:
        lines = [f"arrows sampled: {self.arrows}", f"tolerance: {self.tol:g}"]
        for name in sorted(self.residuals):
            lines.append(f"{name}: max residual {self.residuals[name]:.3e}")
        lines.append("verdict: " + ("pass" if self.passed else "fail"))
        return "\n".join(lines)


def _key(coords) -> tuple[float, ...]:
    return tuple(float(c) for c in coords)


def _completeness_gate(memo: MemoFlow, arrows) -> None:
    memo.fill([_key(a.point.coords) for a in arrows])
    for a in arrows:
        coords = _key(a.point.coords)
        curve = memo.curve(coords)
        if curve.classification != cv.CurveClass.HORIZON_COMPLETE:
            raise IncompleteFieldError(
                f"curve through {coords} is {curve.classification} on "
                f"[{curve.interval.lo:g}, {curve.interval.hi:g}]; groupoid "
                "structure requires horizon-complete curves"
            )


def _fill_sweep(memo: MemoFlow, arrows) -> None:
    """Integrate, one batch per wave, the curves the axiom sweep reads beyond
    the sources: through the targets q1 = phi(p, t1) of the arrows, then
    through q12 = phi(q1, t2).  The sweep reads these curves only at the
    arrows' times, so they run only to the largest |t|."""
    n = len(arrows)
    reach = max(abs(a.t) for a in arrows)
    q1 = [_reached(memo, a.point.coords, a.t) for a in arrows]
    memo.fill([_key(q) for q in q1 if q is not None], reach)
    q12 = [
        _reached(memo, q, arrows[(i + 1) % n].t) for i, q in enumerate(q1) if q is not None
    ]
    memo.fill([_key(q) for q in q12 if q is not None], reach)


def _reached(memo: MemoFlow, coords, t) -> Optional[np.ndarray]:
    try:
        return memo(coords, t)
    except Exception:
        return None  # left to the sweep, which raises it in its own order


def check_axioms(
    field: dv.LiftedField,
    arrows: Sequence[Arrow],
    tol: float = 1e-6,
    opts: cv.IntegratorOptions = cv.IntegratorOptions(),
    flow: Optional[FlowFn] = None,
) -> GroupoidReport:
    """Max residuals over the sampled arrows for: the flow law, source and
    target of composites, associativity, unit laws, and inverse laws.

    Refuses with IncompleteFieldError if any sampled base point's curve is
    not horizon-complete, mirroring the completeness hypothesis.  The gate's
    curves serve the sweep; a MemoFlow passed as ``flow`` holds them
    afterwards, so callers can reuse them.  The curves are integrated in
    three batches before the sweep: the sources to the horizon, then their
    targets and the targets' targets only to the largest |t| of the arrows,
    as far as the sweep reads them.  A curve whose integration raised
    raises when the sweep first reads it, so errors surface in the sweep's
    order.
    """
    if not arrows:
        raise ValueError("need at least one arrow")
    memo = flow if isinstance(flow, MemoFlow) else MemoFlow(field, opts)
    _completeness_gate(memo, arrows)
    phi = flow or memo
    if phi is memo:
        _fill_sweep(memo, arrows)

    r = {
        "flow_law": 0.0,
        "source_of_composite": 0.0,
        "target_of_composite": 0.0,
        "associativity": 0.0,
        "unit_left": 0.0,
        "unit_right": 0.0,
        "inverse_left": 0.0,
        "inverse_right": 0.0,
    }
    n = len(arrows)
    for i, a1 in enumerate(arrows):
        p1 = np.array(a1.point.coords)
        t1 = a1.t
        t2 = arrows[(i + 1) % n].t
        t3 = arrows[(i + 2) % n].t

        q1 = phi(p1, t1)  # target of a1
        a2 = Arrow(cring.SchemePoint(tuple(map(float, q1))), t2)
        m21 = compose(a2, a1, field, opts, flow=phi, tol=math.inf)

        # flow law: one long run equals two short ones
        q12 = phi(q1, t2)
        q_sum = phi(p1, t1 + t2)
        r["flow_law"] = max(r["flow_law"], float(np.max(np.abs(q_sum - q12))))

        # source/target compatibility of the composite
        r["source_of_composite"] = max(
            r["source_of_composite"],
            float(np.max(np.abs(np.array(m21.point.coords) - p1))),
        )
        r["target_of_composite"] = max(
            r["target_of_composite"],
            float(np.max(np.abs(phi(m21.point.coords, m21.t) - q12))),
        )

        # associativity on a composable triple
        q123 = phi(q12, t3)
        a3 = Arrow(cring.SchemePoint(tuple(map(float, q12))), t3)
        left = compose(a3, m21, field, opts, flow=phi, tol=math.inf)
        m32 = compose(a3, a2, field, opts, flow=phi, tol=math.inf)
        right = compose(m32, a1, field, opts, flow=phi, tol=math.inf)
        assoc = max(
            float(np.max(np.abs(np.array(left.point.coords) - np.array(right.point.coords)))),
            abs(left.t - right.t),
            float(np.max(np.abs(phi(left.point.coords, left.t) - q123))),
        )
        r["associativity"] = max(r["associativity"], assoc)

        # units
        left_unit = compose(
            Arrow(cring.SchemePoint(tuple(map(float, q1))), 0.0),
            a1,
            field,
            opts,
            flow=phi,
            tol=math.inf,
        )
        r["unit_left"] = max(
            r["unit_left"],
            float(np.max(np.abs(phi(left_unit.point.coords, left_unit.t) - q1))),
            abs(left_unit.t - t1),
        )
        right_unit = compose(a1, unit(a1.point), field, opts, flow=phi, tol=math.inf)
        r["unit_right"] = max(
            r["unit_right"],
            float(np.max(np.abs(phi(right_unit.point.coords, right_unit.t) - q1))),
            abs(right_unit.t - t1),
        )

        # inverses: a^-1 after a is the unit at the source, and symmetrically
        inv = inverse(a1, field, opts, flow=phi)
        back = compose(inv, a1, field, opts, flow=phi, tol=math.inf)
        r["inverse_left"] = max(
            r["inverse_left"],
            abs(back.t),
            float(np.max(np.abs(phi(back.point.coords, back.t) - p1))),
        )
        fwd = compose(a1, inv, field, opts, flow=phi, tol=math.inf)
        r["inverse_right"] = max(
            r["inverse_right"],
            abs(fwd.t),
            float(np.max(np.abs(phi(fwd.point.coords, fwd.t) - q1))),
        )

    return GroupoidReport(r, len(arrows), tol, complete=True)


@dataclass(frozen=True)
class IdealInclusionReport:
    projection_identity: float  # generator at source of composite vs second factor
    flow_identity: float  # generator at target of composite vs first factor
    pairs: int
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.projection_identity, self.flow_identity) <= self.tol


def check_ideal_inclusions(
    scheme: cring.SchemePresentation,
    psi: Sequence[ex.SmoothExpr],
    arrows: Sequence[Arrow],
    tol: float = 1e-9,
) -> IdealInclusionReport:
    """Pointwise form of the two pullback identities on composable pairs.

    For each generator g and composable ((q, t2), (p, t1)) with q the flow
    image of (p, t1): g at the projection of the composite equals g at the
    projection of the second factor, and g at the flow of the composite
    equals g at the flow of the first factor.  Checked with the closed-form
    flow; requires one.
    """
    if psi is None:
        raise ValueError("closed-form flow components are required")
    phi = fl.closed_form_flow(scheme, psi)
    gen_fns = [ex.as_callable(g) for g in scheme.ideal_gens]
    proj_res = 0.0
    flow_res = 0.0
    count = 0
    n = len(arrows)
    for i, a1 in enumerate(arrows):
        q = tuple(float(c) for c in phi(a1.point.coords, a1.t))
        a2 = Arrow(cring.SchemePoint(q), arrows[(i + 1) % n].t)
        m = compose(a2, a1, None, flow=phi)
        count += 1
        for g in gen_fns:
            # the composite projects where the second factor (a1) does
            proj_res = max(proj_res, abs(g(m.point.coords) - g(a1.point.coords)))
            lhs = g(tuple(phi(m.point.coords, m.t)))
            rhs = g(tuple(phi(q, a2.t)))
            flow_res = max(flow_res, abs(lhs - rhs))
    return IdealInclusionReport(proj_res, flow_res, count, tol)
