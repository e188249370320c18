"""Groupoid structure carried by the flow of a complete field.

When every sampled curve runs to the horizon, the flow behaves as the target
map of a groupoid whose arrows are (base point, time) pairs: source is the
base point, target is the flow, the unit at q is (q, 0), composition adds
times along matched endpoints, and the inverse of (p, t) anchors -t at the
flow image.  All of the axioms are checked numerically on sampled arrows;
the two pullback identities relating composition to the projections are
checked pointwise on composable pairs when a closed-form flow is available.

The flow is passed whole.  The structure maps read any flow map with the
batched protocol of ``flow.MemoFlow``, such as ``flow.closed_form_flow``;
``check_axioms`` takes the ``MemoFlow`` itself, which holds the field, the
integrator options and the curves already integrated.

Fields whose sampled curves stop before the horizon are refused outright:
the construction needs all of them complete.  So is a sweep that reads a
curve through a target outside that curve's interval.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import cring
from . import curves as cv
from . import expr as ex
from . import flow as fl

__all__ = [
    "Arrow",
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


# A flow map with the batched protocol of flow.MemoFlow and flow.closed_form_flow:
# (point, t) -> (n,) state, or ((n, m) points as columns, m times) -> (n, m).
FlowFn = Callable[[Sequence[float], float], np.ndarray]


def source(arrow: Arrow) -> cring.SchemePoint:
    return arrow.point


def target(arrow: Arrow, flow: FlowFn) -> np.ndarray:
    return flow(arrow.point.coords, arrow.t)


def unit(point: cring.SchemePoint) -> Arrow:
    return Arrow(point, 0.0)


def compose(
    a2: Arrow, a1: Arrow, flow: FlowFn, tol: float = DEFAULT_COMPOSABILITY_TOL
) -> Arrow:
    """(q, t2) after (p, t1) requires q to match the flow of (p, t1); the
    composite rides the first arrow's base point for the summed time."""
    reached = flow(a1.point.coords, a1.t)
    residual = float(np.max(np.abs(reached - np.array(a2.point.coords))))
    if residual > tol:
        raise NonComposableError(residual)
    return Arrow(a1.point, a1.t + a2.t)


def inverse(a: Arrow, flow: FlowFn) -> Arrow:
    reached = flow(a.point.coords, a.t)
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
    uniform times in [-time_span, time_span].  Arrow i anchors at point
    i % len of the first ``count`` points of the zero-set sample, in its
    (grid) order, so the arrows cycle through the sample when it has fewer
    points; only those points are sampled (``sample_zero_set``'s limit)."""
    # a count below 1 gives no arrows, which check_axioms refuses
    points = cring.sample_zero_set(
        scheme, box or scheme.default_box(), resolution, limit=max(count, 1)
    )
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


def _refusal(curve: cv.IntegralCurve, state: str) -> IncompleteFieldError:
    rec = curve.interval
    return IncompleteFieldError(
        f"curve through {_key(curve.base.coords)} {state} [{rec.lo:g}, {rec.hi:g}]; "
        "groupoid structure requires horizon-complete curves"
    )


def _completeness_gate(memo: fl.MemoFlow, arrows) -> None:
    memo.fill([_key(a.point.coords) for a in arrows])
    for a in arrows:
        curve = memo.curve(_key(a.point.coords))
        if curve.classification != cv.CurveClass.HORIZON_COMPLETE:
            raise _refusal(curve, f"is {curve.classification} on")


def check_axioms(
    flow: fl.MemoFlow,
    arrows: Sequence[Arrow],
    tol: float = 1e-6,
    phi: Optional[FlowFn] = None,
) -> GroupoidReport:
    """Max residuals over the sampled arrows for: the flow law, source and
    target of composites, associativity, unit laws, and inverse laws.

    Arrow i is paired with arrows i + 1 and i + 2 (cyclically): with p its
    source, t1, t2, t3 their times, q1 = phi(p, t1) and q12 = phi(q1, t2),
    a composite rides p for the summed time, the unit at q is (q, 0) and
    the inverse of (p, t1) is (q1, -t1).  The flow ``flow`` (or ``phi``, a
    closed form, when given) is read in three batched calls, or waves: the
    sources at t1, t1 + t2, (t1 + t2) + t3, t1 + 0, 0 + t1 and t1 + (-t1);
    the targets q1 at t2, -t1 + t1 and -t1; and the targets' targets q12 at
    t3.  Each residual is then one array expression over all arrows.  Four
    are identities of the construction, which a composite meets by how it is
    built: source_of_composite, unit_left, unit_right and inverse_left;
    target_of_composite is flow_law by definition.  flow_law, associativity
    and inverse_right (phi(q1, -t1) against p) measure the flow itself.

    Refuses with IncompleteFieldError if any sampled base point's curve is
    not horizon-complete, mirroring the completeness hypothesis, and if the
    sweep reads a curve (a target's) at a time outside its interval.  The gate
    integrates the sources' curves to the horizon in ``flow``, which holds
    them afterwards, so callers can reuse them.  Without ``phi``, ``flow``
    integrates the curves of each later wave in one batch, only to the
    largest |t| of the arrows, as far as the sweep reads them.  An error
    from integrating a curve surfaces in wave order: sources, then targets,
    then targets' targets, and arrow order within a wave.
    """
    if not arrows:
        raise ValueError("need at least one arrow")
    _completeness_gate(flow, arrows)
    phi = flow if phi is None else phi

    p = np.array([a.point.coords for a in arrows], dtype=float).T  # sources as columns
    t1 = np.array([a.t for a in arrows], dtype=float)
    t2, t3 = np.roll(t1, -1), np.roll(t1, -2)  # the next two arrows' times
    times = [t1, t1 + t2, (t1 + t2) + t3, t1 + 0.0, 0.0 + t1, t1 + (-t1)]
    try:
        q1, q_sum, q_assoc, q_unit_l, q_unit_r, q_back = np.split(
            phi(np.tile(p, len(times)), np.concatenate(times)), len(times), axis=1
        )
        q12, q_fwd, q_inv = np.split(
            phi(np.tile(q1, 3), np.concatenate([t2, -t1 + t1, -t1])), 3, axis=1
        )
        q123 = phi(q12, t3)
    except cv.OutsideDefinitionInterval as err:
        # a target's curve cut short before a time the sweep reads
        raise _refusal(err.curve, f"is read at t={err.t:g}, outside") from err

    def worst(*gaps) -> float:
        return float(np.max([np.max(np.abs(g)) for g in gaps]))

    # a composite rides its first factor's source, so its source gap is p - p
    r = {
        "flow_law": worst(q_sum - q12),
        "source_of_composite": worst(p - p),
        "target_of_composite": worst(q_sum - q12),
        "associativity": worst(p - p, ((t1 + t2) + t3) - (t1 + (t2 + t3)), q_assoc - q123),
        "unit_left": worst(q_unit_l - q1, (t1 + 0.0) - t1),
        "unit_right": worst(q_unit_r - q1, (0.0 + t1) - t1),
        "inverse_left": worst(t1 + (-t1), q_back - p),
        # the inverse (q1, -t1) composes with (p, t1) only if it flows back to p
        "inverse_right": worst(-t1 + t1, q_fwd - q1, q_inv - p),
    }
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
    phi = fl.closed_form_flow(psi)
    n = scheme.arity
    sources = np.reshape([a.point.coords for a in arrows], (-1, n)).T
    t1 = np.array([a.t for a in arrows])
    t2 = np.roll(t1, -1)  # arrow i's second factor takes arrow i + 1's time
    targets = phi(sources, t1)
    composites = [
        compose(Arrow(cring.SchemePoint(tuple(q)), t), a1, phi)
        for a1, q, t in zip(arrows, targets.T.tolist(), t2.tolist())
    ]
    anchors = np.reshape([m.point.coords for m in composites], (-1, n)).T
    reached = phi(anchors, np.array([m.t for m in composites]))
    gens = ex.as_callable(scheme.ideal_gens)
    with np.errstate(all="ignore"):
        # the composite projects where the second factor (a1) does
        gaps = (gens(anchors) - gens(sources), gens(reached) - gens(phi(targets, t2)))
    # a NaN gap is skipped, as Python's max skipped it
    proj, flow = (float(np.fmax.reduce(np.abs(g), axis=None, initial=0.0)) for g in gaps)
    return IdealInclusionReport(proj, flow, len(arrows), tol)
