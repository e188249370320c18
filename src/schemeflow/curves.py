"""Maximal integral curves on a presented scheme.

The lifted field is integrated on R^n with an adaptive embedded
Dormand-Prince 5(4) pair and quartic dense output.  The curve of the scheme
is the restriction of that trajectory to the connected component of 0 in the
set of times where the state stays on the zero set: membership of the dense
output is monitored at a fixed density per accepted step and the first
threshold crossing is localized by bisection.  Sign-based event detection is
not enough here because the membership residual can touch zero without
crossing, so a threshold test on the max residual is used instead.

Each accepted step is scanned in one batch: the dense-output states at all
checkpoints come from one matrix product, and the scheme's residual
callable evaluates them in one call on the (n, checkpoints) array.  An
overflow gives +-inf there as everywhere (see ``expr.as_callable``), so only
a guard violation or the sine or cosine of an infinity makes a batch raise;
such a step goes back to a point-by-point scan, so a failure at a later
checkpoint never pre-empts an earlier membership exit.  Bisection and the boundary state use the scalar
dense output.  The batched states may differ from ``DenseSegment.eval`` in
the last bits (one matrix product instead of one product per point), so a
checkpoint whose residual sits within rounding of the threshold can start
the bisection one checkpoint earlier or later than a point-wise scan would.

Interval endpoints carry three epistemic flags: reached the horizon (no
claim of completeness), closed (the localized boundary state itself passes
membership; always the case when the exit is a membership exit, since zero
sets are closed), or open (the lifted solution stopped existing: step-size
underflow or non-finite state, i.e. finite-time blow-up).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cring
from . import derivation as dv
from . import expr as ex

__all__ = [
    "IntegratorOptions",
    "IntervalRecord",
    "IntegralCurve",
    "CurveClass",
    "OutsideDefinitionInterval",
    "StepLimitExceeded",
    "integrate_max_curve",
    "evaluate_curve",
    "classify_interval",
    "curve_to_csv",
]


class OutsideDefinitionInterval(Exception):
    """Requested a time beyond where the curve exists on the scheme."""


class StepLimitExceeded(Exception):
    pass


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    horizon: float = 100.0
    probe_step: float = 1e-6
    event_tol: float = 1e-10
    max_steps: int = 1_000_000
    checkpoints_per_step: int = 16

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "horizon", "probe_step", "event_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")


class CurveClass:
    SINGLETON = "singleton"
    CLOSED = "closed"
    HALF_OPEN = "half-open"
    OPEN = "open"
    HORIZON_COMPLETE = "horizon-complete"


@dataclass(frozen=True)
class IntervalRecord:
    """Definition interval around 0, with endpoint provenance flags."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True
    lo_at_horizon: bool = False
    hi_at_horizon: bool = False

    @property
    def is_singleton(self) -> bool:
        return self.lo == 0.0 and self.hi == 0.0

    def contains(self, t: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= t <= self.hi + slack


# Dormand-Prince 5(4) tableau; the last row doubles as the 5th-order weights
# (first-same-as-last structure).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# difference between 5th- and embedded 4th-order weights
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# dense-output polynomial: y(t0 + u*h) = y0 + h * (K^T P) @ [u, u^2, u^3, u^4]
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass(frozen=True)
class DenseSegment:
    """Quartic interpolant over one accepted step from t0 to t0 + h (h signed)."""

    t0: float
    h: float
    y0: np.ndarray
    coeffs: np.ndarray  # n x 4

    @property
    def t1(self) -> float:
        return self.t0 + self.h

    def eval(self, t: float) -> np.ndarray:
        u = (t - self.t0) / self.h
        powers = np.array([u, u * u, u**3, u**4])
        return self.y0 + self.h * (self.coeffs @ powers)

    def covers(self, t: float) -> bool:
        lo, hi = sorted((self.t0, self.t1))
        return lo <= t <= hi


@dataclass(frozen=True)
class IntegralCurve:
    base: cring.SchemePoint
    interval: IntervalRecord
    forward: tuple[DenseSegment, ...]
    backward: tuple[DenseSegment, ...]
    scheme: cring.SchemePresentation
    classification: str
    diagnostics: dict = field(default_factory=dict, compare=False)


def _rk_step(f, t, y, h, k1):
    """One Dormand-Prince step; returns (y_new, k_stages, err_vector).

    Overflow is tolerated: non-finite results are rejected by the caller's
    error control, which is how finite-time blow-up is detected.
    """
    n = len(y)
    K = np.empty((7, n))
    K[0] = k1
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, 7):
            K[s] = f(y + h * (_A[s] @ K[:s]))
        y_new = y + h * (_B @ K)
        err = h * (_E @ K)
    return y_new, K, err


def _initial_step(f, y0, k1, opts: IntegratorOptions) -> float:
    scale = opts.abs_tol + opts.rel_tol * np.abs(y0)
    d0 = float(np.linalg.norm(y0 / scale) / math.sqrt(len(y0)))
    d1 = float(np.linalg.norm(k1 / scale) / math.sqrt(len(y0)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * k1
    d2 = float(
        np.linalg.norm((f(y1) - k1) / scale) / math.sqrt(len(y0)) / h0
    )
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, opts.horizon)


@dataclass
class _DirectionResult:
    segments: list
    bound: float
    closed: bool
    at_horizon: bool


def _integrate_direction(
    rhs, y0: np.ndarray, sign: float, residual, eps_z: float, opts: IntegratorOptions
) -> _DirectionResult:
    t = 0.0
    y = y0.copy()
    k1 = rhs(y)
    if not np.all(np.isfinite(k1)):
        raise ex.GuardViolation("field not finite at the base point")
    h_abs = min(_initial_step(rhs, y, k1, opts), opts.horizon)
    segments: list[DenseSegment] = []
    steps = 0
    thetas = [
        (j + 1) / opts.checkpoints_per_step for j in range(opts.checkpoints_per_step)
    ]
    powers = np.array([[th**k for th in thetas] for k in range(1, 5)])

    while abs(t) < opts.horizon:
        if steps >= opts.max_steps:
            raise StepLimitExceeded(f"exceeded {opts.max_steps} accepted steps")
        h_abs = min(h_abs, opts.horizon - abs(t))
        accepted = False
        while not accepted:
            h = sign * h_abs
            y_new, K, err = _rk_step(rhs, t, y, h, k1)
            finite = np.all(np.isfinite(y_new)) and np.all(np.isfinite(err))
            if finite:
                scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
                err_norm = float(np.linalg.norm(err / scale) / math.sqrt(len(y)))
            else:
                err_norm = math.inf
            if err_norm <= 1.0:
                accepted = True
                factor = (
                    _MAX_FACTOR
                    if err_norm == 0.0
                    else min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm**-0.2))
                )
            else:
                factor = max(_MIN_FACTOR, _SAFETY * err_norm**-0.2)
            next_h = h_abs * factor
            if not accepted:
                h_abs = next_h
                if h_abs < 1e-14 * max(1.0, abs(t)):
                    # lifted solution stops existing here: open endpoint
                    return _DirectionResult(segments, t, False, False)

        seg = DenseSegment(t, h, y.copy(), K.T @ _P)
        steps += 1

        bad = _first_exit(seg, thetas, powers, residual, eps_z)
        if bad is not None:
            lo, hi = (thetas[bad - 1] if bad else 0.0), thetas[bad]
            while (hi - lo) * abs(h) > opts.event_tol:
                mid = 0.5 * (lo + hi)
                if residual(seg.eval(t + mid * h)) > eps_z:
                    hi = mid
                else:
                    lo = mid
            bound = t + lo * h
            boundary_state = seg.eval(bound)
            closed = residual(boundary_state) <= eps_z
            segments.append(seg)
            return _DirectionResult(segments, bound, closed, False)

        segments.append(seg)
        t = t + h
        y = y_new
        k1 = K[6]  # first-same-as-last
        h_abs = next_h

    return _DirectionResult(segments, sign * opts.horizon, True, True)


def _first_exit(seg, thetas, powers, residual, eps_z):
    """Index of the first checkpoint whose dense-output state fails
    membership, or None; ``powers`` holds theta**1..4 for each checkpoint."""
    states = seg.y0[:, None] + seg.h * (seg.coeffs @ powers)
    try:
        failing = residual(states) > eps_z
    except (ex.GuardViolation, ValueError):
        # some checkpoint is outside a guard or takes the sine or cosine of
        # an infinity; the scalar scan raises only if no earlier checkpoint
        # exits
        for j, theta in enumerate(thetas):
            if residual(seg.eval(seg.t0 + theta * seg.h)) > eps_z:
                return j
        return None
    j = int(np.argmax(failing))
    return j if failing[j] else None


def integrate_max_curve(
    field: dv.LiftedField,
    point: cring.SchemePoint,
    opts: IntegratorOptions = IntegratorOptions(),
) -> IntegralCurve:
    """Maximal integral curve of the field through ``point`` on the scheme.

    The base point must lie on the zero set.  Integration runs forward and
    backward to the horizon; the definition interval is the connected
    component of 0 where membership holds, cut at the first localized
    membership failure in each direction even if the lifted trajectory
    later re-enters the zero set.
    """
    scheme = field.home
    if scheme is None:
        raise ValueError("the field needs a home presentation to restrict to")
    residual = scheme.residual_fn()
    y0 = np.array(point.coords, dtype=float)
    if residual(y0) > scheme.eps_z:
        raise cring.PointNotOnScheme(
            f"base point {point.coords} is not on the zero set"
        )
    rhs = dv.lift(field)

    # singleton probe: all short probes failing on both sides means the
    # curve reduces to its initial condition
    if _singleton_probe(rhs, y0, residual, scheme.eps_z, opts):
        interval = IntervalRecord(0.0, 0.0)
        return IntegralCurve(point, interval, (), (), scheme, CurveClass.SINGLETON)

    fwd = _integrate_direction(rhs, y0, +1.0, residual, scheme.eps_z, opts)
    bwd = _integrate_direction(rhs, y0, -1.0, residual, scheme.eps_z, opts)
    interval = IntervalRecord(
        lo=bwd.bound,
        hi=fwd.bound,
        lo_closed=bwd.closed,
        hi_closed=fwd.closed,
        lo_at_horizon=bwd.at_horizon,
        hi_at_horizon=fwd.at_horizon,
    )
    curve = IntegralCurve(
        point,
        interval,
        tuple(fwd.segments),
        tuple(bwd.segments),
        scheme,
        "",
    )
    return replace(curve, classification=classify_interval(curve))


def _singleton_probe(rhs, y0, residual, eps_z, opts) -> bool:
    h0 = opts.probe_step
    for sign in (+1.0, -1.0):
        k1 = rhs(y0)
        _, K, _ = _rk_step(rhs, 0.0, y0, sign * 4 * h0, k1)
        seg = DenseSegment(0.0, sign * 4 * h0, y0, K.T @ _P)
        for m in (1, 2, 4):
            if residual(seg.eval(sign * m * h0)) <= eps_z:
                return False
    return True


def evaluate_curve(curve: IntegralCurve, t: float) -> np.ndarray:
    """Dense-output state at time t; raises OutsideDefinitionInterval when the
    curve does not exist there on the scheme (the zero set cut the domain)."""
    slack = 1e-12 * max(1.0, abs(curve.interval.lo), abs(curve.interval.hi))
    if not curve.interval.contains(t, slack):
        raise OutsideDefinitionInterval(
            f"t={t} outside definition interval "
            f"[{curve.interval.lo}, {curve.interval.hi}]"
        )
    if t == 0.0 or curve.interval.is_singleton:
        return np.array(curve.base.coords, dtype=float)
    segments = curve.forward if t > 0 else curve.backward
    t = min(max(t, curve.interval.lo), curve.interval.hi)
    if not segments:
        raise OutsideDefinitionInterval(f"no dense output covering t={t}")
    # segments run away from 0 end to start, so the first one covering t is
    # the last one starting strictly before it
    i = bisect.bisect_left(segments, abs(t), key=lambda seg: abs(seg.t0)) - 1
    seg = segments[max(i, 0)]
    if seg.covers(t):
        return seg.eval(t)
    # t inside the interval but past the last stored segment: use the last
    return segments[-1].eval(t)


def classify_interval(curve: IntegralCurve) -> str:
    rec = curve.interval
    if rec.is_singleton:
        return CurveClass.SINGLETON
    if rec.lo_at_horizon and rec.hi_at_horizon:
        return CurveClass.HORIZON_COMPLETE
    lo_closed = rec.lo_closed and not rec.lo_at_horizon
    hi_closed = rec.hi_closed and not rec.hi_at_horizon
    if rec.lo_at_horizon or rec.hi_at_horizon:
        # one side open-ended at the horizon, the other a genuine boundary
        other_closed = hi_closed if rec.lo_at_horizon else lo_closed
        return CurveClass.HALF_OPEN if other_closed else CurveClass.OPEN
    if lo_closed and hi_closed:
        return CurveClass.CLOSED
    if lo_closed or hi_closed:
        return CurveClass.HALF_OPEN
    return CurveClass.OPEN


def curve_to_csv(curve: IntegralCurve, samples: int = 101) -> str:
    """Deterministic CSV: interval endpoints plus a uniform interior grid.

    Columns: t, one per coordinate, and the membership residual.
    """
    residual = curve.scheme.residual_fn()
    names = curve.scheme.vars.names
    lines = [
        f"# interval: [{curve.interval.lo:.17g}, {curve.interval.hi:.17g}] "
        f"class: {curve.classification}",
        "t," + ",".join(f"x{i + 1}" for i in range(len(names))) + ",residual",
    ]
    if curve.interval.is_singleton:
        times = [0.0]
    else:
        grid = np.linspace(curve.interval.lo, curve.interval.hi, samples)
        times = sorted(set([curve.interval.lo, curve.interval.hi]) | set(grid.tolist()))
    for t in times:
        state = evaluate_curve(curve, t)
        row = [f"{t:.17g}"] + [f"{x:.17g}" for x in state] + [f"{residual(state):.17g}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
