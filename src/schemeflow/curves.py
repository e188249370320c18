"""Maximal integral curves on a presented scheme.

The lifted field is integrated on R^n with DOP853, Hairer's adaptive
explicit Runge-Kutta method of order 8 with a combined 5th/3rd-order error
estimate and a continuous output of order 7.  The curve of the scheme
is the restriction of that trajectory to the connected component of 0 in the
set of times where the state stays on the zero set: membership of the dense
output is monitored at a fixed density per accepted step, and the first
failing state is localized by the same test on ever finer samples.
Sign-based event detection is not enough here because the membership
residual can touch zero without crossing, so a threshold test on the max
residual is used instead.

Lanes and rounds.  Curves are integrated in lockstep by
``integrate_max_curves``; ``integrate_max_curve`` is a batch of one point.
A lane is one (base point, direction) pair.  At most ``MAX_LANES`` lanes are
live; the other points wait in a queue and start as lanes finish.  The
queued base points are tested for membership ``BASE_CHECK`` at a time, in
one residual call; starting a point evaluates the field there once: that
value serves the initial step size and both lanes' first stage, so each
point is integrated once, by its two lanes.  A round then takes one
DOP853 attempt on every live lane: each of its twelve new stages (eleven,
then the field at the new state, which is the next step's first stage) is
one call of the lifted field (``derivation.lift``) on an (n, lanes) array,
and the three extra stages of the dense output are three more calls on the
accepted lanes only; the stage sums, error estimates and dense-output
coefficients are stacked matrix products; the membership screen tests every
accepted step in a few more; and the dense-output states at all checkpoints
of the steps it leaves go through the scheme's residual in one call.  A
round runs with numpy's floating-point warnings off: overflow is how
blow-up shows.  Whatever one curve decides stays per lane, with the rules
of one curve: step size and controller, rejection, step-size underflow, the
horizon, the step limit, the first failing checkpoint and its bound.

Dense output.  A direction's accepted steps are stored as columns
(``Steps``: ``t0`` (k,), signed ``h`` (k,), ``y0`` (k, n) and ``coeffs``
(k, n, 7)); a lane keeps each step as one row of 2 + 8n doubles and stacks
its rows when it ends.  ``_dense`` is the one dense-output formula, the
degree-7 Horner scheme in u = (t - t0)/h and v = 1 - u of DOP853's
continuous output, y0 + h*(u*(c1 + v*(c2 + u*(c3 + v*(c4 + u*(c5 + v*(c6 +
u*c7))))))), in elementwise numpy arithmetic in that order, so a state's
bits never depend on how many states are evaluated together; it gives y0
at u = 0 exactly and the step's new state at u = 1 up to rounding.  The
checkpoint scan, the exit localization and ``evaluate_curve`` all call it: a
checkpoint state is, bit for bit, ``evaluate_curve`` at its time t0 +
theta*h.

Per-lane errors.  A round is computed, without changing any lane, for all
live lanes at once: the attempt, the extra stages, the checkpoint scan and
the localization of every exit.  If any of it raises, the round is computed
again for each lane alone; a lane whose own round raises fails with that
exception, and the other lanes take their step in the same round.  That is
the one per-lane fallback.  A batched residual call of the scan or of the
localization that raises sends each lane's states through the residual
state by state, up to its first failing one, so a state after it never
fails a lane and never pre-empts an earlier membership exit; an overflow
gives +-inf (see
``expr.as_callable``), so only a guard violation or the sine or cosine of
an infinity makes a batch raise.  A point's result is its forward lane's
exception if that lane raised, otherwise its backward lane's, otherwise its
curve: what integrating the point alone, forward then backward, raises or
returns.

Last bits.  The stacked products, a stacked dot product for the error norm
and a per-lane Python power in the step controller repeat, lane by lane,
the arithmetic of a curve integrated alone, so a curve depends on its batch
only if numpy's elementwise evaluation of the field or the residual does.
Sums, products and negation never do (rotations, translations); powers,
quotients, exp, log, sin, cos and the cutoffs go through numpy functions
that nothing documents to be independent of the array's length.  The
residual sees each checkpoint and localization state in a batch, with the
other states of its round.

Membership scan.  ``CHECKPOINTS_PER_STEP`` states at u = 1/m, 2/m, ..., 1
of each accepted step are tested; at m = 160 and the default tolerances a
rotation's longest steps (about 0.33) put them about 2.1e-3 apart in time.
One rule, the first state that fails (or raises), both detects an exit
and localizes it.  The gap from the last passing time (the checkpoint
before the first failing one, or the step's start) to the first failing
time is sampled at its own interior fractions 1/m, ..., (m - 1)/m; the
first failing sample and the sample before it make the next gap, until the
gap is within ``event_tol`` or holds no other float (``_Lockstep._locate``).
Each state is at u computed from its time as ``evaluate_curve`` computes
it, and the bound is the gap's passing end: the first exit from the space,
not just some crossing, at a time whose state passed.  All gaps of a round
are sampled in one residual call per level; three or four levels reach
the default ``event_tol`` on the square rotation.

Membership screen.  When every constraint is a polynomial of degree at most
d, a step can be cleared without its checkpoints.  Along a step, constraint
c is p(u) = c(dense(u)), a polynomial of degree N = 7d in u, and on [0, 1]
p lies between the least and the largest of its Bernstein coefficients
(Farouki & Rajan, "On the numerical condition of polynomials in Bernstein
form", 1987).  The screen takes the step's states at the N + 1
Chebyshev-Lobatto nodes of [0, 1] (one product of its coefficients with a
fixed (7, N + 1) matrix), their constraint values in one call of the
constraint table (``SchemePresentation.constraint_fn``), and Bernstein
coefficients b from those values with a fixed inverse collocation matrix
W; its infinity norm is 1.2e4 at N = 14, against 1.7e5 at equispaced
nodes.  A step is cleared when, for every constraint, max|b| (generators)
or max b (region constraints) plus a margin is at most eps_z.  The margin
is an a-priori rounding bound, not a tuned constant: the node and
checkpoint states are within gamma_18*X of the dense output, X = |y0| +
|h|*sum|c_i| coordinatewise, so each computed constraint value is within
kappa*m(X) of p (``expr.majorant``: Higham, *Accuracy and Stability of
Numerical Algorithms*, ch. 3 and 5); the polynomial with coefficients b
then misses p by at most kappa*m(X) + tau*max|values| at the nodes, hence
by at most the nodes' Lebesgue constant times that on [0, 1]; and a last
checkpoint whose u passes 1 by rounding adds a term of that excess.  Only
the steps the screen leaves are scanned and localized, so every exit, bound
and output is what the scan alone gives.  The screen applies when 7d + 1 <
``CHECKPOINTS_PER_STEP``, gamma_(N+1)*||W|| < eps_z and tau < 1/2 (see
``_bernstein``), which excludes cubics at the default eps_z; a scheme with
any other constraint is always scanned.  At the default tolerances it
clears 8,449 of 8,609 steps of the square rotation's seed-1 ``domain`` jobs
and 3,845 of 3,852 on the unit sphere.  A step with a short excursion
between two checkpoints is not cleared: its enclosure sees the excursion,
and the scan, which may step over it, decides as before.

Interval endpoints carry three epistemic flags: reached the horizon (no
claim of completeness), closed (the localized boundary state itself passes
membership; always the case for a membership exit, whose bound's state is,
bit for bit, one that passed), or open (the lifted solution stopped
existing: step-size underflow or non-finite state, i.e. finite-time
blow-up).

Singleton.  A point whose two lanes both end with a membership exit within
``probe_step`` of 0 has the singleton curve: interval [0, 0], no steps, and
its lanes' diagnostics.  That is the verdict of testing the states at
+-probe_step, unless an exit lies within ``event_tol`` of probe_step.

Step floor.  Before every attempt, a lane whose step-size controller asks
for |h| < 1e-14*max(1, |t|) ends at t with an open endpoint (underflow).
The controller's step is compared, not the step clipped to the horizon, so
a sliver step that lands on the horizon is never an underflow.  Near a
blow-up the accepted steps shrink as well, and the floor ends the lane as
soon as they fall below it.  The first step, Hairer's guess from the
field at the base point, is raised to the floor if it falls below it: a
base coordinate far below ``abs_tol`` under a field of order 1 (1e-16 and
1 give a guess of about 1e-16) would otherwise end both lanes at t = 0.

Reach.  ``integrate_max_curves(..., reach=r)`` also ends a direction after
its first accepted step that gets to |t| >= r.  Steps are still clipped
only by the horizon, so every stored step is bit-identical to the same
step of the curve integrated to the horizon, and so is the dense output
at every |t| <= r.  A reach end is flagged like a horizon end (no claim
beyond it), at the time its last step ends; such a curve is meant to be
read only for |t| <= r, and its classification says nothing about the
horizon.

``IntegralCurve.diagnostics`` holds, for "forward" and "backward", the
accepted and rejected steps, the smallest and largest accepted |h|
("min_h", "max_h") and the reason the direction ended: "horizon", "reach",
"underflow" (with "last_h", the controller step below the floor) or "exit"
(with "checkpoint", the index of the first failing checkpoint of the last
step, and "fails_at", the failing end of the localized gap: a time within
``event_tol`` beyond the bound whose state fails), and "screened", the
accepted steps the membership screen cleared.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from . import cring
from . import derivation as dv
from . import expr as ex

__all__ = [
    "IntegratorOptions",
    "IntervalRecord",
    "IntegralCurve",
    "Steps",
    "CurveClass",
    "OutsideDefinitionInterval",
    "StepLimitExceeded",
    "integrate_max_curve",
    "integrate_max_curves",
    "evaluate_curve",
    "classify_interval",
    "curve_to_csv",
]


class OutsideDefinitionInterval(Exception):
    """Requested a time beyond where the curve exists on the scheme: ``t``,
    the first such time, on ``curve``."""

    def __init__(self, curve: "IntegralCurve", t: float):
        rec = curve.interval
        super().__init__(f"t={t} outside definition interval [{rec.lo}, {rec.hi}]")
        self.curve = curve
        self.t = t


class StepLimitExceeded(Exception):
    pass


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    horizon: float = 100.0
    probe_step: float = 1e-6  # the singleton threshold (see the module docstring)
    event_tol: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "horizon", "probe_step", "event_tol"):
            if not getattr(self, name) > 0:  # NaN included
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


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

    def contains(self, t: float) -> bool:
        return self.lo <= t <= self.hi


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10): stage s is
# the field at y + h*(_A[s, :s] @ K[:s]).  Stages 0-11 make the step, stage
# 12 is the field at the new state (_A[12, :12] = _B, the next step's k1),
# and stages 13-15 are the extra stages of the dense output.
_A = np.zeros((16, 16))
for _s, _row in enumerate(
    [
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0.0, 0.08876275643042054],
        [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
        [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125],
        [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627],
        [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
         -3.0467644718982196],
        [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
         12.360567175794303, 0.6433927460157636],
        [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
         -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
         0.04471061572777259],
        [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298],
        [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
         0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
         0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325],
        [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
         4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
         2.9475147891527724, -9.15095847217987],
    ],
    start=1,
):
    _A[_s, :_s] = _row
_B = _A[12, :12]  # 8th-order weights
# error weights over stages 0-11: the 5th- and 3rd-order estimates
_E5 = np.array(
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294]
)
_E3 = _B - np.array(
    [0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.7338466882816118, 0.0, 0.0,
     0.022058823529411766]
)
# the continuous output's last four coefficients over stages 0-15
_D = np.array(
    [
        [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
         2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
         0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
         -4.436036387594894],
        [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
         -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
         -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
         35.81684148639408],
        [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
         527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
         0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
         11.99229113618279],
        [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
         357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
         29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
         -149.72683625798564],
    ]
)
# dense-output coefficients: a step's 16 stages K (16, n) give coeffs = K^T P
# (see _dense).  c1 = _B.K reaches the new state at u = 1; c2 = k1 - c1 and
# c3 = 2*c1 - k1 - f(y_new) make the output's slope the field at both ends;
# c4-c7 are _D.K.
_P = np.zeros((16, 7))
_P[:12, 0] = _B
_P[:12, 1] = -_B
_P[0, 1] += 1.0
_P[:12, 2] = 2 * _B
_P[[0, 12], 2] -= 1.0
_P[:, 3:] = _D.T

# At most this many lanes, two per point, are integrated at once.  A live
# point keeps its dense output until both its lanes end, so this bounds the
# memory of a batch; more lanes share each round's fixed cost more widely.
MAX_LANES = 32

# Base points are drawn from the queue and checked this many per residual
# call; checked points wait, in order, until lanes are free to start them.
BASE_CHECK = 256

# The membership scan tests the states at u = 1/m, 2/m, ..., 1 of every
# accepted step, m this many; an exit's gap is sampled at the interior ones.
CHECKPOINTS_PER_STEP = 160

# The unit roundoff and Higham's gamma_k = k*u/(1 - k*u), the bound on the
# relative error of k roundings.
_U = 2.0**-53


def _gamma(k):
    return k * _U / (1 - k * _U)


@functools.lru_cache(maxsize=None)
def _bernstein(degree: int) -> tuple:
    """The fixed matrices of the screen for polynomials of ``degree`` in u:
    (phi, w, lebesgue, tau).  The nodes x_j = (1 - cos(j*pi/degree))/2 are
    the degree + 1 Chebyshev-Lobatto points of [0, 1], as doubles; v = 1 - x
    is rounded.  ``phi`` (7, degree + 1) holds the dense output's Horner
    basis u, uv, u^2 v, u^2 v^2, u^3 v^2, u^3 v^3, u^4 v^3 at the nodes, each
    row the one before times u or v, so within gamma_9 of its exact value,
    and a step's node states are y0 + h*(coeffs @ phi).  ``w`` is an
    inverse of the collocation matrix M_jk = B_k(x_j) of the Bernstein basis
    B_k(u) = C(degree, k) u^k (1 - u)^(degree - k), which is computed by
    repeated products within gamma_(2*degree + 1) of its exact value; w @
    values are Bernstein coefficients.  ``lebesgue`` bounds the nodes'
    Lebesgue constant: (2/pi) log(degree + 1) + 1 for the Chebyshev points
    (Trefethen, *Approximation Theory and Approximation Practice*, Thm.
    15.2), times 1 + 2^-20 for the nodes' rounding.  ``tau`` bounds, per unit
    of the largest value, how far the exact polynomial with Bernstein
    coefficients fl(w @ values) misses the values at the nodes: the computed
    residual of m @ w, plus gamma_(3*degree + 3)*||w|| for the errors of m
    and of both products (the rows of M sum to 1)."""
    x = 0.5 - 0.5 * np.cos(np.pi * np.arange(degree + 1) / degree)
    x[0], x[-1] = 0.0, 1.0
    v = 1.0 - x
    phi = np.empty((7, degree + 1))
    phi[0] = x
    for i in range(1, 7):
        phi[i] = phi[i - 1] * (v if i % 2 else x)
    xk, vk = np.ones((degree + 1, degree + 1)), np.ones((degree + 1, degree + 1))
    for k in range(1, degree + 1):
        xk[:, k], vk[:, k] = xk[:, k - 1] * x, vk[:, k - 1] * v
    binomials = np.array([math.comb(degree, k) for k in range(degree + 1)], dtype=float)
    m = binomials * (xk * vk[:, ::-1])
    w = np.linalg.inv(m)
    miss = float(np.abs(m @ w - np.eye(degree + 1)).sum(axis=1).max())
    tau = miss + _gamma(3 * degree + 3) * float(np.abs(w).sum(axis=1).max())
    lebesgue = (2 / math.pi * math.log(degree + 1) + 1) * (1 + 2.0**-20)
    phi.setflags(write=False)
    w.setflags(write=False)
    return phi, w, lebesgue, tau


_ONES7 = np.ones(7)


class _Screen:
    """The membership screen: clears a step without its checkpoint scan when
    a Bernstein enclosure of every constraint along the step's dense
    output, widened by an a-priori rounding margin, stays within eps_z (see
    the module docstring).  It applies only when every constraint is a
    polynomial tree (``expr.majorant``) of degree at most d, the dense
    output's composition with them has degree N = 7d with N + 1 <
    CHECKPOINTS_PER_STEP, gamma_(N+1) times the norm of the inverse
    collocation matrix is below eps_z, and tau < 1/2 (``build``)."""

    def __init__(self, scheme, degree: int):
        self.table = scheme.constraint_fn()
        self.majorants, roundings, degrees = scheme.constraint_majorants()
        self.eps_z = scheme.eps_z
        self.gens = len(scheme.ideal_gens)
        self.phi, w, lebesgue, tau = _bernstein(degree)
        self.wt = w.T
        d = np.array(degrees, dtype=float)
        # a node or checkpoint state is within gamma_18*X of the dense output
        # (X as in clears), so constraint i's computed value there is within
        # kappa_i*m_i(X') of its exact value, X' = (1 + 2^-16)*X
        kappa = (1 + _gamma(np.array(roundings))) * (1 + _gamma(18)) ** d - 1
        # margin = value*m(X) + (spread + drift*over)*max|b| + floor, where
        # max|values| <= max|b|/(1 - tau) as the rows of M sum to 1; 1 + 2^-10
        # covers the margin's own rounding, and floor the comparison's
        slack = 1 + 2.0**-10
        self.value = ((lebesgue + 1) * slack * kappa * (1 + 2.0**-16) ** d)[:, None]
        self.spread = lebesgue * tau / (1 - tau) * slack
        self.drift = 2.01 * degree * slack
        self.floor = 4 * _U * self.eps_z
        # the last checkpoint's u may pass 1 by rounding; beyond this, the
        # margin's bounds past u = 1 are not shown, and the step is scanned
        self.max_over = 2.0**-20 / degree**3

    @staticmethod
    def build(scheme) -> Optional["_Screen"]:
        """The screen of ``scheme``'s constraints, or None where it does not
        apply."""
        bounds = scheme.constraint_majorants()
        if bounds is None:
            return None
        _, _, degrees = bounds
        degree = 7 * max(*degrees, 1)
        if degree + 1 >= CHECKPOINTS_PER_STEP:
            return None
        _, w, _, tau = _bernstein(degree)
        if not (_gamma(degree + 1) * np.abs(w).sum(axis=1).max() < scheme.eps_z and tau < 0.5):
            return None
        return _Screen(scheme, degree)

    def clears(self, t, y, h, coeffs) -> np.ndarray:
        """Which steps from ``t`` (lanes,) with states ``y`` (lanes, n),
        signed steps ``h`` and coefficients ``coeffs`` (lanes, n, 7) pass at
        every checkpoint the scan would test."""
        lanes, n = y.shape
        # the scan's u runs from 0 to that of its last checkpoint, 1 + over
        over = np.maximum((t + h - t) / h - 1.0, 0.0)
        # bounds |dense output| coordinatewise, since the Horner basis is in [0, 1]
        x = np.abs(y) + np.abs(h)[:, None] * (np.abs(coeffs) @ _ONES7)
        states = y.T[:, :, None] + h[:, None] * (coeffs.transpose(1, 0, 2) @ self.phi)
        values = self.table(states.reshape(n, -1)).reshape(len(self.value), lanes, -1)
        b = values @ self.wt
        hull, top = b.max(axis=2), np.abs(b).max(axis=2)
        hull[: self.gens] = top[: self.gens]
        margin = self.value * self.majorants(x.T) + (self.spread + self.drift * over) * top
        margin += self.floor
        return (hull + margin <= self.eps_z).all(axis=0) & (over <= self.max_over)


# A lane whose controller asks for |h| < _STEP_FLOOR*max(1, |t|) ends there
# (see the module docstring).
_STEP_FLOOR = 1e-14
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass(frozen=True, eq=False)
class Steps:
    """The accepted steps of one direction, as columns: step i runs from
    ``t0[i]`` to ``t0[i] + h[i]`` (h signed, away from 0), and its state at
    u = (t - t0[i]) / h[i] is ``_dense(y0[i], h[i], coeffs[i].T, u)``, the
    step's 7th-order continuous output."""

    t0: np.ndarray  # (k,)
    h: np.ndarray  # (k,)
    y0: np.ndarray  # (k, n)
    coeffs: np.ndarray  # (k, n, 7)

    def __len__(self) -> int:
        return len(self.t0)


def _steps(rows: list, n: int) -> Steps:
    """Stack accepted steps' rows [t0, h, y0, coeffs] (2 + 8n,) into ``Steps``."""
    k = len(rows)
    block = np.array(rows).reshape(k, 2 + 8 * n)
    return Steps(block[:, 0], block[:, 1], block[:, 2 : 2 + n], block[:, 2 + n :].reshape(k, n, 7))


def _dense(y0, h, c, u) -> np.ndarray:
    """States (n, ...) at u in [0, 1] of steps from ``y0`` (n, ...) with
    coefficients ``c`` (7, n, ...); ``h`` and ``u`` broadcast against the
    trailing axes.  Horner's scheme in u and v = 1 - u alternately, DOP853's
    own form: exact at u = 0, and at u = 1 it is y0 + h*c[0].  Elementwise,
    so batching never changes a state's bits."""
    v = 1.0 - u
    return y0 + h * (
        u * (c[0] + v * (c[1] + u * (c[2] + v * (c[3] + u * (c[4] + v * (c[5] + u * c[6]))))))
    )


@dataclass(frozen=True)
class IntegralCurve:
    base: cring.SchemePoint
    interval: IntervalRecord
    forward: Steps
    backward: Steps
    scheme: cring.SchemePresentation
    classification: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    def defined_at(self, t) -> np.ndarray:
        """Whether the curve exists on the scheme at each time of ``t``:
        inside its interval, up to a relative slack of 1e-12."""
        rec = self.interval
        slack = 1e-12 * max(1.0, abs(rec.lo), abs(rec.hi))
        return (rec.lo - slack <= t) & (t <= rec.hi + slack)


def _stages(rhs, y, hc, K, stages) -> None:
    """Fill the ``stages`` of ``K`` (lanes, 16, n) in order, each one call of
    the field on every lane; ``y`` (lanes, n) states, ``hc`` (lanes, 1)."""
    for s in stages:
        K[:, s] = rhs((y + hc * (_A[s, :s] @ K[:, :s])).T).T


def _attempt(rhs, y, h, k1):
    """One DOP853 attempt on every lane: ``y`` (lanes, n) states, ``h``
    (lanes,) signed steps, ``k1`` (lanes, n) the field at ``y``.  Returns
    (y_new, K, e5, e3): stages 0-12 in K (lanes, 16, n), stage 12 the field
    at y_new, and the 5th- and 3rd-order error estimates (lanes, n) without
    their factor h.

    Overflow is tolerated (a round runs with numpy's floating-point
    warnings off): non-finite results are rejected by the caller's error
    control, which is how finite-time blow-up is detected.
    """
    K = np.empty((len(y), 16, y.shape[1]))
    K[:, 0] = k1
    _stages(rhs, y, h[:, None], K, range(1, 13))
    y_new = y + h[:, None] * (_B @ K[:, :12])
    return y_new, K, _E5 @ K[:, :12], _E3 @ K[:, :12]


def _dense_coeffs(rhs, y, h, K) -> np.ndarray:
    """Dense-output coefficients (lanes, n, 7) of accepted attempts: fills
    the three extra stages 13-15 of their ``K`` (lanes, 16, n)."""
    _stages(rhs, y, h[:, None], K, range(13, 16))
    return K.transpose(0, 2, 1) @ _P


def _error_norms(h, y, y_new, e5, e3, opts: IntegratorOptions) -> np.ndarray:
    """DOP853's error norm of each lane (Hairer's combined 5th/3rd-order
    estimate), inf where the attempt is not finite.  Stacked dot products
    and elementwise operations repeat the arithmetic of one lane alone."""
    scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    x5, x3 = e5 / scale, e3 / scale
    s5 = (x5[:, None, :] @ x5[:, :, None])[:, 0, 0]
    s3 = (x3[:, None, :] @ x3[:, :, None])[:, 0, 0]
    norm = np.abs(h) * s5 / np.sqrt((s5 + 0.01 * s3) * y.shape[1])
    norm[s5 == 0.0] = 0.0
    # a non-finite e5 makes the norm nan; a non-finite e3 could make it 0
    finite = np.isfinite(y_new).all(axis=1) & np.isfinite(e3).all(axis=1) & np.isfinite(norm)
    norm[~finite] = math.inf
    return norm


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
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(max(100 * h0, _STEP_FLOOR), h1, opts.horizon)


@dataclass
class _DirectionResult:
    steps: Steps
    bound: float
    closed: bool
    at_horizon: bool
    diagnostics: dict


class _Lane:
    """One (base point, direction) pair; its numeric state lives in the
    packed arrays of ``_Lockstep``, at the lane's position in ``lanes``."""

    __slots__ = ("index", "sign", "n", "rows", "rejected", "screened", "result", "live")

    def __init__(self, index: int, sign: float, n: int):
        self.index = index
        self.sign = sign
        self.n = n
        self.rows: list[np.ndarray] = []  # [t0, h, y0, coeffs] of each accepted step
        self.rejected = 0
        self.screened = 0  # accepted steps the screen cleared
        self.result = None  # _DirectionResult or exception, once finished
        self.live = True

    def finish(self, end: str, bound, closed, at_horizon, **extra) -> None:
        steps = _steps(self.rows, self.n)
        hs = np.abs(steps.h).tolist()
        diagnostics = {
            "accepted": len(hs),
            "rejected": self.rejected,
            "screened": self.screened,
            "end": end,
            "min_h": min(hs, default=None),
            "max_h": max(hs, default=None),
            **extra,
        }
        self.result = _DirectionResult(steps, bound, closed, at_horizon, diagnostics)
        self.live = False


class _Lockstep:
    """The lanes of one ``integrate_max_curves`` call.  Live lanes hold their
    time, state, field value, next |h| and sign in packed arrays, one row
    per lane in ``lanes`` order."""

    def __init__(
        self, field: dv.LiftedField, scheme, opts: IntegratorOptions, reach: Optional[float]
    ):
        self.scheme = scheme
        self.opts = opts
        self.reach = reach
        self.rhs = dv.lift(field)
        self.residual = scheme.residual_fn()
        self.screen = _Screen.build(scheme)
        self.eps_z = scheme.eps_z
        self.n = scheme.arity
        m = CHECKPOINTS_PER_STEP
        self.thetas = np.arange(1, m + 1) / m
        self.lanes: list[_Lane] = []
        self.t = np.zeros(0)
        self.y = np.zeros((0, self.n))
        self.k1 = np.zeros((0, self.n))
        self.h_abs = np.zeros(0)
        self.signs = np.zeros(0)
        self.pending: dict[int, tuple] = {}  # index -> (point, forward, backward)
        self.finished: list[tuple[int, object]] = []

    def run(self, points):
        queue = self._checked(iter(enumerate(points)))
        while True:
            self._refill(queue)
            done, self.finished = self.finished, []
            yield from done
            if not self.lanes:
                return
            self._round()

    # -- points ------------------------------------------------------------

    def _refill(self, queue) -> None:
        """Start waiting points while two more lanes fit under MAX_LANES;
        ``queue`` yields each point with its base-point residual
        (``_checked``)."""
        new = []
        while len(self.lanes) + 2 <= MAX_LANES:
            item = next(queue, None)
            if item is None:
                break
            (index, point), r = item
            try:
                if isinstance(r, Exception):
                    raise r
                if r > self.eps_z:
                    raise cring.PointNotOnScheme(
                        f"base point {point.coords} is not on the zero set"
                    )
                with np.errstate(all="ignore"):
                    started = self._start(point)
            except Exception as err:
                self.finished.append((index, err))
                continue
            lanes = (_Lane(index, 1.0, self.n), _Lane(index, -1.0, self.n))
            self.pending[index] = (point, *lanes)
            self.lanes.extend(lanes)
            new.append(started)
        if new:
            y0 = np.repeat([y for y, _, _ in new], 2, axis=0)
            k1 = np.repeat([k for _, k, _ in new], 2, axis=0)
            h = np.repeat([h for _, _, h in new], 2)
            self.t = np.concatenate([self.t, np.zeros(len(h))])
            self.y = np.concatenate([self.y, y0])
            self.k1 = np.concatenate([self.k1, k1])
            self.h_abs = np.concatenate([self.h_abs, h])
            self.signs = np.concatenate([self.signs, np.tile([1.0, -1.0], len(new))])

    def _checked(self, queue) -> Iterator[tuple]:
        """The items (index, point) of ``queue`` in order, each with its
        base point's residual or the exception its own residual call
        raises.  They are drawn and checked ``BASE_CHECK`` at a time, so a
        residual call holds the base points of many refills."""
        while batch := list(itertools.islice(queue, BASE_CHECK)):
            yield from zip(batch, self._base_residuals([point for _, point in batch]))

    def _base_residuals(self, points: list) -> list:
        """Each point's residual, or the exception its own residual call
        raises: one call on all the points, or, if that raises (a point of
        another length, a guard), one call per point."""
        try:
            return self.residual(np.array([p.coords for p in points], dtype=float).T).tolist()
        except (ex.GuardViolation, ValueError, TypeError):
            out = []
            for p in points:
                try:
                    out.append(self.residual(np.array(p.coords, dtype=float)))
                except Exception as err:
                    out.append(err)
            return out

    def _start(self, point: cring.SchemePoint):
        """(y0, field at y0, initial |h|) for the two lanes of a base point
        on the zero set; raises what integrating it raises before its first
        step."""
        y0 = np.array(point.coords, dtype=float)
        k1 = self.rhs(y0)
        if not np.all(np.isfinite(k1)):
            raise ex.GuardViolation("field not finite at the base point")
        return y0, k1, _initial_step(self.rhs, y0, k1, self.opts)

    def _settle(self, lane: _Lane) -> None:
        """Report the point of a lane that just finished, if its result is
        known: the forward lane's exception, else the backward lane's, else
        the curve, which is the singleton when both lanes exit within
        ``probe_step`` of 0."""
        if lane.index not in self.pending:
            return  # the point already failed
        point, fwd, bwd = self.pending[lane.index]
        if isinstance(fwd.result, Exception):
            result = fwd.result
            bwd.live = False
        elif fwd.result is None or bwd.result is None:
            return
        elif isinstance(bwd.result, Exception):
            result = bwd.result
        else:
            f, b = fwd.result, bwd.result
            exits = f.diagnostics["end"] == b.diagnostics["end"] == "exit"
            if exits and max(f.bound, -b.bound) < self.opts.probe_step:
                none = _steps([], self.n)  # the singleton: two closed ends at 0
                f, b = replace(f, steps=none, bound=0.0), replace(b, steps=none, bound=0.0)
            interval = IntervalRecord(
                b.bound, f.bound, b.closed, f.closed, b.at_horizon, f.at_horizon
            )
            diagnostics = {"forward": f.diagnostics, "backward": b.diagnostics}
            curve = IntegralCurve(point, interval, f.steps, b.steps, self.scheme, "", diagnostics)
            result = replace(curve, classification=classify_interval(curve))
        del self.pending[lane.index]
        self.finished.append((lane.index, result))

    def _fail(self, lane: _Lane, err: Exception) -> None:
        lane.result = err
        lane.live = False
        self._settle(lane)

    # -- rounds ------------------------------------------------------------

    def _round(self) -> None:
        """One attempt on every live lane, then per-lane bookkeeping.

        ``_step`` computes the round of all live lanes at once.  If it
        raises, it is computed again for each lane alone: a lane whose own
        round raises fails with that exception, and the others apply their
        round now, as each would alone.  This is the one per-lane fallback
        of a round.  If no lane raises alone, the batch's exception is not a
        per-point failure and is raised."""
        self._end_underflows()
        if not self.lanes:
            return
        rows = np.arange(len(self.lanes))
        with np.errstate(all="ignore"):  # overflow is the blow-up signal
            try:
                rounds = [self._step(rows)]
            except Exception as batch_error:
                rounds = []
                for j in rows.tolist():
                    if not self.lanes[j].live:
                        continue  # its point failed with its forward lane
                    try:
                        rounds.append(self._step(rows[j : j + 1]))
                    except Exception as err:
                        self._fail(self.lanes[j], err)
                if len(rounds) == len(rows):
                    raise batch_error
        for r in rounds:
            self._apply(*r)
        self._compact()

    def _end_underflows(self) -> None:
        """End, as open endpoints, the lanes whose controller step is below
        the step floor (see the module docstring)."""
        # live lanes have |t| < horizon, so one reduction settles most rounds
        if self.h_abs.min() >= _STEP_FLOOR * max(1.0, self.opts.horizon):
            return
        below = self.h_abs < _STEP_FLOOR * np.maximum(1.0, np.abs(self.t))
        for j in below.nonzero()[0].tolist():
            lane = self.lanes[j]
            lane.finish("underflow", float(self.t[j]), False, False, last_h=float(self.h_abs[j]))
            self._settle(lane)
        self._compact()

    def _step(self, rows: np.ndarray) -> tuple:
        """The round of the lanes at ``rows``, computed without changing any
        lane: their next time, state, field value and |h|, which of them
        accepted their attempt, and for each accepted lane its step's row
        [t0, h, y0, coeffs] and None or (first failing checkpoint, bound)."""
        opts = self.opts
        t, y, k1 = self.t[rows], self.y[rows], self.k1[rows]
        h_abs = np.minimum(self.h_abs[rows], opts.horizon - np.abs(t))
        h = self.signs[rows] * h_abs
        y_new, K, e5, e3 = _attempt(self.rhs, y, h, k1)
        err_norm = _error_norms(h, y, y_new, e5, e3, opts)
        accepted = err_norm <= 1.0
        # Python's power, as for one curve: numpy's differs in the last bits
        power = np.array([e**-0.125 if e else math.inf for e in err_norm.tolist()])
        factor = np.maximum(_MIN_FACTOR, _SAFETY * power)
        factor = np.where(accepted, np.minimum(_MAX_FACTOR, factor), factor)
        acc = accepted.nonzero()[0]
        scanned = self._scan(t[acc], y[acc], h[acc], K[acc]) if len(acc) else ((), (), ())
        return (
            rows,
            accepted,
            np.where(accepted, t + h, t),
            np.where(accepted[:, None], y_new, y),
            np.where(accepted[:, None], K[:, 12], k1),  # the field at y_new
            h_abs * factor,
            *scanned,
        )

    def _scan(self, t, y, h, K) -> tuple:
        """The rows [t0, h, y0, coeffs] (lanes, 2 + 8n) of accepted steps
        from ``t`` with states ``y`` and stages ``K``, for each step None or
        (its first failing checkpoint, the bound of the exit, the failing end
        of its gap), and which steps the screen cleared: the checkpoints of
        all other steps go through the residual in one call, and the exits
        of all steps are localized together."""
        coeffs = _dense_coeffs(self.rhs, y, h, K)
        rows = np.concatenate((t[:, None], h[:, None], y, coeffs.reshape(len(t), -1)), axis=1)
        cleared = np.zeros(len(t), dtype=bool)
        if self.screen is not None:
            cleared = self.screen.clears(t, y, h, coeffs)
        scan = (~cleared).nonzero()[0]
        exits = [None] * len(t)
        if len(scan):
            times = t[scan, None] + h[scan, None] * self.thetas
            first = self._first_failing(times, t[scan], h[scan], y[scan], coeffs[scan])
            out = first < len(self.thetas)
            a, bad = scan[out], first[out]
            if len(a):
                located = self._locate(t[a], h[a], y[a], coeffs[a], bad)
                for i, b, bound, fails_at in zip(a.tolist(), bad.tolist(), *located):
                    exits[i] = (b, bound, fails_at)
        return rows, exits, cleared.tolist()

    def _first_failing(self, times, t0, h, y0, coeffs) -> np.ndarray:
        """For each lane, the index of its first state that fails
        membership, or k if none of its k states does: the states at
        ``times`` (lanes, k) of the steps from ``t0`` (lanes,) with signed
        steps ``h`` (lanes,), states ``y0`` (lanes, n) and coefficients
        ``coeffs`` (lanes, n, 7), each at u computed from its time as
        ``evaluate_curve`` computes it.  One residual call on all of them,
        or, if it raises, state by state, so a state raises only if none
        before it fails."""
        residual, eps_z = self.residual, self.eps_z
        lanes, k = times.shape
        hcol = h[:, None]
        u = (times - t0[:, None]) / hcol
        states = _dense(y0.T[:, :, None], hcol, coeffs.T[..., None], u)
        try:
            failing = residual(states.reshape(self.n, -1)).reshape(lanes, k) > eps_z
        except (ex.GuardViolation, ValueError):
            return np.array([
                next((i for i, s in enumerate(states[:, a].T) if residual(s) > eps_z), k)
                for a in range(lanes)
            ])
        return np.where(failing.any(axis=1), failing.argmax(axis=1), k)

    def _apply(self, rows, accepted, t, y, k1, h_abs, steps, exits, cleared) -> None:
        """Store a round computed by ``_step`` and end the lanes that exit,
        reach the horizon or the reach, or run out of steps."""
        opts, reach = self.opts, self.reach
        self.t[rows], self.y[rows], self.k1[rows], self.h_abs[rows] = t, y, k1, h_abs
        for j in rows[~accepted].tolist():
            self.lanes[j].rejected += 1
        for j, t1, row, end, screened in zip(
            rows[accepted].tolist(), t[accepted].tolist(), steps, exits, cleared
        ):
            lane = self.lanes[j]
            if not lane.live:
                continue
            lane.rows.append(row)
            lane.screened += screened
            if end is not None:
                lane.finish("exit", end[1], True, False, checkpoint=end[0], fails_at=end[2])
                self._settle(lane)
            elif abs(t1) >= opts.horizon:
                lane.finish("horizon", lane.sign * opts.horizon, True, True)
                self._settle(lane)
            elif reach is not None and abs(t1) >= reach:
                lane.finish("reach", t1, True, True)
                self._settle(lane)
            elif len(lane.rows) >= opts.max_steps:
                self._fail(lane, StepLimitExceeded(f"exceeded {opts.max_steps} accepted steps"))

    def _locate(self, t0, h, y0, coeffs, bad) -> tuple:
        """The gaps of the first membership failures inside the steps from
        ``t0`` (lanes,) with signed steps ``h`` (lanes,), states ``y0``
        (lanes, n) and coefficients ``coeffs`` (lanes, n, 7), whose
        checkpoints ``bad`` (lanes,) are the first to fail.  Each exit's gap
        runs from the last passing time (the checkpoint before, or t0) to
        the first failing one; the scan's rule is applied to it again, at
        the gap's own interior checkpoint fractions, and its first failing
        sample and the sample before it make the next gap, until the gap is
        within ``event_tol`` or holds no other float.  Returns the gaps'
        passing ends, the bounds, so a membership exit is closed, and their
        failing ends.  The gaps of a round are sampled together, one
        ``_first_failing`` call per level."""
        thetas, inner = self.thetas, self.thetas[:-1]
        lo = np.where(bad > 0, t0 + thetas[bad - 1] * h, t0)
        hi = t0 + thetas[bad] * h

        def live():
            wide = np.abs(hi - lo) > self.opts.event_tol
            return (wide & (np.nextafter(lo, hi) != hi)).nonzero()[0]

        while len(j := live()):
            times = lo[j, None] + (hi - lo)[j, None] * inner
            # ends[k] is each lane's first failing sample, or hi if all pass
            ends = np.concatenate((lo[j, None], times, hi[j, None]), axis=1)
            k = self._first_failing(times, t0[j], h[j], y0[j], coeffs[j]) + 1
            r = np.arange(len(j))
            lo[j], hi[j] = ends[r, k - 1], ends[r, k]
        return lo.tolist(), hi.tolist()

    def _compact(self) -> None:
        keep = [lane.live for lane in self.lanes]
        if all(keep):
            return
        self.lanes = [lane for lane in self.lanes if lane.live]
        self.t, self.y, self.k1 = self.t[keep], self.y[keep], self.k1[keep]
        self.h_abs, self.signs = self.h_abs[keep], self.signs[keep]


def integrate_max_curves(
    field: dv.LiftedField,
    points: Iterable[cring.SchemePoint],
    opts: IntegratorOptions = IntegratorOptions(),
    reach: Optional[float] = None,
) -> Iterator[tuple[int, Union[IntegralCurve, Exception]]]:
    """Maximal integral curves of the field through many points, integrated
    in lockstep (see the module docstring).

    With ``reach``, a direction also ends after its first accepted step that
    gets to |t| >= reach (end reason "reach"), so the curves are known only
    for |t| <= reach; each of their steps is the same, bit for bit, as the
    same step of the curve integrated to the horizon.

    Yields ``(i, result)`` for the i-th point as soon as its curve is done,
    so in the order the points finish, not their order in ``points``.
    ``result`` is the point's ``IntegralCurve``, or the exception that
    ``integrate_max_curve`` raises for that point alone (PointNotOnScheme,
    StepLimitExceeded, GuardViolation, ...); one point's failure leaves the
    others' curves unchanged.  At most ``MAX_LANES`` lanes, two per point,
    are live at once, at most ``BASE_CHECK`` checked points wait, and a
    yielded curve is not kept, so memory is bounded by those counts, not by
    the number of points.
    """
    scheme = field.home
    if scheme is None:
        raise ValueError("the field needs a home presentation to restrict to")
    return _Lockstep(field, scheme, opts, reach).run(points)


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
    later re-enters the zero set.  This is ``integrate_max_curves`` on a
    batch of one point.
    """
    ((_, result),) = integrate_max_curves(field, [point], opts)
    if isinstance(result, Exception):
        raise result
    return result


def evaluate_curve(curve: IntegralCurve, t) -> np.ndarray:
    """Dense-output state at time t, or at an array of m times as the
    columns of an (n, m) array, each the state at its time alone, bit for
    bit; raises OutsideDefinitionInterval when the curve does not exist at
    some time on the scheme (the zero set cut the domain)."""
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    rec = curve.interval
    inside = curve.defined_at(flat)
    if not inside.all():
        raise OutsideDefinitionInterval(curve, float(flat[~inside][0]))
    # a time clipped to 0 gets the base point; an interval end at 0 is the
    # only one a direction without steps can have
    states = np.repeat(np.array(curve.base.coords, dtype=float)[:, None], len(flat), axis=1)
    clipped = np.clip(flat, rec.lo, rec.hi)
    for steps, side in ((curve.forward, clipped > 0), (curve.backward, clipped < 0)):
        if side.any():
            ts = clipped[side]
            # steps run away from t0[0] = 0, so a time's step is the last
            # one starting strictly before it, and past the last step, the last
            i = np.searchsorted(np.abs(steps.t0), np.abs(ts)) - 1
            h = steps.h[i]
            u = (ts - steps.t0[i]) / h
            states[:, side] = _dense(steps.y0[i].T, h, steps.coeffs[i].T, u)
    return states[:, 0] if times.ndim == 0 else states


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
    states = evaluate_curve(curve, np.array(times))
    for t, state, r in zip(times, states.T.tolist(), residual(states).tolist()):
        lines.append(",".join(f"{x:.17g}" for x in [t, *state, r]))
    return "\n".join(lines) + "\n"
