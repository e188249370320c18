"""The benchmark's workloads: seeded inputs, CLI jobs and their oracles.

Each workload turns a seed into a cycle of jobs.  A job is one argument
list for ``schemeflow.cli.main``.  Each workload checks a job's exit code and
printed output against expected values computed without the program's code:
closed-form geometry in math/numpy for the two flow workloads, and ``sympy``
for the exact one.  Two program outputs that the CLI does not print are
checked as well: the arrows a groupoid job sampled, captured on their way
out of ``groupoid.sample_arrows``, and the reduced Groebner basis of each
certify ideal, computed once per ideal outside the timed loop.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from clock import Clock, Timed

# Documented CLI defaults the oracles rely on (README "Scheme files").
DEFAULT_EPS_Z = 1e-9
GROUPOID_TOL = 1e-6  # cmd_groupoid's default when --tol is not given


@dataclass
class Job:
    argv: list[str]
    scheme: str  # path of the scheme file the job reads
    meta: dict = field(default_factory=dict)


@dataclass
class Result:
    job: Job
    time: Timed
    rc: Optional[int]
    out: str
    err: str
    exc: Optional[str]  # traceback of an uncaught exception, if any
    captured: object = None


@dataclass
class Verdict:
    ok: bool
    err: float  # deviation from the oracle
    units: int  # output units the job delivered (0 when it failed)
    why: str = ""


def _write_scheme(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


class Workload:
    """A seeded cycle of jobs plus the oracle for their outputs."""

    name = ""
    why = ""

    def inputs(self, seed: int, workdir: str, root: str) -> list[Job]:
        raise NotImplementedError

    def smoke(self, workdir: str, root: str) -> list[Job]:
        """One small job for the smoke run."""
        raise NotImplementedError

    def check(self, res: Result) -> Verdict:
        raise NotImplementedError

    def instrument(self, modules):
        """Hook into the loaded program for the oracle; returns an undo."""
        return lambda: None

    def take_capture(self):
        """What the hook saw during the last job, for the oracle."""
        return None

    def reference_s(self, job: Job) -> float:
        """Time an external reference needs for the job's core problem."""
        return 0.0


def _failed(res: Result) -> Optional[Verdict]:
    if res.exc is not None:
        return Verdict(False, math.inf, 0, "raised: " + res.exc.strip().splitlines()[-1])
    return None


# -- domain-square ----------------------------------------------------------


class DomainSquare(Workload):
    """``domain`` jobs on schemes/square_rotation.json over seeded sub-boxes.

    Each sub-box spans from a seeded point near the centre to one corner of
    the square, so every 3x3 job has rows of all three classes: the corner
    is a singleton, points on the edges and outside the unit circle leave
    the square (closed), and points inside the unit circle rotate for the
    whole horizon (horizon-complete).
    """

    name = "domain-square"
    why = (
        "curves ending by singleton, closed and horizon exits: dense-output scan, "
        "bisection and t-convexity re-integration; no polish, no Groebner"
    )
    CYCLE = 16
    GRID = 3
    SCHEME = os.path.join("schemes", "square_rotation.json")

    def inputs(self, seed: int, workdir: str, root: str) -> list[Job]:
        rng = random.Random(seed)
        corners = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        return [
            self._job(root, corners[i % 4], rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45))
            for i in range(self.CYCLE)
        ]

    def smoke(self, workdir: str, root: str) -> list[Job]:
        return [self._job(root, (1, 1), 0.3, 0.2)]

    def _job(self, root, corner, a, b) -> Job:
        # the far side of the box sits at distance a (b) past the centre, so
        # every grid point off the edges is well inside the unit circle
        spans = []
        for s, d in zip(corner, (a, b)):
            spans.append((-d, 1.0) if s > 0 else (-1.0, d))
        box = ",".join(f"{lo!r}:{hi!r}" for lo, hi in spans)
        path = os.path.join(root, self.SCHEME)
        argv = ["domain", "--scheme", path, "--grid", str(self.GRID), f"--box={box}"]
        return Job(argv, path, {"box": spans})

    def check(self, res: Result) -> Verdict:
        bad = _failed(res)
        if bad:
            return bad
        with open(res.job.scheme, encoding="utf-8") as fh:
            doc = json.load(fh)
        if (
            doc.get("variables") != ["x", "y"]
            or doc.get("region") != ["x^2 - 1", "y^2 - 1"]
            or doc.get("derivation") != {"x": "-y", "y": "x"}
            or doc.get("ideal")
        ):
            return Verdict(False, math.inf, 0, "scheme is not the unit-square rotation")
        opts = doc.get("options", {})
        horizon = float(opts.get("horizon", 100.0))
        edge = math.sqrt(1.0 + float(opts.get("eps_z", DEFAULT_EPS_Z)))
        if res.rc != 0 or "t-convexity ok" not in res.err:
            return Verdict(False, math.inf, 0, f"exit {res.rc}: {res.err.strip()}")

        lines = res.out.strip().splitlines()
        if lines[0] != "x1,x2,Kp_lo,Kp_hi,lo_closed,hi_closed,class":
            return Verdict(False, math.inf, 0, "unexpected CSV header")
        axes = [np.linspace(lo, hi, self.GRID) for lo, hi in res.job.meta["box"]]
        expected = sorted((float(x), float(y)) for x in axes[0] for y in axes[1])
        rows = [ln.split(",") for ln in lines[1:]]
        points = sorted((float(r[0]), float(r[1])) for r in rows)
        if len(points) != len(expected) or any(
            max(abs(p[0] - q[0]), abs(p[1] - q[1])) > 1e-12 for p, q in zip(points, expected)
        ):
            return Verdict(False, math.inf, 0, "rows are not the requested grid")

        worst = 0.0
        for r in rows:
            x, y, lo, hi, cls = float(r[0]), float(r[1]), float(r[2]), float(r[3]), r[6]
            want_cls, want_lo, want_hi = _circle_in_square(x, y, edge, horizon)
            if cls != want_cls:
                return Verdict(False, math.inf, 0, f"({x}, {y}): class {cls}, oracle {want_cls}")
            worst = max(worst, abs(lo - want_lo), abs(hi - want_hi))
        if worst > 1e-6:
            return Verdict(False, worst, 0, f"interval off the circular trajectory by {worst:.3e}")
        return Verdict(True, worst, len(rows))


def _circle_in_square(x: float, y: float, edge: float, horizon: float):
    """Class and interval of the rotation trajectory through (x, y) inside
    the square max(|x|, |y|) <= edge, from the circle it lies on.

    The trajectory is r*(cos(phi), sin(phi)) with phi = theta + t.  It is
    outside exactly where phi is within alpha = acos(edge / r) of a multiple
    of pi/2, so the exit times are the distances to those arcs.
    """
    r = math.hypot(x, y)
    if r <= edge:
        return "horizon-complete", -horizon, horizon
    theta = math.atan2(y, x)
    alpha = math.acos(edge / r)
    quarter = [k * math.pi / 2 for k in range(4)]
    fwd = min((q - alpha - theta) % (2 * math.pi) for q in quarter)
    bwd = min((theta - q - alpha) % (2 * math.pi) for q in quarter)
    if max(fwd, bwd) < 1e-6:  # the CLI's singleton probe step
        return "singleton", 0.0, 0.0
    return "closed", -min(bwd, horizon), min(fwd, horizon)


# -- groupoid-sphere --------------------------------------------------------


SPHERE = {
    "variables": ["x", "y", "z"],
    "ideal": ["x^2 + y^2 + z^2 - 1"],
    "derivation": {"x": "-y", "y": "x", "z": "0"},
    "flow_closed_form": ["x*cos(t) - y*sin(t)", "x*sin(t) + y*cos(t)", "z"],
    "options": {"horizon": 20.0},
    "declared_flags": {"germ_determined": True},
}

_AXIOMS = (
    "associativity", "flow_law", "inverse_left", "inverse_right",
    "source_of_composite", "target_of_composite", "unit_left", "unit_right",
)


class GroupoidSphere(Workload):
    """``groupoid`` jobs on the unit sphere with the rotation about z.

    Sampling polishes a 15^3 grid onto the sphere by Gauss-Newton, every
    curve runs to the horizon with no exit, and the axiom sweep misses the
    curve cache at every target point.  The arrow seed changes per job.
    """

    name = "groupoid-sphere"
    why = (
        "Gauss-Newton polish onto a sphere, long horizon-complete curves and "
        "groupoid sweeps with cache misses; no membership exits, no Groebner"
    )
    CYCLE = 8
    ARROWS = 3
    TIME_SPAN = 3.0  # cmd_groupoid: min(3, horizon / 2)

    def __init__(self):
        self._arrows = None

    def inputs(self, seed: int, workdir: str, root: str) -> list[Job]:
        rng = random.Random(seed)
        path = _write_scheme(os.path.join(workdir, "sphere.json"), SPHERE)
        return [self._job(path, rng.randrange(1, 2**31), self.ARROWS) for _ in range(self.CYCLE)]

    def smoke(self, workdir: str, root: str) -> list[Job]:
        path = _write_scheme(os.path.join(workdir, "sphere.json"), SPHERE)
        return [self._job(path, 1, 1)]

    @staticmethod
    def _job(path, seed, arrows) -> Job:
        argv = ["groupoid", "--scheme", path, "--samples", str(arrows), "--seed", str(seed)]
        return Job(argv, path, {"arrows": arrows})

    def instrument(self, modules):
        """Keep the arrows each job samples, so the oracle can check them."""
        gp = modules["groupoid"]
        original = gp.sample_arrows

        @functools.wraps(original)
        def sample_arrows(*args, **kwargs):
            self._arrows = original(*args, **kwargs)
            return self._arrows

        gp.sample_arrows = sample_arrows

        def restore():
            gp.sample_arrows = original

        return restore

    def take_capture(self):
        arrows, self._arrows = self._arrows, None
        return arrows

    def check(self, res: Result) -> Verdict:
        bad = _failed(res)
        if bad:
            return bad
        out = res.out
        if res.rc != 0 or "verdict: pass" not in out:
            return Verdict(False, math.inf, 0, f"exit {res.rc}: {out.strip()[-200:]}")
        reported = {
            m.group(1): float(m.group(2))
            for m in re.finditer(r"^(\w+): max residual (\S+)$", out, re.M)
        }
        cf = re.search(r"^closed form max deviation: (\S+)$", out, re.M)
        pb = re.search(r"^pullback identities: projection (\S+), flow (\S+)$", out, re.M)
        if set(reported) != set(_AXIOMS) or not cf or not pb:
            return Verdict(False, math.inf, 0, "missing residual lines")
        arrows = res.captured
        n = res.job.meta["arrows"]
        if arrows is None or len(arrows) != n:
            return Verdict(False, math.inf, 0, "sampled arrows not captured")

        pts = np.array([a.point.coords for a in arrows], dtype=float)
        ts = np.array([a.t for a in arrows], dtype=float)
        on_sphere = float(np.max(np.abs(np.sum(pts**2, axis=1) - 1.0)))
        if on_sphere > DEFAULT_EPS_Z or np.max(np.abs(ts)) > self.TIME_SPAN:
            return Verdict(False, math.inf, 0, f"arrow off the sphere by {on_sphere:.3e}")
        exact = _rotation_axioms(pts, ts)
        worst = max(
            [abs(reported[k] - exact[k]) for k in _AXIOMS]
            + [float(cf.group(1)), on_sphere]
        )
        if worst > GROUPOID_TOL or float(pb.group(1)) > 1e-9 or float(pb.group(2)) > 1e-9:
            return Verdict(False, worst, 0, f"deviation {worst:.3e} from the exact rotation")
        return Verdict(True, worst, n)


def _rotate(p: np.ndarray, t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]])


def _rotation_axioms(pts: np.ndarray, ts: np.ndarray) -> dict[str, float]:
    """The groupoid residuals of the exact rotation flow on the same arrows
    (same pairing of neighbouring arrows as the CLI's sweep)."""
    r = dict.fromkeys(_AXIOMS, 0.0)
    n = len(ts)

    def gap(a, b):
        return float(np.max(np.abs(a - b)))

    for i in range(n):
        p, t1, t2, t3 = pts[i], ts[i], ts[(i + 1) % n], ts[(i + 2) % n]
        q1 = _rotate(p, t1)
        q12 = _rotate(q1, t2)
        r["flow_law"] = max(r["flow_law"], gap(_rotate(p, t1 + t2), q12))
        r["target_of_composite"] = max(r["target_of_composite"], gap(_rotate(p, t1 + t2), q12))
        r["associativity"] = max(
            r["associativity"], gap(_rotate(p, t1 + t2 + t3), _rotate(q12, t3))
        )
        r["unit_left"] = max(r["unit_left"], gap(_rotate(p, t1 + 0.0), q1))
        r["unit_right"] = max(r["unit_right"], gap(_rotate(p, 0.0 + t1), q1))
        r["inverse_left"] = max(r["inverse_left"], gap(_rotate(p, t1 - t1), p))
        r["inverse_right"] = max(r["inverse_right"], gap(_rotate(q1, -t1 + t1), q1))
    return r


# -- certify-ideals ---------------------------------------------------------


def _katsura(n: int) -> tuple[list[str], list[str]]:
    names = [f"u{i}" for i in range(n + 1)]

    def u(l):
        return names[abs(l)] if abs(l) <= n else None

    gens = [" + ".join([names[0]] + [f"2*{names[l]}" for l in range(1, n + 1)]) + " - 1"]
    for m in range(n):
        terms = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if u(l) and u(m - l)]
        gens.append(" + ".join(terms) + f" - {names[m]}")
    return names, gens


def _cyclic4() -> tuple[list[str], list[str]]:
    return ["a", "b", "c", "d"], [
        "a + b + c + d",
        "a*b + b*c + c*d + d*a",
        "a*b*c + b*c*d + c*d*a + d*a*b",
        "a*b*c*d - 1",
    ]


def _poly(rng: random.Random, names: list[str], degree: int) -> str:
    """Dense polynomial with small nonzero integer coefficients."""
    terms = []
    for d in range(degree + 1):
        for mono in itertools.combinations_with_replacement(names, d):
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            terms.append("*".join([str(c), *mono]))
    return " + ".join(terms).replace("+ -", "- ")


class CertifyIdeals(Workload):
    """``check`` jobs: katsura3, katsura4, cyclic4 and seeded dense quadric
    ideals, each with a field whose coefficients lie in the ideal (certified)
    and a field of random linear coefficients (refuted)."""

    name = "certify-ideals"
    why = (
        "exact Groebner bases and normal forms in polyring and expr; no floating "
        "point, so numeric-layer changes must leave it unmoved"
    )
    RANDOM = ((4, 8), (5, 2))  # (variables, ideals) of three dense quadrics

    def __init__(self):
        self._oracle: dict[str, dict] = {}
        self._sympy_s: dict[tuple, float] = {}
        self._program_basis: dict[tuple, bool] = {}
        self._modules = None

    def inputs(self, seed: int, workdir: str, root: str) -> list[Job]:
        rng = random.Random(seed)
        ideals = [_katsura(3), _katsura(4), _cyclic4()]
        for nvars, count in self.RANDOM:
            names = [f"x{i}" for i in range(nvars)]
            for _ in range(count):
                ideals.append((names, [_poly(rng, names, 2) for _ in range(3)]))
        jobs = []
        for k, (names, gens) in enumerate(ideals):
            inside = [
                " + ".join(f"({rng.choice((-2, -1, 1, 2))})*({g})" for g in gens if rng.random() < 0.7)
                or "0"
                for _ in names
            ]
            outside = [_poly(rng, names, 1) for _ in names]
            for tag, coeffs in (("in", inside), ("out", outside)):
                doc = {
                    "variables": names,
                    "ideal": gens,
                    "derivation": dict(zip(names, coeffs)),
                }
                path = _write_scheme(os.path.join(workdir, f"ideal{k}-{tag}.json"), doc)
                jobs.append(Job(["check", "--scheme", path], path, {"doc": doc}))
        rng.shuffle(jobs)
        return jobs

    def smoke(self, workdir: str, root: str) -> list[Job]:
        return self.inputs(0, workdir, root)[:1]

    def instrument(self, modules):
        self._modules = modules
        return super().instrument(modules)

    def reference_s(self, job: Job) -> float:
        """sympy.groebner time for the job's ideal (after check())."""
        return self._sympy_s.get(_ideal_key(job.meta["doc"]), 0.0)

    def check(self, res: Result) -> Verdict:
        bad = _failed(res)
        if bad:
            return bad
        doc = res.job.meta["doc"]
        want = self._expected(doc)
        if not want["basis_ok"]:
            return Verdict(False, 1.0, 0, "program's Groebner basis differs from sympy's")
        lines = [ln for ln in res.out.splitlines() if ln.startswith("generator ")]
        overall = "overall: certified" in res.out.splitlines()
        if len(lines) != len(doc["ideal"]):
            return Verdict(False, math.inf, 0, f"exit {res.rc}: {res.out.strip()[-200:]}")
        mismatches = 0
        for line, remainder in zip(lines, want["remainders"]):
            if line.endswith(": certified (normal form 0)"):
                mismatches += remainder != 0
            elif ", residual " in line:
                got = _sympify(line.split(", residual ", 1)[1], want["symbols"])
                mismatches += remainder == 0 or (got - remainder).expand() != 0
            else:
                mismatches += 1
        certified = all(r == 0 for r in want["remainders"])
        if overall != certified or res.rc != (0 if certified else 2):
            mismatches += 1
        if mismatches:
            return Verdict(False, float(mismatches), 0, f"{mismatches} verdicts differ from sympy")
        return Verdict(True, 0.0, len(lines))

    def _expected(self, doc: dict) -> dict:
        key = json.dumps(doc, sort_keys=True)
        if key in self._oracle:
            return self._oracle[key]
        import sympy

        syms = sympy.symbols(doc["variables"])
        table = dict(zip(doc["variables"], syms))
        gens = [_sympify(g, table) for g in doc["ideal"]]
        ideal = _ideal_key(doc)
        clock = Clock()
        start = time.perf_counter()
        basis = sympy.groebner(gens, *syms, order="grevlex", domain="QQ")
        timed = Timed(time.perf_counter() - start)
        clock.add(timed)
        clock.flush()
        self._sympy_s.setdefault(ideal, timed.seconds)
        field_ = [_sympify(doc["derivation"][v], table) for v in doc["variables"]]
        remainders = []
        for g in gens:
            image = sum(a * sympy.diff(g, x) for a, x in zip(field_, syms))
            remainders.append(sympy.expand(basis.reduce(sympy.expand(image))[1]))
        if ideal not in self._program_basis:
            self._program_basis[ideal] = self._same_basis(doc, basis, syms)
        self._oracle[key] = {
            "symbols": table,
            "remainders": remainders,
            "basis_ok": self._program_basis[ideal],
        }
        return self._oracle[key]

    def _same_basis(self, doc, basis, syms) -> bool:
        """The program's reduced basis equals sympy's, both made monic."""
        import sympy

        ex, pr = self._modules["expr"], self._modules["polyring"]
        vl = ex.VarList(tuple(doc["variables"]))
        ours = pr.groebner_basis([ex.as_polynomial(ex.parse_expr(g, vl)) for g in doc["ideal"]])
        mine = {
            frozenset((m, Fraction(c)) for m, c in p.terms.items()) for p in ours
        }
        theirs = set()
        for e in basis.exprs:
            lead = sympy.LC(e, *syms, order="grevlex")
            terms = sympy.Poly(e / lead, *syms, domain="QQ").as_dict()
            theirs.add(frozenset((m, Fraction(int(c.p), int(c.q))) for m, c in terms.items()))
        return len(ours) == len(basis.exprs) and mine == theirs


def _ideal_key(doc: dict) -> tuple:
    return (tuple(doc["variables"]), tuple(doc["ideal"]))


def _sympify(text: str, table: dict):
    import sympy

    return sympy.sympify(text.replace("^", "**"), locals=table)


WORKLOADS = {w.name: w for w in (DomainSquare, GroupoidSphere, CertifyIdeals)}
