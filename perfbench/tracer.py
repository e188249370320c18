"""Layer tracing for schemeflow, installed from outside the package.

Every public function of each schemeflow module (the names in its
``__all__``) is replaced on the module object by a wrapper that records a
span: id, parent id, job, name, start and end.  Calls between modules go
through module attributes (``cv.integrate_max_curve``, ``pr.normal_form``,
...), and calls inside a module go through its globals, so the wrappers see
both.  A function that recurses into itself gets one span for the outermost
call.  Spans stay in memory and are written out by :meth:`Tracer.write`.

The callables the package hands out (compiled expressions, the lifted
right-hand side, ``SchemePresentation.residual_fn`` results) run millions of
times per job, so they are counted rather than spanned.  Each count is
charged to the *owner*: the innermost traced function, other than the
factories themselves, that asked for the callable.  The counts are what
tell a speed-up apart from doing less work.

Self time of a span is its duration minus the durations of its child spans;
a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from collections import defaultdict

LAYERS = ("cli", "expr", "polyring", "cring", "derivation", "curves", "flow", "groupoid")

# AST node constructors run once per node inside the symbolic routines; a span
# around each would time the tracer, not the layer.
_UNTRACED = {"expr.const", "expr.var", "expr.variables"}

# Functions that build a callable for their caller; ownership of the callable
# passes through them to the function that asked for it.
_FACTORIES = {"expr.as_callable", "derivation.lift", "cring.residual_fn"}

_SYMBOLIC = ("expr.diff", "expr.simplify", "expr.as_polynomial", "expr.apply_operation")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.cells: dict[tuple[str, str], list] = {}
        self.active: dict[str, int] = defaultdict(int)
        self.job = -1
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        hooks = {
            "expr.as_callable": lambda t, a, r: t._counted("compiled", r),
            "derivation.lift": lambda t, a, r: t._counted("rhs", r),
            "cring.residual_fn": lambda t, a, r: t._counted("residual", r),
            "cring.sample_zero_set": _on_sample_zero_set,
            "curves.integrate_max_curve": _on_integrate_max_curve,
            "flow.flow_domain": _on_flow_domain,
            "groupoid.check_axioms": _on_check_axioms,
            "polyring.groebner_basis": _on_groebner_basis,
        }
        for layer in LAYERS:
            mod = modules[layer]
            for attr in mod.__all__:
                fn = mod.__dict__.get(attr)
                name = f"{layer}.{attr}"
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and name not in _UNTRACED
                ):
                    self._patch(mod, attr, self._wrap(name, fn, hooks.get(name)))
        cls = modules["cring"].SchemePresentation
        self._patch(
            cls, "residual_fn",
            self._wrap("cring.residual_fn", cls.residual_fn, hooks["cring.residual_fn"]),
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name, fn, hook):
        tracer = self
        sig = inspect.signature(fn)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, name, 0]
            stack.append(frame)
            tracer.active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.active[name] -= 1
                duration = end - start
                tracer.self_ns[name] += duration - frame[2]
                tracer.total_ns[name] += duration
                tracer.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append((sid, parent, tracer.job, name, start, end))
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                result = hook(tracer, bound.arguments, result)
            return result

        return traced

    def _owner(self) -> str:
        for _, name, _ in reversed(self._stack):
            if name not in _FACTORIES:
                return name
        return "(harness)"

    def _counted(self, kind: str, fn):
        cell = self.cells.setdefault((kind, self._owner()), [0])

        def counted(p):
            cell[0] += 1
            return fn(p)

        return counted

    # -- results ----------------------------------------------------------

    def evaluations(self, kind: str, owner: str | None = None) -> int:
        return sum(
            cell[0]
            for (k, o), cell in self.cells.items()
            if k == kind and (owner is None or o == owner)
        )

    def metrics(self, jobs: int, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, totals divided by the number of traced jobs;
        times are multiplied by ``time_scale``."""
        per_job = 1.0 / max(jobs, 1)

        def s(*names, table=self.self_ns):
            return (sum(table[n] for n in names) * 1e-9 * time_scale * per_job, "s/job")

        def calls(name):
            return (self.calls[name] * per_job, "calls/job")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        c = self.counts
        steps = c["curves.steps"]
        out = {
            "cli.load_scheme.s": s("cli.load_scheme"),
            "expr.parse_expr.s": s("expr.parse_expr"),
            "expr.as_callable.calls": calls("expr.as_callable"),
            "expr.as_callable.s": s("expr.as_callable"),
            "expr.compiled.calls": (self.evaluations("compiled") * per_job, "calls/job"),
            "expr.symbolic.s": s(*_SYMBOLIC),
            "polyring.groebner_basis.s": s("polyring.groebner_basis"),
            # with its normal forms, as polyring.sympy_ref_s times sympy.groebner
            "polyring.groebner_basis.incl_s": s("polyring.groebner_basis", table=self.total_ns),
            "polyring.spairs": (self.calls["polyring.s_polynomial"] * per_job, "count/job"),
            "polyring.normal_form.calls": calls("polyring.normal_form"),
            "polyring.normal_form.s": s("polyring.normal_form"),
            "polyring.basis_size": ratio(c["polyring.basis_elements"], c["polyring.bases"]),
            "cring.sample_zero_set.s": s("cring.sample_zero_set"),
            "cring.sample_zero_set.points": (c["cring.points"] * per_job, "count/job"),
            "cring.sample.evals_per_cell": ratio(
                self.evaluations("compiled", "cring.sample_zero_set"), c["cring.cells"]
            ),
            "cring.residual.calls": (self.evaluations("residual") * per_job, "calls/job"),
            "derivation.preserves_ideal.s": s("derivation.preserves_ideal"),
            "derivation.rhs.calls": (self.evaluations("rhs") * per_job, "calls/job"),
            "curves.integrate_max_curve.calls": calls("curves.integrate_max_curve"),
            "curves.integrate_max_curve.s": s("curves.integrate_max_curve"),
            "curves.steps": (steps * per_job, "count/job"),
            "curves.rhs_per_step": ratio(
                self.evaluations("rhs", "curves.integrate_max_curve"), steps
            ),
            "curves.residual_per_step": ratio(
                self.evaluations("residual", "curves.integrate_max_curve"), steps
            ),
            "curves.evaluate_curve.calls": calls("curves.evaluate_curve"),
            "curves.evaluate_curve.s": s("curves.evaluate_curve"),
            "flow.flow_domain.s": s("flow.flow_domain"),
            "flow.t_convexity_check.s": s("flow.t_convexity_check"),
            "flow.validate_closed_form.s": s("flow.validate_closed_form"),
            "flow.curves_per_row": ratio(c["flow.curves"], c["flow.rows"]),
            "groupoid.sample_arrows.s": s("groupoid.sample_arrows"),
            "groupoid.check_axioms.s": s("groupoid.check_axioms"),
            "groupoid.curves_per_arrow": ratio(c["groupoid.curves"], c["groupoid.arrows"]),
            "groupoid.check_ideal_inclusions.s": s("groupoid.check_ideal_inclusions"),
        }
        for layer in LAYERS:
            names = [n for n in self.self_ns if n.split(".", 1)[0] == layer]
            out[f"{layer}.self.s"] = s(*names)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON, times in seconds from the first span's start."""
        t0 = min((sp[4] for sp in self.spans), default=0)
        doc = {
            "fields": ["id", "parent", "job", "name", "start_s", "end_s"],
            "spans": [
                [sid, parent, job, name, (a - t0) * 1e-9, (b - t0) * 1e-9]
                for sid, parent, job, name, a, b in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- counters at layer boundaries ------------------------------------------


def _on_sample_zero_set(t: Tracer, args, result):
    box = args["box"] or args["scheme"].default_box()
    t.counts["cring.cells"] += args["resolution"] ** len(box)
    t.counts["cring.points"] += len(result)
    return result


def _on_integrate_max_curve(t: Tracer, args, result):
    t.counts["curves.steps"] += len(result.forward) + len(result.backward)
    if t.active["flow.flow_domain"] or t.active["flow.t_convexity_check"]:
        t.counts["flow.curves"] += 1
    if t.active["groupoid.check_axioms"]:
        t.counts["groupoid.curves"] += 1
    return result


def _on_flow_domain(t: Tracer, args, result):
    t.counts["flow.rows"] += len(result.rows)
    return result


def _on_check_axioms(t: Tracer, args, result):
    t.counts["groupoid.arrows"] += len(args["arrows"])
    return result


def _on_groebner_basis(t: Tracer, args, result):
    t.counts["polyring.bases"] += 1
    t.counts["polyring.basis_elements"] += len(result)
    return result
