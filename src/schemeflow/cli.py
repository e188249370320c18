"""Batch front end: scheme files in, checks / curves / domains / reports out.

A scheme file is a single UTF-8 JSON document:

    {
      "variables": ["x", "y"],
      "ideal": ["y^2"],
      "region": ["x^2 - 1"],
      "derivation": {"x": "1", "y": "y"},
      "flow_closed_form": ["x + t", "y*exp(t)"],
      "options": {"eps_z": 1e-9, "horizon": 100.0},
      "declared_flags": {"germ_determined": true}
    }

"ideal" entries are expression strings over the variables (generators that
must vanish); "region" entries are constraints g <= 0; "derivation" must
assign a coefficient expression to every variable; "flow_closed_form", when
present, lists expressions over the variables plus "t".  germ_determined is
recorded as declared, never verified.

Exit codes: 0 success/certified; 1 I/O or parse error, including a usage
error (argparse's message), a malformed ``--point`` (a NaN coordinate
included) or ``--box`` (a box axis needs finite bounds lo < hi), and an
array too large for memory (such as a huge ``--grid``);
2 check failed, input not on the scheme (a ``--point`` whose membership
residual exceeds the tolerance, an overflow to inf included), a ``--time``
outside the curve's definition interval, a curve over its step limit or a
Groebner basis over its degree cap; 3 groupoid refused
(a sampled curve, or a curve the axiom sweep reads, is not horizon-complete).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

from . import cring
from . import curves as cv
from . import derivation as dv
from . import expr as ex
from . import flow as fl
from . import groupoid as gp
from . import polyring as pr

__all__ = ["SchemeFile", "SchemeFileError", "load_scheme", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED = 2
EXIT_REFUSED = 3


class SchemeFileError(Exception):
    pass


@dataclass
class SchemeFile:
    scheme: cring.SchemePresentation
    field: dv.LiftedField
    flow_closed_form: Optional[tuple[ex.SmoothExpr, ...]]
    options: cv.IntegratorOptions
    declared_flags: dict = field(default_factory=dict)
    path: str = ""


_KNOWN_KEYS = {
    "variables",
    "ideal",
    "region",
    "derivation",
    "flow_closed_form",
    "options",
    "declared_flags",
}
# A scheme file's "options" are eps_z, for the presentation, and the fields
# of IntegratorOptions, each read as the type of its default.
_OPTIONS = {"eps_z": float, **{f.name: type(f.default) for f in fields(cv.IntegratorOptions)}}


def load_scheme(path: str, tol_override: Optional[float] = None,
                horizon_override: Optional[float] = None) -> SchemeFile:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise SchemeFileError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SchemeFileError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise SchemeFileError(f"{path}: top level must be an object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise SchemeFileError(f"{path}: unknown keys {sorted(unknown)}")

    names = raw.get("variables")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemeFileError(f"{path}: 'variables' must be a list of names")
    try:
        vl = ex.VarList(tuple(names))
    except ValueError as err:
        raise SchemeFileError(f"{path}: {err}") from err

    def parse_list(key: str) -> tuple[ex.SmoothExpr, ...]:
        entries = raw.get(key, [])
        if not isinstance(entries, list):
            raise SchemeFileError(f"{path}: '{key}' must be a list of expressions")
        out = []
        for s in entries:
            try:
                out.append(ex.parse_expr(s, vl))
            except ex.ExprError as err:
                raise SchemeFileError(f"{path}: in {key!r}, {s!r}: {err}") from err
        return tuple(out)

    ideal = parse_list("ideal")
    region = parse_list("region")
    if not ideal and not region:
        raise SchemeFileError(f"{path}: need at least one of 'ideal' or 'region'")

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise SchemeFileError(f"{path}: 'options' must be an object")
    unknown_opts = set(options) - set(_OPTIONS)
    if unknown_opts:
        raise SchemeFileError(f"{path}: unknown options {sorted(unknown_opts)}")
    opt_kwargs = {key: _number(path, key, value, _OPTIONS[key]) for key, value in options.items()}
    eps_z = opt_kwargs.pop("eps_z", cring.DEFAULT_EPS_Z)
    if tol_override is not None:
        eps_z = tol_override

    flags = raw.get("declared_flags", {})
    if not isinstance(flags, dict):
        raise SchemeFileError(f"{path}: 'declared_flags' must be an object")
    germ = bool(flags.get("germ_determined", True))

    try:
        scheme = cring.SchemePresentation(
            vl, ideal, region, eps_z=eps_z, germ_determined=germ
        )
    except ValueError as err:
        raise SchemeFileError(f"{path}: {err}") from err

    deriv = raw.get("derivation")
    if not isinstance(deriv, dict):
        raise SchemeFileError(f"{path}: 'derivation' must map every variable to an expression")
    missing = set(vl.names) - set(deriv)
    extra = set(deriv) - set(vl.names)
    if missing or extra:
        raise SchemeFileError(
            f"{path}: derivation must cover exactly the variables "
            f"(missing {sorted(missing)}, extraneous {sorted(extra)})"
        )
    try:
        coeffs = tuple(ex.parse_expr(deriv[name], vl) for name in vl.names)
    except ex.ExprError as err:
        raise SchemeFileError(f"{path}: in 'derivation': {err}") from err
    lifted = dv.LiftedField(coeffs, scheme)

    psi = None
    if "flow_closed_form" in raw:
        entries = raw["flow_closed_form"]
        if not isinstance(entries, list) or len(entries) != vl.arity:
            raise SchemeFileError(
                f"{path}: 'flow_closed_form' must list one expression per variable"
            )
        if fl.TIME_VAR in vl.names:
            raise SchemeFileError(
                f"{path}: variable {fl.TIME_VAR!r} conflicts with the flow time variable"
            )
        evl = vl.extended(fl.TIME_VAR)
        try:
            psi = tuple(ex.parse_expr(s, evl) for s in entries)
        except ex.ExprError as err:
            raise SchemeFileError(f"{path}: in 'flow_closed_form': {err}") from err

    if horizon_override is not None:
        opt_kwargs["horizon"] = horizon_override
    try:
        iopts = cv.IntegratorOptions(**opt_kwargs)
    except ValueError as err:
        raise SchemeFileError(f"{path}: bad options: {err}") from err

    return SchemeFile(scheme, lifted, psi, iopts, dict(flags), path)


def _number(path: str, key: str, value, kind: type):
    """Option ``key`` as ``kind``: a JSON number, not a boolean, integral for int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemeFileError(f"{path}: option {key!r} must be a number")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise SchemeFileError(f"{path}: option {key!r} must be an integer")
        return int(value)
    try:
        return float(value)
    except OverflowError as err:  # an integer past the largest double
        raise SchemeFileError(f"{path}: option {key!r} is too large") from err


def _parse_point(text: str, scheme: cring.SchemePresentation) -> cring.SchemePoint:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != scheme.arity:
        raise ValueError(
            f"point needs {scheme.arity} coordinates, got {len(parts)}"
        )
    return scheme.point(tuple(float(p) for p in parts))


def _parse_box(text: Optional[str], arity: int):
    if text is None:
        return None
    spans = text.split(",")
    if len(spans) != arity:
        raise ValueError(f"box needs {arity} axis ranges lo:hi")
    out = []
    for span in spans:
        lo, hi = (float(x) for x in span.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"box axis {span!r} needs finite bounds lo < hi")
        out.append((lo, hi))
    return tuple(out)


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    sf = load_scheme(args.scheme, args.tol, args.horizon)
    report = dv.preserves_ideal(sf.field)
    _write_out(report.summary() + "\n", args.out)
    return EXIT_OK if report.certified else EXIT_FAILED


def cmd_curve(args) -> int:
    sf = load_scheme(args.scheme, args.tol, args.horizon)
    point = _parse_point(args.point, sf.scheme)
    curve = cv.integrate_max_curve(sf.field, point, sf.options)
    _write_out(cv.curve_to_csv(curve, samples=args.samples), args.out)
    print(
        f"interval [{curve.interval.lo:.17g}, {curve.interval.hi:.17g}] "
        f"class {curve.classification}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_domain(args) -> int:
    sf = load_scheme(args.scheme, args.tol, args.horizon)
    box = _parse_box(args.box, sf.scheme.arity)
    grid = cring.sample_zero_set(sf.scheme, box, args.grid)
    domain = fl.flow_domain(sf.field, grid, sf.options)
    _write_out(fl.domain_to_csv(domain), args.out)
    report = fl.t_convexity_check(domain)
    print(
        f"rows {len(domain.rows)}, t-convexity "
        + ("ok" if report.ok else f"VIOLATED ({len(report.violations)})"),
        file=sys.stderr,
    )
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_flow(args) -> int:
    sf = load_scheme(args.scheme, args.tol, args.horizon)
    point = _parse_point(args.point, sf.scheme)
    state = fl.flow_eval(sf.field, point, args.time, sf.options)
    _write_out(",".join(f"{x:.17g}" for x in state) + "\n", args.out)
    return EXIT_OK


def cmd_groupoid(args) -> int:
    sf = load_scheme(args.scheme, args.tol, args.horizon)
    box = _parse_box(args.box, sf.scheme.arity)
    arrows = gp.sample_arrows(
        sf.scheme, args.samples, seed=args.seed,
        time_span=min(3.0, sf.options.horizon / 2), box=box,
    )
    tol = args.tol if args.tol is not None else 1e-6
    flow = fl.MemoFlow(sf.field, sf.options)
    report = gp.check_axioms(flow, arrows, tol=tol)
    lines = [report.summary()]
    ok = report.passed
    if sf.flow_closed_form is not None:
        cf = fl.validate_closed_form(
            flow, sf.flow_closed_form,
            [a.point for a in arrows[: min(10, len(arrows))]],
            [-2.0, -0.5, 0.0, 0.5, 1.0, 2.0],
        )
        incl = gp.check_ideal_inclusions(sf.scheme, sf.flow_closed_form, arrows)
        lines += [
            f"closed form max deviation: {cf.max_deviation:.3e}",
            f"pullback identities: projection {incl.projection_identity:.3e}, "
            f"flow {incl.flow_identity:.3e}",
        ]
        ok = ok and cf.ok and incl.passed
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_validate(args) -> int:
    sf = load_scheme(args.scheme, args.tol, args.horizon)
    lines = [
        f"variables: {', '.join(sf.scheme.vars.names)}",
        f"ideal generators: {len(sf.scheme.ideal_gens)}",
        f"region constraints: {len(sf.scheme.region)}",
        f"derivation coefficients: {sf.scheme.arity}",
    ]
    if sf.flow_closed_form is not None:
        fl.flow_ideal(sf.scheme, sf.flow_closed_form)  # runs the t=0 identity check
        lines.append("flow_closed_form: present, t=0 identity ok")
    flags = ", ".join(f"{k}={v}" for k, v in sorted(sf.declared_flags.items()))
    lines += [f"declared flags: {flags or '(none)'}", "ok"]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemeflow",
        description="Certify, integrate and verify vector fields on scheme files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scheme", required=True, help="path to a scheme file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--horizon", type=float, default=None, help="horizon override")

    p_check = sub.add_parser("check", help="certify ideal preservation")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_curve = sub.add_parser("curve", help="integrate one maximal curve to CSV")
    common(p_curve)
    p_curve.add_argument("--point", required=True, help="comma-separated coordinates")
    p_curve.add_argument("--samples", type=int, default=101, help="CSV sample count")
    p_curve.set_defaults(fn=cmd_curve)

    p_domain = sub.add_parser("domain", help="sample the flow domain to CSV")
    common(p_domain)
    p_domain.add_argument("--grid", type=int, default=9, help="grid resolution per axis")
    p_domain.add_argument("--box", default=None, help="box as lo:hi,lo:hi,...")
    p_domain.set_defaults(fn=cmd_domain)

    p_flow = sub.add_parser("flow", help="evaluate the flow at (point, time)")
    common(p_flow)
    p_flow.add_argument("--point", required=True)
    p_flow.add_argument("--time", type=float, required=True)
    p_flow.set_defaults(fn=cmd_flow)

    p_grpd = sub.add_parser("groupoid", help="verify groupoid axioms on sampled arrows")
    common(p_grpd)
    p_grpd.add_argument("--samples", type=int, default=100)
    p_grpd.add_argument("--seed", type=int, default=0, help="arrow sampling seed")
    p_grpd.add_argument("--box", default=None, help="box as lo:hi,lo:hi,...")
    p_grpd.set_defaults(fn=cmd_groupoid)

    p_val = sub.add_parser("validate", help="parse and sanity-check a scheme file")
    common(p_val)
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, but 2 here means a failed check
        return EXIT_ERROR if stop.code else EXIT_OK
    try:
        return args.fn(args)
    except (SchemeFileError, ex.ExprError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except (
        cring.PointNotOnScheme,
        cv.OutsideDefinitionInterval,
        cv.StepLimitExceeded,
        pr.DegreeCapExceeded,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILED
    except gp.IncompleteFieldError as err:
        print(f"refused: {err}", file=sys.stderr)
        return EXIT_REFUSED
    except MemoryError as err:  # numpy refuses an impossible array at once
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
