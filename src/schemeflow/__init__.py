"""Symbolic-numeric toolkit for vector fields and flows on the zero sets of
finitely presented smooth ideals: exact ideal-preservation certificates,
maximal integral curves that stop where the zero set does, flow domains, and
groupoid verification for complete fields."""

from .cring import (
    PointNotOnScheme,
    SchemePoint,
    SchemePresentation,
    in_zero_set,
    sample_zero_set,
)
from .curves import (
    CurveClass,
    IntegralCurve,
    IntegratorOptions,
    IntervalRecord,
    OutsideDefinitionInterval,
    evaluate_curve,
    integrate_max_curve,
    integrate_max_curves,
)
from .derivation import (
    LiftedField,
    PreservationReport,
    hadamard_decompose,
    lift,
    preserves_ideal,
)
from .expr import (
    GuardViolation,
    ParseError,
    SmoothExpr,
    VarList,
    apply_operation,
    as_polynomial,
    diff,
    evaluate,
    format_expr,
    parse_expr,
    simplify,
    variables,
)
from .flow import (
    FlowDomain,
    MemoFlow,
    check_time_zero_identity,
    flow_domain,
    flow_eval,
    t_convexity_check,
    validate_closed_form,
)
from .groupoid import (
    Arrow,
    GroupoidReport,
    IncompleteFieldError,
    check_axioms,
    check_ideal_inclusions,
    compose,
    inverse,
    sample_arrows,
    source,
    target,
    unit,
)
from .polyring import (
    MonomialOrder,
    PolyIdeal,
    Polynomial,
    groebner_basis,
    ideal_sum,
    normal_form,
    pullback_ideal,
    s_polynomial,
)

__version__ = "0.1.0"
