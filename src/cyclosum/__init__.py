"""Exact evaluation of truncation-compatible symmetric families at
punctured cyclotomic cosine points, with stable-range reduction through
the universal invariants and finite verification of global identities."""

from .exactcore import UniPoly, rat_str, resultant
from .symfunc import PowerSumExpr
from .invariants import (
    QPoly,
    cos_power_sum,
    multiplicative_invariant,
    punctured_min_poly,
    punctured_power_sum,
    sin_power_sum,
)
from .rigidity import (
    AdmissibleFormula,
    EvalReport,
    evaluate,
    eventual_polynomial,
    verify_identity,
)
from .catalan import (
    catalan_a,
    extract_coefficient_family,
    h_family,
    h_global_series,
)
from .oracle import (
    cosine_points,
    cross_check,
    exact_newton_powersums,
    float_eval,
)
from .dsl import parse_conjecture, parse_formula, parse_qpoly

__version__ = "0.1.0"

__all__ = [
    "UniPoly", "rat_str", "resultant", "PowerSumExpr",
    "QPoly", "cos_power_sum", "multiplicative_invariant",
    "punctured_min_poly", "punctured_power_sum", "sin_power_sum",
    "AdmissibleFormula", "EvalReport", "evaluate",
    "eventual_polynomial", "verify_identity",
    "catalan_a", "extract_coefficient_family", "h_family", "h_global_series",
    "cosine_points", "cross_check", "exact_newton_powersums", "float_eval",
    "parse_conjecture", "parse_formula", "parse_qpoly",
]
