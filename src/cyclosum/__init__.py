"""Exact evaluation of truncation-compatible symmetric families at
punctured cyclotomic cosine points, with stable-range reduction through
the universal invariants and finite verification of global identities."""

from .exactcore import (
    Series,
    UniPoly,
    poly_divrem,
    rat_str,
    resultant,
    series_mul,
)
from .symfunc import (
    PowerSumExpr,
    SymMonomialPoly,
    expand,
    reduce_to_powersum,
    truncation_check,
)
from .invariants import (
    QPoly,
    chebyshev_T,
    cos_power_sum,
    multiplicative_invariant,
    parity_binom,
    punctured_min_poly,
    punctured_power_sum,
    punctured_power_sum_stable,
    sin_power_sum,
)
from .rigidity import (
    AdmissibleFormula,
    EvalReport,
    build_admissible,
    evaluate,
    eventual_polynomial,
    verify_identity,
)
from .catalan import (
    a_power_series,
    catalan_a,
    extract_coefficient_family,
    h_family,
    h_global_series,
    h_stable,
    verify_trunk,
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
    "Series", "UniPoly", "poly_divrem", "rat_str", "resultant",
    "series_mul",
    "PowerSumExpr", "SymMonomialPoly", "expand", "reduce_to_powersum",
    "truncation_check",
    "QPoly", "chebyshev_T", "cos_power_sum", "multiplicative_invariant",
    "parity_binom", "punctured_min_poly", "punctured_power_sum",
    "punctured_power_sum_stable", "sin_power_sum",
    "AdmissibleFormula", "EvalReport", "build_admissible", "evaluate",
    "eventual_polynomial", "verify_identity",
    "a_power_series", "catalan_a", "extract_coefficient_family", "h_family",
    "h_global_series", "h_stable", "verify_trunk",
    "cosine_points", "cross_check", "exact_newton_powersums", "float_eval",
    "parse_conjecture", "parse_formula", "parse_qpoly",
]
