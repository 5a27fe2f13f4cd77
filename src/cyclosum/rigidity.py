"""Admissible formulas and the stable-range pipeline.

An admissible formula is a bounded-degree symmetric family given by its
stable power-sum presentation psi_star, optionally multiplied by fixed
unit-normalized product factors.  In the stable range n >= n_star = d+2
the cosine-point evaluation factors through P_1(n)..P_d(n) and the
multiplicative invariants; in the polynomial case it agrees with a
single eventual polynomial in n.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .exactcore import UniPoly
from .invariants import (
    InternalConsistencyError,
    QPoly,
    multiplicative_invariant,
    punctured_power_sum,
)
from .symfunc import PowerSumExpr


class ProductCaseError(ValueError):
    pass


ProductDatum = Tuple[Tuple[QPoly, int], ...]


def _normalize_products(products) -> ProductDatum:
    out = []
    for Q, mult in products or ():
        mult = operator.index(mult)
        if mult < 0:
            raise ValueError("product exponent must be nonnegative")
        if mult:
            out.append((Q, mult))
    return tuple(out)


@dataclass(frozen=True)
class AdmissibleFormula:
    """Stable presentation psi_star plus product datum; d is the weighted
    degree of psi_star and n_star = d + 2 the stable threshold."""

    psi_star: PowerSumExpr
    products: ProductDatum = ()

    def __post_init__(self):
        object.__setattr__(self, "products", _normalize_products(self.products))

    # d is read several times per call (n_star, the levels, the eventual
    # polynomial, the CLI), so it scans the terms only when first read.
    @functools.cached_property
    def d(self) -> int:
        return self.psi_star.weighted_degree

    @property
    def n_star(self) -> int:
        return self.d + 2

    @property
    def is_polynomial_case(self) -> bool:
        return not self.products

    def __str__(self) -> str:
        pieces = []
        psi_text = str(self.psi_star)
        if psi_text != "1" or not self.products:
            if self.products and len(self.psi_star.rows) > 1:
                psi_text = f"({psi_text})"
            pieces.append(psi_text)
        for Q, mult in self.products:
            piece = f"prod({Q})"
            if mult != 1:
                piece += f"^{mult}"
            pieces.append(piece)
        return " * ".join(pieces)


@dataclass(frozen=True)
class EvalReport:
    """Outcome of an exact evaluation at one level."""

    n: int
    value: Fraction
    power_sums: Tuple[int, ...]  # P_1(n)..P_d(n)
    product_values: Tuple[Fraction, ...]  # M_{Q_i}(n) per factor
    mode: str  # "stable" (n >= n_star) or "general"


def _levels(F: AdmissibleFormula, ns, hs) -> list:
    """The levels (P_1(n)..P_d(n), n - 1) at which psi_star.substitute
    evaluates F, one for each n in ns, with P_h(n) read for h in hs and
    left 0 for the other h, whose generators substitute does not read."""
    levels = []
    for n in ns:
        P = [0] * F.d
        for h in hs:
            P[h - 1] = punctured_power_sum(n, h)
        levels.append((P, n - 1))
    return levels


def evaluate(F: AdmissibleFormula, n: int) -> EvalReport:
    """Exact evaluation at any level n >= 2.

    The power sums come from the parity-binomial formula, exact in every
    regime; mode records whether n lies in the stable range n >= n_star,
    where the value also agrees with the eventual polynomial.
    """
    if n < 2:
        raise ValueError("level n must be >= 2")
    levels = _levels(F, [n], range(1, F.d + 1))
    (value,) = F.psi_star.substitute(levels)
    mvals = []
    for Q, mult in F.products:
        mq = multiplicative_invariant(Q, n)
        mvals.append(mq)
        value *= mq**mult
    mode = "stable" if n >= F.n_star else "general"
    return EvalReport(n, value, tuple(levels[0][0]), tuple(mvals), mode)


def _interpolate(x0: int, values) -> UniPoly:
    """The polynomial in n of degree <= m = len(values) - 1 taking
    values[i] at n = x0 + i, by Newton's forward differences in integers
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5).

    With M the lcm of the denominators, M*values is integer-valued, so
    its differences Delta^k are integers and m! Delta^k / k! too; the
    Newton form is expanded with integer coefficients over M m!.
    """
    m = len(values) - 1
    M = math.lcm(*(v.denominator for v in values))
    scale = math.factorial(m)
    diffs = [v.numerator * (M // v.denominator) for v in values]
    newton = []  # m! Delta^k (M values)[0] / k!
    for k in range(m + 1):
        newton.append(diffs[0] * (scale // math.factorial(k)))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = []  # Horner in the Newton basis: p := p * (n - x0 - k) + newton[k]
    for k in range(m, -1, -1):
        root = x0 + k
        coeffs = [newton[k]] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    return UniPoly.from_row(M * scale, coeffs)


def eventual_polynomial(F: AdmissibleFormula) -> UniPoly:
    """The polynomial R(n) agreeing with evaluate for every n >= n_star.
    Only defined in the polynomial case.

    P_h(n) is at most linear in n > h, so for each h whose generator
    occurs in psi_star (the only P_h read) the levels n_star and
    n_star + 1 give its value and slope on n >= d + 1: constant for odd
    h, linear for even h.  psi_star.fold sets each generator of
    slope 0 to its value; each generator left is linear in n, as
    z = n - 1 is, so R has degree at most D, the largest deg c + (sum of
    the exponents) over the folded terms.  R interpolates the folded
    kernel at the D + 1 levels n_star, ..., n_star + D, whose power sums
    follow by slope.  At n = d + 1, below them, the power sums are read
    directly: the folded ones must keep their values there, and the
    folded kernel must agree with R, which checks the slopes and the fold
    as well as the degree bound.  (At d = 0 that level is n = 1, where
    the kernel reads z = 0 alone.)
    """
    if not F.is_polynomial_case:
        raise ProductCaseError(
            "eventual polynomiality applies to the polynomial case only"
        )
    hs = F.psi_star.generators()
    (P, z), (P1, _), check = _levels(F, [F.n_star, F.n_star + 1, F.d + 1], hs)
    slopes = [b - a for a, b in zip(P, P1)]
    constants = {h: P[h - 1] for h in hs if not slopes[h - 1]}
    folded = F.psi_star.fold(constants)
    D = max((len(row) - 1 + sum(exps) for exps, row in folded.rows.items()), default=0)
    *values, expected = folded.substitute(
        [([p + i * s for p, s in zip(P, slopes)], z + i) for i in range(D + 1)] + [check]
    )
    R = _interpolate(F.n_star, values)
    if R(F.d + 1) != expected or any(check[0][h - 1] != p for h, p in constants.items()):
        raise InternalConsistencyError(
            f"eventual polynomial of degree <= {D} misses the kernel at n={F.d + 1}"
        )
    return R


@dataclass(frozen=True)
class VerificationReport:
    eventual: UniPoly
    difference: UniPoly  # eventual - conjecture
    per_level: Tuple[Tuple[int, Fraction, Fraction], ...]  # (n, expected, got)

    @property
    def symbolic_match(self) -> bool:
        return self.difference.is_zero()

    @property
    def passed(self) -> bool:
        return self.symbolic_match and all(e == g for _, e, g in self.per_level)


def verify_identity(
    F: AdmissibleFormula,
    conjecture: UniPoly,
    check_below_threshold: bool = False,
) -> VerificationReport:
    """Finite-verification principle, for the polynomial case only.

    The eventual polynomial is compared to the conjecture symbolically
    in Q[n], which covers all n >= n_star at once; optionally each level
    2 <= n < n_star is checked against the exact evaluation.  A formula
    with product factors is refused: it has no eventual polynomial.
    """
    if not F.is_polynomial_case:
        raise ProductCaseError(
            "symbolic verification requires the polynomial case; "
            "'cyclosum oracle' checks a product formula at one level"
        )
    eventual = eventual_polynomial(F)
    ns = range(2, F.n_star) if check_below_threshold else ()
    values = F.psi_star.substitute(_levels(F, ns, F.psi_star.generators())) if ns else ()
    levels = tuple((n, conjecture(Fraction(n)), v) for n, v in zip(ns, values))
    return VerificationReport(eventual, eventual - conjecture, levels)
