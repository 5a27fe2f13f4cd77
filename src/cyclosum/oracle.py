"""Independent ground truth for the exact pipelines.

Two routes that share no code with the parity-binomial formulas:
high-precision floating evaluation at the literal cosine points
(mpmath), and exact power sums recovered from the coefficients of W_n
by Newton's identities.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import mpmath

from .exactcore import rat, rat_str
from .invariants import punctured_min_poly
from .rigidity import AdmissibleFormula, evaluate

DEFAULT_PRECISION = 256
DEFAULT_TOLERANCE = Fraction(1, 10**20)


@dataclass(frozen=True)
class CosineConfig:
    n: int
    precision: int
    points: Tuple[mpmath.mpf, ...]


_points_lock = threading.Lock()
_points_cache = {}


def cosine_points(n: int, precision: int = DEFAULT_PRECISION) -> CosineConfig:
    """The n-1 punctured cosine points cos(2 pi k/n) at the given working
    precision in bits.  Computed directly from high-precision angles, not
    via any recurrence, to stay independent of the Chebyshev machinery."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    if precision < 64:
        raise ValueError("precision must be >= 64 bits")
    key = (n, precision)
    with _points_lock:
        hit = _points_cache.get(key)
        if hit is not None:
            return hit
    with mpmath.workprec(precision):
        two_pi = 2 * mpmath.pi
        pts = tuple(mpmath.cos(two_pi * k / n) for k in range(1, n))
    cfg = CosineConfig(n, precision, pts)
    with _points_lock:
        _points_cache[key] = cfg
    return cfg


def _to_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def float_eval(
    F: AdmissibleFormula, n: int, precision: int = DEFAULT_PRECISION
) -> mpmath.mpf:
    """Floating evaluation at the literal points; no stable-range
    requirement, so this is the below-threshold reference path."""
    cfg = cosine_points(n, precision)
    with mpmath.workprec(precision):
        z = Fraction(n - 1)
        psums = {}
        for h in range(1, F.psi_star.max_gen() + 1):
            psums[h] = mpmath.fsum(p**h for p in cfg.points)
        total = mpmath.mpf(0)
        for exps, c in F.psi_star.terms.items():
            term = _to_mpf(c(z))
            for i, e in enumerate(exps):
                if e:
                    term *= psums[i + 1] ** e
            total += term
        for Q, mult in F.products:
            qn = Q.specialize_z(n - 1)
            qcs = [_to_mpf(cc) for cc in qn.coeffs]
            prod = mpmath.mpf(1)
            for p in cfg.points:
                val = mpmath.mpf(0)
                for cc in reversed(qcs):
                    val = val * p + cc
                prod *= val
            total *= prod**mult
        return total


def exact_newton_powersums(n: int, d: int) -> List[Fraction]:
    """Power sums p_1..p_d of the punctured cosine points, derived from
    the coefficients of W_n by Newton's identities.  Never touches the
    parity-binomial formulas."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    if d < 0:
        raise ValueError("d must be nonnegative")
    W = punctured_min_poly(n)
    N = W.degree  # = n - 1, monic
    # elementary symmetric functions of the roots
    e = [Fraction(0)] * (N + 1)
    e[0] = Fraction(1)
    for i in range(1, N + 1):
        e[i] = (-1) ** i * W.coeff(N - i)
    # Newton: p_k = sum_{i=1}^{k-1} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k
    # (the last term only while k <= N; e_i = 0 for i > N).
    p: List[Fraction] = []
    for k in range(1, d + 1):
        s = Fraction(0)
        for i in range(1, min(k - 1, N) + 1):
            s += (-1) ** (i - 1) * e[i] * p[k - i - 1]
        if k <= N:
            s += (-1) ** (k - 1) * k * e[k]
        p.append(s)
    return p


@dataclass(frozen=True)
class CheckReport:
    quantity: str
    exact: Optional[Fraction]
    float_value: str
    residual: str
    tolerance: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "exact": rat_str(self.exact) if self.exact is not None else None,
            "float": self.float_value,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def cross_check(
    F: AdmissibleFormula,
    n: int,
    tolerance: Fraction = DEFAULT_TOLERANCE,
    precision: int = DEFAULT_PRECISION,
) -> CheckReport:
    """Compare float_eval against the exact evaluation at level n."""
    tolerance = rat(tolerance) if not isinstance(tolerance, Fraction) else tolerance
    exact = evaluate(F, n).value
    with mpmath.workprec(precision):
        fv = float_eval(F, n, precision)
        residual = abs(fv - _to_mpf(exact))
        tol = _to_mpf(tolerance)
        passed = residual <= tol
        return CheckReport(
            quantity=F.render(),
            exact=exact,
            float_value=mpmath.nstr(fv, 30),
            residual=mpmath.nstr(residual, 10),
            tolerance=mpmath.nstr(tol, 10),
            passed=bool(passed),
        )
