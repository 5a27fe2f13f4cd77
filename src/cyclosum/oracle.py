"""Independent ground truth for the exact pipelines.

Two routes that share no code with the parity-binomial formulas:

- float_eval evaluates a formula at the literal cosine points
  cos(2 pi k/n), taken from mpmath.cos, in fixed point: every real is an
  integer scaled by 2^W at W = precision bits.  The mirror k <-> n-k
  leaves only the points k <= n/2 distinct.  The same pass bounds its own
  error (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3
  and 5), and cross_check takes that bound as its default tolerance, so
  the verdict means the same at every magnitude.
- exact_newton_powersums recovers the power sums from the coefficients
  of W_n by Newton's identities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import mpmath
from mpmath.libmp import to_fixed, to_rational

from .exactcore import log_rows, rat, rat_str
from .invariants import punctured_min_poly
from .rigidity import AdmissibleFormula, evaluate

DEFAULT_PRECISION = 256
_GUARD = 64  # bits a product mantissa keeps beyond the working precision


@functools.cache
def cosine_points(n: int, precision: int = DEFAULT_PRECISION) -> Tuple[int, ...]:
    """The distinct punctured cosine points cos(2 pi k/n), 1 <= k <= n/2,
    as integers X_k = round(2^precision cos(2 pi k/n)) with
    |X_k - 2^precision cos(2 pi k/n)| <= 1.  Point n-k equals point k, so
    each stands for two of the n-1 points, except k = n/2 for even n.

    Each point is mpmath.cos of its own angle at precision + 16 bits, not
    any recurrence, to stay independent of the Chebyshev machinery."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    if precision < 64:
        raise ValueError("precision must be >= 64 bits")
    with mpmath.workprec(precision + 16):
        step = 2 * mpmath.pi / n
        # floor(2^(precision+1) cos) + 1, halved with floor: the nearest integer
        return tuple(
            (to_fixed(mpmath.cos(step * k)._mpf_, precision + 1) + 1) >> 1
            for k in range(1, n // 2 + 1)
        )


def _to_mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def _weighted_sum(values, even: bool):
    """Sum over the n-1 points of values given per distinct point: the
    last distinct point is k = n/2 with weight 1 when n is even."""
    total = 2 * sum(values)
    return total - values[-1] if even else total


def _normalize(man: int, exp: int, keep: int) -> Tuple[int, int]:
    """man * 2^exp with man cut to `keep` bits (relative error < 2^(1-keep))."""
    s = man.bit_length() - keep
    return (man >> s, exp + s) if s > 0 else (man, exp)


def _product(values, even: bool, W: int) -> Tuple[int, int]:
    """(man, exp) with man * 2^exp the product over the n-1 points of the
    fixed-point values v / 2^W given per distinct point."""
    keep = W + _GUARD
    man, exp = 1, 0
    for v in values[:-1] if even else values:
        man, exp = _normalize(man * v, exp, keep)
    man, exp = _normalize(man * man, 2 * exp, keep)
    if even:
        man, exp = _normalize(man * values[-1], exp, keep)
    return man, exp - W * (2 * len(values) - even)


def _log2_sum(logs) -> float:
    """log2 of sum(2^l for l in logs), with no overflow."""
    top = max(logs)
    return top + math.log2(sum(2.0 ** (l - top) for l in logs))


def _log2_dyadic(man: int, exp: int) -> float:
    return math.log2(abs(man)) + exp


def float_eval(
    F: AdmissibleFormula, n: int, precision: int = DEFAULT_PRECISION
) -> Tuple[mpmath.mpf, mpmath.mpf]:
    """(value, bound): F at level n by one fixed-point pass over the
    distinct cosine points, and a bound on |value - F(n)|.  There is no
    stable-range requirement, so this is also the below-threshold route.

    With W = precision, u = 2^-W, N = n - 1, H = max_gen, points x_k and
    their fixed-point values y_k (|y_k - x_k| <= u, |y_k| <= 1):

    - Power sums.  The running products a <- floor(a |y_k|) give |x_k|^h
      within (2h - 1)u, each step adding one u of rounding and one of
      |y_k - x_k|.  Signed by the sign of y_k and summed with the
      weights, they give p_h within E_h = N(2h - 1)u <= 2NHu, and the
      absolute sums s_h = sum_k w_k |a_k| for free.  With
      mu_h = 1 + s_h: |p_h|, computed p_h <= mu_h (1 + 2NHu).
    - Symmetric part.  Each term c(z) prod p_i^e_i is formed exactly from
      the integer p_h and floored once to a multiple of u.  Since
      |prod a_i - prod b_i| <= prod(|a_i| + d_i) - prod |a_i|, a term of
      total exponent e is off by at most
      |c| prod mu_i^e_i ((1 + 2NHu)^e - 1) + u.  The terms are added as
      integers, exactly, so the digits do not depend on term order.  With
      sigma = 1 + sum |c| prod mu_i^e_i over the T terms and e_max the
      largest e, psi is off by at most u sigma K (1 + 2^-10), where
      K = 2NH e_max + T, provided 2NH e_max u <= 2^-10.
    - Products.  Each Q of degree D, with sum C of coefficient magnitudes,
      is evaluated once per distinct point by integer Horner.  Each step
      adds one u of rounding, one of the coefficient and C u from
      |y_k - x_k|, so Q(y_k) is off by at most A u, A = D(C + 2) + 1.
      The values multiply into a mantissa kept to W + 64 bits.  Since
      |prod q_k - prod b_k| <= prod |q_k| (prod (1 + A u/|q_k|) - 1) for
      the computed q_k = Q(y_k), with h = sum_k w_k / |q_k| the product
      B, raised to its exponent m, is off by at most
      |B|^m kappa u (1 + 2^-10), kappa = m A h, provided the sum of
      kappa u over the products is <= 2^-10.  A Q that (nearly)
      vanishes at a point breaks that proviso; its |B| is then replaced
      by the upper bound prod_k (|Q(y_k)| + A u)^w_k and kappa by 2^W,
      which bounds |value| + |F(n)| instead.

    Altogether |value - F(n)| <= 2^(G - W) S with
    S = sigma prod |B|^m (1 + sum kappa) and G = 2 + bit_length(K):
    2^G > 4K also absorbs the mantissa cuts and the rounding of S itself,
    which is formed in binary logarithms.
    """
    W = precision
    points = cosine_points(n, W)
    even = n % 2 == 0
    N = n - 1
    z = Fraction(N)
    psi = F.psi_star
    H = psi.max_gen()
    e_max = max((sum(exps) for exps in psi.terms), default=0)
    if (2 * N * H * e_max) << 10 > 1 << W:
        raise ValueError(
            f"precision {W} is too low to bound the float error at n={n}; "
            "raise --precision"
        )
    K = 2 * N * H * e_max + len(psi.terms)

    # Power sums: P[h-1] = 2^W p_h, Pabs[h-1] = 2^W s_h.
    pos = [x for x in points if x >= 0]
    neg = [-x for x in points if x < 0]  # holds k = n/2 when n is even
    a_pos, a_neg = pos, neg
    P, Pabs = [], []
    for h in range(1, H + 1):
        if h > 1:
            a_pos = [(a * x) >> W for a, x in zip(a_pos, pos)]
            a_neg = [(a * x) >> W for a, x in zip(a_neg, neg)]
        sp, sn = 2 * sum(a_pos), _weighted_sum(a_neg, even)
        P.append(sp - sn if h % 2 else sp + sn)
        Pabs.append(sp + sn)
    log_mu = [math.log2(s + (1 << W)) - W for s in Pabs]

    # Symmetric part: psi_val = 2^W psi, within sigma K (1 + 2^-10).
    psi_val, logs = 0, [0.0]
    for exps, c in psi.terms.items():
        cz = c(z)
        e = sum(exps)
        if e:
            term = cz.numerator
            for i, ei in enumerate(exps):
                if ei:
                    term *= P[i] ** ei
            psi_val += (term >> (W * (e - 1))) // cz.denominator
        else:
            psi_val += (cz.numerator << W) // cz.denominator
        if cz:
            logs.append(
                math.log2(abs(cz.numerator)) - math.log2(cz.denominator)
                + sum(ei * lm for ei, lm in zip(exps, log_mu))
            )
    log_S = _log2_sum(logs)

    # Products: the value is man * 2^exp.
    man, exp = psi_val, -W
    log_kappas = [0.0]
    shift = W - 60
    for Q, mult in F.products:
        q = Q.specialize_z(N).coeffs
        qs = [(c.numerator << W) // c.denominator for c in reversed(q)]
        A = (len(q) - 1) * (math.ceil(sum(abs(c) for c in q)) + 2) + 1
        vals = []
        for x in points:
            v = qs[0]
            for c in qs[1:]:
                v = ((v * x) >> W) + c
            vals.append(v)
        bman, bexp = _product(vals, even, W)
        for _ in range(mult):
            man, exp = _normalize(man * bman, exp + bexp, W + _GUARD)
        # 1/|Q(x_k)| <= 2^60 / t_k with t_k = |Q(y_k)| 2^W >> (W - 60) when
        # t_k > 0; h is summed relative to the smallest t_k, so no float
        # overflows.
        tops = [abs(v) >> shift for v in vals]
        t0 = min(tops)
        log_kappa = math.inf
        if t0:
            h = _weighted_sum([t0 / t for t in tops], even)
            log_kappa = math.log2(mult * A) + math.log2(h) - math.log2(t0) + 60
        if log_kappa - W > -10 - len(F.products).bit_length():
            uman, uexp = _product([abs(v) + A for v in vals], even, W)
            log_S += mult * _log2_dyadic(uman, uexp)
            log_kappas.append(W)
        else:
            log_S += mult * _log2_dyadic(bman, bexp)
            log_kappas.append(log_kappa)
    log_S += _log2_sum(log_kappas)
    G = 2 + K.bit_length()

    with mpmath.workprec(W + _GUARD):
        value = mpmath.mpf((man, exp))
    with mpmath.workprec(64):
        bound = mpmath.mpf(2) ** (log_S + G - W)
    return value, bound


def exact_newton_powersums(n: int, d: int) -> List[Fraction]:
    """Power sums p_1..p_d of the punctured cosine points, derived from
    the coefficients of W_n by Newton's identities, through the recurrence
    of coefficient extraction.  Never touches the parity-binomial
    formulas."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    if d < 0:
        raise ValueError("d must be nonnegative")
    W = punctured_min_poly(n)
    # W reversed is prod_k (1 - alpha_k t), whose log has k L_k = -p_k
    A, N = log_rows([(W.coeff(W.degree - j),) for j in range(min(d, W.degree) + 1)], d)
    return [Fraction(-row[0][1], A**k) if row else Fraction(0)
            for k, row in enumerate(N[1:], start=1)]


@dataclass(frozen=True)
class CheckReport:
    quantity: str
    exact: Fraction
    float_value: str
    residual: str
    tolerance: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "exact": rat_str(self.exact),
            "float": self.float_value,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def cross_check(
    F: AdmissibleFormula,
    n: int,
    tolerance: Optional[Fraction] = None,
    precision: int = DEFAULT_PRECISION,
) -> CheckReport:
    """Compare float_eval against the exact evaluation at level n.  The
    check passes when |float - exact| is at most the tolerance: by default
    float_eval's own error bound, else the given absolute tolerance,
    which must be nonnegative."""
    if tolerance is not None:
        tolerance = rat(tolerance)
        if tolerance < 0:
            raise ValueError(f"tolerance must be nonnegative, got {rat_str(tolerance)}")
    exact = evaluate(F, n).value
    value, bound = float_eval(F, n, precision)
    residual = abs(Fraction(*to_rational(value._mpf_)) - exact)
    if tolerance is None:
        tolerance = Fraction(*to_rational(bound._mpf_))
    with mpmath.workprec(precision):
        return CheckReport(
            quantity=F.render(),
            exact=exact,
            float_value=mpmath.nstr(value, 30),
            residual=mpmath.nstr(_to_mpf(residual), 10),
            tolerance=mpmath.nstr(_to_mpf(tolerance), 10),
            passed=residual <= tolerance,
        )
