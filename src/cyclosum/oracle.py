"""Independent ground truth for the exact pipelines.

Two routes that share no code with the parity-binomial formulas:

- float_eval evaluates a formula at the literal cosine points
  cos(2 pi k/n) in fixed point: every real is an integer scaled by 2^W
  at W = precision bits.  The points come from one rotation by a seed
  angle per level, each correctly rounded by Ziv's test against a proven
  error bound, with its own Taylor series as the fallback; they read no
  Chebyshev coefficient and no invariants code.  The mirror k <-> n-k
  leaves only the points k <= n/2 distinct.
  The same pass bounds its own error (Higham, Accuracy and Stability of
  Numerical Algorithms, ch. 3 and 5), and cross_check takes that bound as
  its default tolerance, so the verdict means the same at every
  magnitude; a bound that cannot resolve a nonzero value is refused.
  Its value and bound are exact Fractions, and so is every field of
  cross_check's report; the CLI prints them in decimal.
- exact_newton_powersums recovers the power sums from the complete
  homogeneous series h_r of the points by Newton's identities.

The float route needs nothing beyond the standard library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .catalan import h_global_series
from .exactcore import UniPoly, log_rows, rat, rat_str
from .invariants import check_level
from .rigidity import AdmissibleFormula, evaluate

DEFAULT_PRECISION = 256
_GUARD = 64  # bits a product mantissa keeps beyond the working precision
_HALVINGS = 8  # the cosine's angle is halved this often before its series
_ZIV_GUARD = 40  # first guard bits of a cosine point; each retry doubles them
_ROTATION_STEP_ERROR = 2  # units of 2^-B one rotation step adds to E_j, at most


@functools.cache
def _pi_fixed(bits: int) -> int:
    """2^bits pi within 2, by Machin's formula 16 atan(1/5) - 4 atan(1/239)."""
    guard = bits.bit_length() + 8
    one = 1 << (bits + guard)

    def atan_inv(x):
        # Each term is an exact floor, so it is off by less than 1, and
        # the tail is below the first term that floors to 0.
        total, power, k = 0, one // x, 1
        while power:
            total += power // k if k % 4 == 1 else -(power // k)
            power //= x * x
            k += 2
        return total

    # Off by at most 16(J5 + 1) + 4(J239 + 1) < 2^(guard - 1) before the
    # shift, for J terms at bits + guard bits.
    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> guard


def _cos_turns(a: int, b: int, precision: int) -> int:
    """round(2^precision cos(2 pi a/b)) for 0 <= a/b <= 1/4, correctly
    rounded (Brent and Zimmermann, Modern Computer Arithmetic, ch. 4).

    At B = precision + g bits the angle is halved _HALVINGS times, its
    cosine summed as a Taylor series, and c <- 2c^2 - 1 undoes the
    halvings.  The result c is within E of 2^B cos: each series term is
    off by at most 3 and each doubling multiplies the error by at most 4,
    plus 2.  When c lies within E of a rounding boundary, g doubles
    (Ziv's test).  By Niven's theorem cos(2 pi a/b) is rational only at
    0, +-1/2 and +-1, so 2^precision cos is never a half-integer and the
    retries end."""
    guard = _ZIV_GUARD
    while True:
        B = precision + guard
        one = 1 << B
        # the angle 2 pi a/b / 2^_HALVINGS, within 2 since 2a/b <= 1/2
        x = (2 * a * _pi_fixed(B)) // (b << _HALVINGS)
        x2 = (x * x) >> B
        c, term, j = one, one, 0
        while term:
            j += 2
            term = ((term * x2) >> B) // ((j - 1) * j)
            c += term if j % 4 == 0 else -term
        for _ in range(_HALVINGS):
            c = ((c * c) >> (B - 1)) - one
        err = (2 * j + 8) << (2 * _HALVINGS)
        half = 1 << (guard - 1)
        low, high = (c - err + half) >> guard, (c + err + half) >> guard
        if low == high:
            return low
        guard *= 2


@functools.cache
def cosine_points(n: int, precision: int = DEFAULT_PRECISION) -> Tuple[int, ...]:
    """The distinct punctured cosine points cos(2 pi k/n), 1 <= k <= n/2,
    as integers X_k = round(2^precision cos(2 pi k/n)), correctly rounded:
    |X_k - 2^precision cos(2 pi k/n)| < 1/2.  Point n-k equals point k, so
    each stands for two of the n-1 points, except k = n/2 for even n.

    With b = n for even n and b = 2n for odd n, every point is +-c_j,
    c_j = round(2^precision cos(2 pi j/b)) for 0 <= j <= b/4: point k is
    c_(mk) for mk <= b/4, m = b/n, and past that
    cos(2 pi k/n) = -cos(2 pi (b/2 - mk)/b) makes it -c_(b/2-mk).  For even
    n, b/2 - k is the point n/2 - k, so X_k = -X_(n/2-k) exactly.

    The c_j come from one rotation per level, in fixed point at
    B = precision + g bits, g = bit_length(4 s + 4) + 12 for the s = b//4
    steps.  The seed z_1 = x_1 + i y_1 is (cos theta, sin theta) for
    theta = 2 pi/b, with sin theta = cos(2 pi (b - 4)/(4b)), both
    correctly rounded by _cos_turns at B bits; from z_0 = 2^B,
    z_(j+1) = z_j z_1 / 2^B with each component rounded to nearest.  Let
    w_j = 2^B e^(i j theta) and e_j = |z_j - w_j|, so e_0 = 0.  Since
    |w_j| = 2^B, |z_1 - w_1| <= sqrt(2)/2 and so |z_1| <= 2^B + 1,
    z_(j+1) - w_(j+1) = (z_j - w_j) z_1/2^B + w_j (z_1 - w_1)/2^B + r_j
    with the rounding |r_j| <= sqrt(2)/2 gives
    e_(j+1) <= e_j (1 + 2^-B) + sqrt(2).  So e_j <= sqrt(2) j (1 + 2^-B)^j,
    which is below E_j = 2j + 1 since j < 2^63 <= 2^(B-13).  Each
    component of z_j is thus within E_j of 2^B cos(j theta) and
    2^B sin(j theta).  Ziv's test rounds x_j when x_j - E_j and x_j + E_j
    round alike; 2^g > 2^13 E_j, so a point fails it with probability
    below 2^-12, and then falls back to its own series,
    _cos_turns(j, b, precision).  Either way the point is correctly
    rounded (2^precision cos is never a half-integer, as _cos_turns
    notes).  The rotation is fixed-point integer arithmetic that reads
    no Chebyshev coefficient and no invariants code."""
    check_level(n)
    if precision < 64:
        raise ValueError("precision must be >= 64 bits")
    b = n if n % 2 == 0 else 2 * n
    steps = b // 4
    g = (4 * steps + 4).bit_length() + 12
    B = precision + g
    half, rnd = 1 << (g - 1), 1 << (B - 1)
    c = [1 << precision]  # c_0, the mirror of k = n/2
    if steps:
        cos1, sin1 = _cos_turns(1, b, B), _cos_turns(b - 4, 4 * b, B)
        x, y = 1 << B, 0
        for j in range(1, steps + 1):
            x, y = (x * cos1 - y * sin1 + rnd) >> B, (x * sin1 + y * cos1 + rnd) >> B
            err = _ROTATION_STEP_ERROR * j + 1
            cj = (x - err + half) >> g
            if cj != (x + err + half) >> g:
                cj = _cos_turns(j, b, precision)
            c.append(cj)
    m = b // n
    return tuple(c[m * k] if 4 * m * k <= b else -c[b // 2 - m * k]
                 for k in range(1, n // 2 + 1))


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
    """log2 of sum(2^l for l in logs), with no overflow; fsum rounds the
    sum once, so the result does not depend on the order of logs."""
    top = max(logs)
    return top + math.log2(math.fsum(2.0 ** (l - top) for l in logs))


def _log2_dyadic(man: int, exp: int) -> float:
    return math.log2(abs(man)) + exp


def float_eval(
    F: AdmissibleFormula, n: int, precision: int = DEFAULT_PRECISION
) -> Tuple[Fraction, Fraction]:
    """(value, bound): F at level n by one fixed-point pass over the
    distinct cosine points, and a bound on |value - F(n)|, both exact.
    The value is man * 2^exp as the pass's W + 64-bit mantissa cuts leave
    it.  There is no stable-range requirement, so this is also the
    below-threshold route.

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
    psi = F.psi_star
    H = psi.max_gen()
    e_max = max((sum(exps) for exps in psi.rows), default=0)
    if (2 * N * H * e_max) << 10 > 1 << W:
        raise ValueError(
            f"precision {W} is too low to bound the float error at n={n}; "
            "raise --precision"
        )
    K = 2 * N * H * e_max + len(psi.rows)

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
    # Each term is (row(N) prod P_i^e_i) 2^(W - W e) / den, floored once.
    psi_val, logs, log_den = 0, [0.0], math.log2(psi.den)
    for exps, row in psi.rows.items():
        cz = 0
        for a in reversed(row):
            cz = cz * N + a
        term = cz * math.prod(P[i] ** ei for i, ei in enumerate(exps) if ei)
        psi_val += (term << W >> (W * sum(exps))) // psi.den
        if cz:
            logs.append(math.log2(abs(cz)) - log_den
                        + sum(ei * lm for ei, lm in zip(exps, log_mu)))
    log_S = _log2_sum(logs)

    # Products: the value is man * 2^exp.
    man, exp = psi_val, -W
    log_kappas = [0.0]
    shift = W - 60
    for Q, mult in F.products:
        q = Q.specialize_z(N)
        qs = [(c << W) // q.den for c in reversed(q.row)]
        A = q.degree * (-(-sum(map(abs, q.row)) // q.den) + 2) + 1
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

    log_bound = log_S + G - W
    top = math.floor(log_bound)
    bound = Fraction(2.0 ** (log_bound - top)) * Fraction(2) ** top
    return man * Fraction(2) ** exp, bound


def exact_newton_powersums(n: int, d: int) -> List[Fraction]:
    """Power sums p_1..p_d of the punctured cosine points, derived from
    the series sum_r h_r s^r = 1 / prod_k (1 - alpha_k s) by Newton's
    identities, through the recurrence of coefficient extraction.  Never
    touches the parity-binomial formulas."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    if d < 0:
        raise ValueError("d must be nonnegative")
    # H_r = 2^r h_r and log sum_r H_r s^r = sum_k 2^k p_k s^k / k, so
    # k L_k = 2^k p_k over the denominator A = 1
    _, N = log_rows([UniPoly([H]) for H in h_global_series(n, d)], d)
    return [Fraction(row[0][1], 2**k) if row else Fraction(0)
            for k, row in enumerate(N[1:], start=1)]


@dataclass(frozen=True)
class CheckReport:
    """float_eval's value at one level against the exact value, all exact."""

    exact: Fraction
    value: Fraction
    residual: Fraction  # |value - exact|
    tolerance: Fraction
    passed: bool  # residual <= tolerance


def cross_check(
    F: AdmissibleFormula,
    n: int,
    tolerance: Optional[Fraction] = None,
    precision: int = DEFAULT_PRECISION,
) -> CheckReport:
    """Compare float_eval against the exact evaluation at level n.  The
    check passes when |float - exact| is at most the tolerance: by default
    float_eval's own error bound, else the given absolute tolerance,
    which must be nonnegative.  A default bound above 2^-32 |exact| for a
    nonzero exact value would let any value pass, 0 included, so it is
    refused with a ValueError that asks for more precision."""
    if tolerance is not None:
        tolerance = rat(tolerance)
        if tolerance < 0:
            raise ValueError(f"tolerance must be nonnegative, got {rat_str(tolerance)}")
    exact = evaluate(F, n).value
    value, bound = float_eval(F, n, precision)
    residual = abs(value - exact)
    if tolerance is None:
        if exact and bound * 2**32 > abs(exact):
            raise ValueError(
                f"precision {precision} is too low to bound the float error "
                f"below 2^-32 of the value at n={n}; raise --precision"
            )
        tolerance = bound
    return CheckReport(exact, value, residual, tolerance, residual <= tolerance)
