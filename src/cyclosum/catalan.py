"""Coefficient families of product factors, and complete symmetric sums
at cosine points.

A(t) = 2 / (1 + sqrt(1 - t^2)) is handled purely through the closed form
of its power coefficients a_l(n).  The global generating function of the
h_r values at level n is returned as the integers H_r = 2^r h_r, the
coefficients of (1 - 2s) A(2s)^n + 2 s^n up to s^n, read off term by
term from the ratio of consecutive coefficients; past s^n they continue
by the integer recurrence that the Chebyshev factorization of T_n - 1
gives.  Extraction reads log Q from exactcore.log_rows, which
also gives the oracle's Newton route its power sums, and emits the
integer rows of its PowerSumExpr over the one denominator A^r r!,
reduced once.  The Cauchy product (1 - t) A(t)^n, the stable closed form
of h_r and the full recurrence for the h_r series are test reference
code, in tests/reference.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

from .exactcore import convolve_add, log_rows, nonzero_entries
from .invariants import QPoly, vieta_lucas_coeffs
from .symfunc import PowerSumExpr, _trim


def catalan_a(l: int, n: int) -> Fraction:
    """Coefficient a_l(n) of t^(2l) in A(t)^n.

    Uses the product form n / (4^l l!) * prod_{j=l+1}^{2l-1} (n+j), which
    is defined for every integer n.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l == 0:
        return Fraction(1)
    prod = math.prod(range(n + l + 1, n + 2 * l))
    return Fraction(n * prod, 4**l * math.factorial(l))


def h_global_series(n: int, order: int) -> Tuple[int, ...]:
    """The integers H_r = 2^r h_r for r = 0..order, where h_r is the
    coefficient of s^r in the exact series
    sum_r h_r(alpha_{1,n}..alpha_{n-1,n}) s^r; exactcore.dyadic_str
    prints H_r / 2^r.

    With x_k = 2 alpha_{k,n} = 2 cos(2 pi k/n), the H_r are the
    coefficients of (1 - 2s)/B(s), where
    B(s) = s^n (C_n(1/s) - 2) = (1 - 2s) prod_{k=1}^{n-1} (1 - x_k s)
    and C_n(x) = 2 T_n(x/2) = sum_j beta_j x^(n-j) is the monic integer
    Vieta-Lucas polynomial, beta_(2k) = (-1)^k L_k (Mason & Handscomb,
    Chebyshev Polynomials, 2003, 2.3).

    Up to s^n, in closed form: u = (1 + sqrt(1 - 4 s^2))/2 solves
    u^2 - u + s^2 = 0, so 1/u = A(2s) and v = u/s has v + 1/v = 1/s.
    Then C_n(1/s) = v^n + v^(-n), and with y = (s/u)^n,
    B = u^n (1 - y)^2, hence
    (1 - 2s)/B = (1 - 2s) sum_{m>=0} (m+1) s^(mn) A(2s)^(n(m+1)),
    which is (1 - 2s) A(2s)^n + 2 s^n modulo s^(n+1).  The coefficient of
    s^(2l) in A(2s)^n is g_l = 4^l a_l(n) = n/(n+2l) C(n+2l, l), and
    g_(l+1) = g_l (n+2l)(n+2l+1) / ((l+1)(n+l+1)) is an exact integer
    division, so each H_r with r <= min(order, n) costs one multiply and
    one divide by small integers.

    Past s^n, reversing B gives
    H_r = -sum_{j=2}^{n} beta_j H_(r-j) with beta_n lowered by 2; the
    beta_j are built only when order > n.
    """
    if n < 2:
        raise ValueError("level n must be >= 2")
    if order < 0:
        raise ValueError("order must be nonnegative")
    top = min(order, n)
    H, g = [], 1  # (1 - 2s) A(2s)^n: g_l at s^(2l), -2 g_l at s^(2l+1)
    for l in range(top // 2 + 1):
        H += (g, -2 * g)
        g = g * (n + 2 * l) * (n + 2 * l + 1) // ((l + 1) * (n + l + 1))
    del H[top + 1:]
    if n <= order:
        H[n] += 2
    if n < order:
        beta = [0] * (n + 1)
        beta[::2] = vieta_lucas_coeffs(n)
        beta[n] -= 2
        steps = [(j, b) for j, b in enumerate(beta) if j >= 2 and b]
        for r in range(n + 1, order + 1):
            H.append(-sum(b * H[r - j] for j, b in steps))
    return tuple(H)


def extract_coefficient_family(Q: QPoly, r: int) -> PowerSumExpr:
    """Stable power-sum presentation of the coefficient of s^r in
    prod_j Q(z, s x_j), for a unit-normalized product factor Q.

    With L_l(z) the coefficients of log Q, the product is
    exp(sum_l L_l v_l s^l), whose s^r coefficient is the partition sum
    sum_{lambda |- r} prod_l L_l^(m_l) / m_l! * v_lambda, m_l the
    multiplicity of l in lambda (Macdonald, Symmetric Functions, I.2).
    Only the t-degree <= r part of Q matters, so a power series such as
    1/(1-t) enters truncated at t^r.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    A, N = log_rows(Q.coeffs, r)
    # With L_l = N_l / (l A^l), L_l^m / m! is the row N_l^m over
    # A^(l m) l^m m!; weights[l][m] = (l^m m!, N_l^m).  The parts of a leaf
    # sum to r, so its denominators l^m m! multiply to a divisor of r!, and
    # each leaf's row goes over the one denominator A^r r!.
    weights = [[(1, [(0, 1)])] for _ in range(r + 1)]
    for l in range(1, r + 1):
        if N[l]:
            for m in range(1, r // l + 1):
                den, w = weights[l][-1]
                w = nonzero_entries(convolve_add([], w, N[l]))
                weights[l].append((den * l * m, w))
    rf = math.factorial(r)
    rows = {}
    exps = [0] * r

    def walk(top: int, rest: int, den: int, row: list):
        # partitions of rest into parts <= top, largest part first
        if rest == 0:
            q = rf // den
            rows[_trim(exps)] = [q * x for x in row]
            return
        row = nonzero_entries(row)
        for l in range(min(top, rest), 0, -1):
            if not N[l]:
                continue
            # parts of size 1 come last, so they take all of the rest
            for m in range(1, rest // l + 1) if l > 1 else (rest,):
                exps[l - 1] = m
                wden, w = weights[l][m]
                walk(l - 1, rest - m * l, den * wden, convolve_add([], row, w))
            exps[l - 1] = 0

    walk(r, r, 1, [1])
    del walk  # it refers to itself: free its rows now, not at the next gc run
    # Decreasing lexicographic order of (m_1, m_2, ...): the term order of
    # a parsed h(r) or e(r), which tests/test_cli_golden.py pins.
    return PowerSumExpr.from_rows(A**r * rf, {k: rows[k] for k in sorted(rows, reverse=True)})


def h_family(r: int) -> PowerSumExpr:
    """The h_r family as extracted from Q(t) = 1/(1-t), truncated at t^r."""
    return extract_coefficient_family(QPoly([1] * (r + 1)), r)
