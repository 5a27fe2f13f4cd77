"""Universal invariants of the punctured cosine configuration.

Parity binomials, the heat-kernel cosine/sine power sums C(n,h) and
S(n,h), the punctured power sums P_h(n), the integer coefficients of
the Chebyshev polynomial T_n, the punctured minimal polynomial W_n, and
multiplicative invariants M_Q(n).  M_Q never builds W_n: the factors
t - 1 of Q split off through W_n(1) = n^2/2^(n-1), T_n is reduced
modulo the rest by doubling, and one resultant of degree at most deg Q
finishes it.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from fractions import Fraction
from typing import List, Sequence

from .exactcore import (TVAR, UniPoly, coeff_term, convolve_add, join_terms, power_str,
                        primitive_row, reduce_rows, resultant)


class InternalConsistencyError(AssertionError):
    pass


# For Q of degree D at z = n - 1, with coefficients over the common
# denominator L and C/L the sum of their absolute values, (L 2^D)^(n-1) M_Q(n)
# is an integer and |M_Q(n)| <= (C/L)^(n-1), since |alpha_k| <= 1.  Computing
# M_Q peaked at 2.6 bytes per bit of its value (1 + z*t - 3*t^3 at n = 10^5),
# so a level whose bound passes 2^29 bits (a peak near 1.4 GB) is refused
# with MemoryError before any work.
MAX_MQ_BITS = 2**29


def check_level(n: int) -> None:
    """Refuse a level below 2, or one too large for a list size, with the
    error that building a list of n entries would raise."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    if n > sys.maxsize:
        raise OverflowError("cannot fit 'int' into an index-sized integer")


def _stride_binomials(n: int, h: int):
    """Yield (r, C(h, (r n + h)/2)) for |r| <= h // n with r n + h even,
    in increasing r.

    Along the stride u -> u + s (s = n/2 for even n, s = n for odd n)
    each binomial follows from the previous one by the exact integer
    ratio C(h, u + s) = C(h, u) (h-u)...(h-u-s+1) / ((u+1)...(u+s)).
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    bound = h // n
    r = -bound
    if (r * n + h) % 2:
        if n % 2 == 0:
            return  # r n + h is odd for every r
        r += 1
    step = 1 if n % 2 == 0 else 2
    s = step * n // 2
    u = (r * n + h) // 2
    b = math.comb(h, u)
    while True:
        yield r, b
        r += step
        if r > bound:
            return
        b = b * math.prod(range(h - u - s + 1, h - u + 1)) // math.prod(
            range(u + 1, u + s + 1)
        )
        u += s


def cos_power_sum(n: int, h: int) -> Fraction:
    """C(n,h) = sum_{k=0}^{n-1} cos^h(2 pi k / n), exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = sum(b for _, b in _stride_binomials(n, h))
    return Fraction(n, 2**h) * total


def sin_power_sum(n: int, h: int) -> Fraction:
    """S(n,h) via the accumulator sum_r i^(rn) b_r.

    i^(rn) is +-1 for even rn and +-i for odd rn, so the real and
    imaginary parts are tracked as integers.  The imaginary part must
    cancel exactly; a nonzero residue indicates an internal bug and raises.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    re = im = 0
    for r, b in _stride_binomials(n, h):
        k = r * n
        signed = b if k % 4 < 2 else -b
        if k % 2:
            im += signed
        else:
            re += signed
    if im != 0:
        raise InternalConsistencyError(
            f"sin power sum has nonzero imaginary part {im} at (n={n}, h={h})"
        )
    return Fraction(n, 2**h) * re


def punctured_power_sum(n: int, h: int) -> int:
    """P_h(n) = 2^h (C(n,h) - 1) = n sum_r b_r - 2^h, an integer; exact in
    every regime of n and h."""
    if n < 2:
        raise ValueError("level n must be >= 2")
    return n * sum(b for _, b in _stride_binomials(n, h)) - 2**h


def vieta_lucas_coeffs(n: int) -> List[int]:
    """(-1)^k L_k with L_k = C(n-k, k) + C(n-k-1, k-1) for
    0 <= k <= n/2: the signed coefficients of the Vieta-Lucas
    polynomial 2 T_n(x/2) = sum_k (-1)^k L_k x^(n-2k), so that
    T_n(t) = sum_k (-1)^k L_k 2^(n-2k-1) t^(n-2k) for n >= 1
    (Mason & Handscomb, Chebyshev Polynomials, 2003, 2.3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [1] + [(-1) ** k * (math.comb(n - k, k) + math.comb(n - k - 1, k - 1))
                  for k in range(1, n // 2 + 1)]


def punctured_min_poly(n: int) -> UniPoly:
    """W_n(t) = prod_{k=1}^{n-1} (t - cos(2 pi k/n)), monic of degree n-1,
    from the factorization T_n(t) - 1 = 2^(n-1) (t-1) W_n(t).

    T_n's integer coefficient at t^(n-2k) is (-1)^k L_k 2^(n-2k-1).  The
    quotient of T_n - 1 by t - 1 has their suffix sums as its
    coefficients, and T_n(1) = 1 leaves no remainder.
    """
    check_level(n)
    c = [0] * (n + 1)
    for k, v in enumerate(vieta_lucas_coeffs(n)):
        j = n - 2 * k
        c[j] = v << j >> 1  # v 2^(j-1), an integer: at j = 0, v = +-2
    quotient = list(accumulate(c[:0:-1]))[::-1]  # c_j + ... + c_n for j >= 1
    if quotient[0] + c[0] != 1:
        raise InternalConsistencyError(f"T_{n} - 1 not divisible by t - 1")
    lead = 2 ** (n - 1)
    if quotient[-1] != lead or len(quotient) != n:
        raise InternalConsistencyError(f"W_{n} is not monic of degree {n - 1}")
    return UniPoly.from_row(lead, quotient)


class QPoly:
    """Unit-normalized product factor: a polynomial in t with Q[z]
    coefficients and constant term identically 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [c if isinstance(c, UniPoly) else UniPoly([c]) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        if not cs or cs[0] != UniPoly([1]):
            raise ValueError("product factor not unit-normalized: Q(z,0) != 1")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    def specialize_z(self, value) -> UniPoly:
        """Evaluate the z-dependence, leaving a plain polynomial in t."""
        return UniPoly([c(value) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return join_terms(coeff_term(c, [power_str(TVAR, k)] if k else [])
                          for k, c in enumerate(self.coeffs) if not c.is_zero())

    def __repr__(self):
        return f"QPoly({self!s})"


def _lucas_mod(a: list, n: int):
    """(row, den) with C_n mod a = row / den, where C_n(x) = 2 T_n(x/2)
    and a holds the integer coefficients of a polynomial of degree
    D >= 1.  From C_0 = 2 and C_1 = x the doubling rules
    C_2m = C_m^2 - 2 and C_2m+1 = C_m C_m+1 - x run on integer rows: b is
    the primitive row of a, with leading coefficient l > 0, a residue is
    (e, row) for row / l^e with 1 to D entries in row, and reduce_rows
    pseudo-divides by b.
    """
    b, _ = primitive_row(a)
    lead, D = b[-1], len(b) - 1

    def reduced(e, row):
        return e + max(0, len(row) - D), reduce_rows(row, b)

    def product_minus(u, v, w):  # u v - w
        (eu, ru), (ev, rv), (ew, rw) = u, v, w
        row = convolve_add([0] * len(rw), [*enumerate(ru)], [*enumerate(rv)])
        p = lead ** (eu + ev - ew)
        for i, x in enumerate(rw):
            row[i] -= x * p
        return reduced(eu + ev, row)

    c0, c1 = (0, [2]), reduced(0, [0, 1])
    lo, hi = c0, c1  # C_m and C_m+1, from m = 0 through the bits of n
    for bit in bin(n)[2:]:
        mid = product_minus(lo, hi, c1)
        if bit == "1":
            lo, hi = mid, product_minus(hi, hi, c0)
        else:
            lo, hi = product_minus(lo, lo, c0), mid
    e, row = lo
    return row, lead**e


def multiplicative_invariant(Q: QPoly, n: int) -> Fraction:
    """M_Q(n) = prod_{k=1}^{n-1} Q(n-1, alpha_{k,n}), exactly, without
    building W_n.

    With z specialized to n - 1, each factor t - 1 of Q is split off
    first, since prod_k (alpha_k - 1) = (-1)^(n-1) W_n(1) with
    W_n(1) = n^2/2^(n-1).  The rest Q' has Q'(1) != 0, degree D, leading
    coefficient c and roots beta_i, so M_Q' = c^(n-1) (-1)^((n-1) D)
    prod_i W_n(beta_i).  In x = 2t, A(x) = 2^D Q'(x/2) has the roots
    2 beta_i and C_n(x) = 2 T_n(x/2), so T_n - 1 = 2^(n-1) (t - 1) W_n
    reads C_n(2 beta) - 2 = 2^(n-1) (2 beta - 2) W_n(beta).  With
    S = (C_n - 2) mod A, of degree below D, that gives
    M_Q' = (-1)^(nD) c^(n - deg S) res(A, S) / (2^(nD) Q'(1)): one
    resultant of degree at most D, and 0 when S = 0.  A constant Q' = c
    gives c^(n-1).  C_n mod A takes O(D^2 log n) operations by doubling
    (_lucas_mod); the resultant follows Euclid's rule by reduction modulo
    the smaller polynomial (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 6).
    """
    check_level(n)
    spec = Q.specialize_z(n - 1)
    L, q = spec.den, list(spec.row)
    C = sum(map(abs, q))
    if (n - 1) * (C.bit_length() + L.bit_length() + 2 * len(q)) > MAX_MQ_BITS:
        raise MemoryError(f"M_Q at level {n} may need more than {MAX_MQ_BITS} bits")
    value = Fraction(1)
    while sum(q) == 0:  # Q = (t - 1) Q', Q' the suffix sums of Q
        q = list(accumulate(q[:0:-1]))[::-1]
        value *= Fraction(n * n if n % 2 else -n * n, 1 << (n - 1))
    if len(q) == 1:
        return value * Fraction(q[0], L) ** (n - 1)
    D = len(q) - 1
    a = [c << (D - k) for k, c in enumerate(q)]  # L 2^D Q'(x/2)
    row, den = _lucas_mod(a, n)
    row[0] -= 2 * den
    S = UniPoly.from_row(den, row)
    if S.is_zero():
        return Fraction(0)
    sign = -1 if n * D % 2 else 1  # (-1)^((n-1) D) / (-1)^D
    return (value * sign * Fraction(q[-1], L) ** (n - S.degree)
            * resultant(UniPoly.from_row(L, a), S) * L / (sum(q) << (n * D)))
