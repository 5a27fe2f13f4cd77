"""Exact arithmetic substrate: rationals, dense univariate polynomials
held as one denominator and an integer row, the one remainder loop and
the resultant by Euclid's remainders, the integer accumulate and
multiply-accumulate of integer rows, and the integer rows of log q, the
one recurrence behind both coefficient extraction and Newton's
identities for W_n.

It also owns every text form of an exact value, which only the CLI
prints: a rational as "a/b" (rat_str), a/2^r without a gcd (dyadic_str),
a rational correctly rounded to decimal digits (decimal_str), a
polynomial in a named variable (poly_str) and the one renderer of a
term with a Q[z] coefficient.  (The truncated power series of the
trunk congruence are test reference code, in tests/reference.py.)

Everything here is immutable after construction and all operations are
pure, so values can be shared freely between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable


def rat(x) -> Fraction:
    """Coerce ints and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def rat_str(q: int | Fraction) -> str:
    """Canonical text form "a/b", or "a" when the denominator is 1; an
    int prints with no Fraction made of it."""
    if type(q) is int:
        return _int_str(q)
    q = rat(q)
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def dyadic_str(a: int, r: int) -> str:
    """rat_str(Fraction(a, 2**r)) for r >= 0, with no gcd: the power of
    two cancels by the trailing zero bits of a."""
    if not a:
        return "0"
    z = (a & -a).bit_length() - 1
    if z >= r:
        return _int_str(a >> r)
    return f"{_int_str(a >> z)}/{_int_str(1 << (r - z))}"


def decimal_str(x: Fraction, dps: int) -> str:
    """x in decimal, correctly rounded to dps significant digits, half
    away from zero: fixed point for a leading digit at 10^e with
    min(-(dps//3), -5) < e < dps and an exponent otherwise, and trailing
    zeros stripped."""
    if not x:
        return "0.0"
    num, den = abs(x.numerator), x.denominator
    # q = floor(|x| 10^(dps-1-e)) has dps digits exactly when
    # 10^e <= |x| < 10^(e+1); the estimate of e can be off by more than 1
    e = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    while True:
        s = dps - 1 - e
        scaled_num, scaled_den = (num * 10**s, den) if s >= 0 else (num, den * 10**-s)
        q, r = divmod(scaled_num, scaled_den)
        if q < 10 ** (dps - 1):
            e -= 1
        elif q >= 10**dps:
            e += 1
        else:
            break
    if 2 * r >= scaled_den:
        q += 1
        if q == 10**dps:  # a carry through nines
            q, e = q // 10, e + 1
    digits, split = str(q), 1
    if min(-(dps // 3), -5) < e < dps:
        if e < 0:
            digits = "0" * -e + digits
        else:
            split = e + 1
        e = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits[-1] == ".":
        digits += "0"
    sign = "-" if x < 0 else ""
    if e == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if e > 0 else ''}{e}"


def _int_str(a: int) -> str:
    """Decimal digits of a at any length.  str() refuses integers past
    the interpreter's digit limit (4,300 by default, at least 640), so
    long ones are split by divmod by 10^m into halves of under 600
    digits each."""
    if a.bit_length() <= 1990:  # below 600 digits
        return str(a)
    if a < 0:
        return "-" + _int_str(-a)
    m = a.bit_length() * 3 // 20  # about half of the digits
    hi, lo = divmod(a, 10**m)
    return _int_str(hi) + _int_str(lo).zfill(m)


class ZeroDivisorError(ZeroDivisionError):
    pass


class UniPoly:
    """Dense univariate polynomial over Q: row[k] / den is the coefficient
    of x**k, for den > 0 and integers row with no trailing zero (the zero
    polynomial has degree -1) and gcd(den, *row) = 1, so equality and
    hashing are structural.  The value holds no variable name: poly_str
    names the variable when the polynomial is printed."""

    __slots__ = ("den", "row")

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        _canonical(self, den, [c.numerator * (den // c.denominator) for c in cs])

    @classmethod
    def from_row(cls, den: int, row: list) -> "UniPoly":
        """row / den for den > 0 and a list of integers, which it consumes."""
        return _canonical(object.__new__(cls), den, row)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, built anew on each read."""
        return tuple(Fraction(x, self.den) for x in self.row)

    @property
    def degree(self) -> int:
        return len(self.row) - 1

    def is_zero(self) -> bool:
        return not self.row

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.row[k], self.den) if 0 <= k < len(self.row) else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly([other])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self.den, o.den)
        acc = [den // self.den * x for x in self.row]
        add_into(acc, o.row, den // o.den)
        return UniPoly.from_row(den, acc)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly.from_row(self.den, [-x for x in self.row])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.row or not o.row:
            return UniPoly()
        row = convolve_add([], nonzero_entries(self.row), nonzero_entries(o.row))
        return UniPoly.from_row(self.den * o.den, row)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self^k by J. C. P. Miller's recurrence for the powers of a power
        series (Knuth, TAOCP vol. 2, 4.7), on the integer row.  With
        row = x^j (a_0 + a_1 x + ... + a_m x^m), a_0 != 0: q_0 = a_0^k and
        i a_0 q_i = sum_{l=1}^{min(i, m)} ((k + 1) l - i) a_l q_(i-l) for
        1 <= i <= k m, an exact division, so self^k = x^(j k) q / den^k.
        A monomial leaves the sum empty, and the zero polynomial gives 0^k."""
        if k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        a = nonzero_entries(self.row) or [(0, 0)]
        (j, a0), m = a[0], a[-1][0] - a[0][0]
        tail = [(l - j, x) for l, x in a[1:]]
        q = [a0**k]
        for i in range(1, k * m + 1):
            s = sum(((k + 1) * l - i) * x * q[i - l] for l, x in tail if l <= i)
            q.append(s // (i * a0))
        return UniPoly.from_row(self.den**k, [0] * (j * k) + q)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.row == o.row

    def __hash__(self):
        return hash((self.den, self.row))

    def __call__(self, x) -> Fraction:
        """Value at a rational x = p/q by Horner's rule in integers: with m
        the degree, it is sum_k row_k p^k q^(m-k) over den q^m, one
        Fraction per call."""
        x = rat(x)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for c in reversed(self.row):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc * q, self.den * qk)  # qk = q^(m+1)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


def _canonical(p: UniPoly, den: int, row: list) -> UniPoly:
    """Set p to row / den, dropping trailing zeros and gcd(den, *row)."""
    while row and not row[-1]:
        row.pop()
    g = math.gcd(den, *row)
    object.__setattr__(p, "den", den // g)
    object.__setattr__(p, "row", tuple(row) if g == 1 else tuple(x // g for x in row))
    return p


def add_into(acc: list, row, m: int):
    """acc += m * row, entry by entry, extending acc with zeros."""
    acc.extend([0] * (len(row) - len(acc)))
    for i, x in enumerate(row):
        acc[i] += m * x


def nonzero_entries(row) -> list:
    """The (index, value) pairs of the nonzero entries of a sequence."""
    return [(i, x) for i, x in enumerate(row) if x]


def convolve_add(row: list, a, b) -> list:
    """row[i + j] += x * y over the entries (i, x) of a and (j, y) of b,
    nonempty lists of (index, value) pairs in increasing index, after
    extending row with zeros to the product's length; returns row.  The
    exact products pass nonzero_entries of integer rows over a common
    denominator, so they reduce once per output coefficient, not once per
    partial product; M_Q's doubling passes every entry of its residues."""
    row.extend([0] * (a[-1][0] + b[-1][0] + 1 - len(row)))
    for i, x in a:
        for j, y in b:
            row[i + j] += x * y
    return row


def log_rows(q, order: int):
    """(A, N) for the coefficients L_0..L_order of log q, where
    q = sum_j q_j t^j has the UniPoly coefficients q[j] in z and q_0 = 1
    (q_j = 0 past the end of q): A is the lcm of the denominators of
    q_0..q_order, and N[k] the nonzero entries of the integer row in z of
    A^k k L_k.

    From q * t (log q)' = t q', with d_j the integer row of -A^j q_j:
    N_k = -k d_k + sum_{j=1}^{k-1} d_j N_{k-j}.  For q = prod_i (1 - x_i t)
    these are Newton's identities, k L_k = -p_k(x) (Macdonald, Symmetric
    Functions, I.2)."""
    q = [q[j] if j < len(q) else UniPoly() for j in range(order + 1)]
    A = math.lcm(*(c.den for c in q))
    rows = [[-x * (A**j // c.den) for x in c.row] for j, c in enumerate(q)]
    d = [nonzero_entries(row) for row in rows]
    N = [[]]
    for k in range(1, order + 1):
        row = [-k * x for x in rows[k]]
        for j in range(1, k):
            if d[j] and N[k - j]:
                convolve_add(row, d[j], N[k - j])
        N.append(nonzero_entries(row))
    return A, N


# Variable names, given to a polynomial only when it is printed or parsed:
# t for W_n and product factors, n for eventual polynomials, z for Q[z].
TVAR = "t"
NVAR = "n"
ZVAR = "z"


def join_terms(terms) -> str:
    """Join (sign, body) pairs as "a + b - c": sign is any number whose
    sign the term takes, a negative first term prints as "-a", and the
    empty sum as "0"."""
    parts = []
    for sign, body in terms:
        if not parts:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(parts) or "0"


def power_str(var: str, k: int) -> str:
    """"var^k" for k >= 1, written "var" at k = 1."""
    return var if k == 1 else f"{var}^{k}"


def poly_str(p: UniPoly, var: str) -> str:
    """Text form "c_k*var^k + ..." in the named variable, with every
    rational coefficient written out."""
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        body = rat_str(abs(c))
        if k:
            body += "*" + power_str(var, k)
        terms.append((c, body))
    return join_terms(terms)


def coeff_term(c: UniPoly, factors: list) -> tuple:
    """(sign, body) of the nonzero term c*f_1*f_2... for a Q[z]
    coefficient c and the texts f_i of the other factors.  A monomial
    c = v z^k takes the sign of v and the body "|v|*z^k*f_1...", with a
    factor 1 left out unless it is all there is; any other c is written
    "(c)*f_1..." with sign +1."""
    nonzero = nonzero_entries(c.row)
    if len(nonzero) != 1:
        return 1, "*".join([f"({poly_str(c, ZVAR)})", *factors])
    (k, _), = nonzero
    v = c.coeff(k)
    body = [rat_str(abs(v))] if abs(v) != 1 or not (k or factors) else []
    if k:
        body.append(power_str(ZVAR, k))
    return v, "*".join(body + factors)


def primitive_row(row) -> tuple:
    """(p, g) for a nonzero integer row ending in a nonzero entry: the
    row p with coprime entries and a positive last entry, and the integer
    g with row = g * p."""
    g = math.gcd(*row) if row[-1] > 0 else -math.gcd(*row)
    return [x // g for x in row], g


def reduce_rows(a: list, b: list) -> list:
    """Reduce the integer row a in place modulo the integer row b of
    degree >= 1 by pseudo-division, and return it.  Each of the
    s = len(a) - deg b steps (none when a is shorter) replaces a by
    l a - f t^k b, l = lc(b), which cancels a's top term f t^(k + deg b),
    so a ends as l^s (a mod b)."""
    lead, tail = b[-1], b[:-1]
    for k in range(len(a) - len(b), -1, -1):
        f = a.pop()
        if lead != 1:
            a[:] = [lead * x for x in a]
        if f:
            for j, c in enumerate(tail, k):
                a[j] -= f * c
    return a


def resultant(a: UniPoly, b: UniPoly) -> Fraction:
    """Resultant of two nonzero polynomials, computed exactly.

    For monic a with roots alpha_i (with multiplicity) this equals
    prod_i b(alpha_i).  The rational contents come out first,
    res(c a, d b) = c^(deg b) d^(deg a) res(a, b), and Euclid runs on
    primitive integer rows: with deg a >= deg b >= 1,
    r = a mod b = g p / lc(b)^s for the s = deg a - deg b + 1 steps of
    reduce_rows and p primitive, and
    res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) res(b, r)
              = (-1)^(deg a deg b) lc(b)^(deg a - deg r - s deg b) g^(deg b) res(b, p)
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6).  A
    constant is the primitive row [1], and res(a, 1) = 1.
    """
    if a.is_zero() or b.is_zero():
        raise ZeroDivisorError("resultant of a zero polynomial")
    (ra, ga), (rb, gb) = primitive_row(a.row), primitive_row(b.row)
    acc = Fraction(ga, a.den) ** b.degree * Fraction(gb, b.den) ** a.degree
    a, b = ra, rb
    if len(a) < len(b):
        if (len(a) - 1) * (len(b) - 1) % 2:
            acc = -acc
        a, b = b, a
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        reduce_rows(a, b)
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return Fraction(0)
        a, g = primitive_row(a)
        if da * db % 2:
            acc = -acc
        acc *= Fraction(b[-1]) ** (da - (len(a) - 1) - (da - db + 1) * db) * g**db
        a, b = b, a
    return acc
