"""Symmetric polynomials in the power-sum basis over Q[z].

PowerSumExpr is a polynomial in abstract generators v_1..v_d (the power
sums p_1..p_d) with coefficients in Q[z].  Its exact kernels work on one
integer form, each term's z-coefficients scaled to integers over a
common denominator: substitute evaluates at integer power sums and an
integer z, and the product multiplies the integer rows and reduces once
per output coefficient.  By stable-range rigidity this presentation is
all the pipelines need; the monomial-orbit basis and the reduction into
power sums, which the tests compare against, live in tests/reference.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Dict, Tuple

from .exactcore import (ZVAR, UniPoly, convolve_add, join_terms, monomial_str,
                        nonzero_entries, poly_str, power, power_str, rat)


def coeff_poly(c) -> UniPoly:
    """Coerce a scalar or polynomial to a coefficient in Q[z]."""
    if isinstance(c, UniPoly):
        return c
    return UniPoly.const(c)


def _trim(exps) -> Tuple[int, ...]:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


class PowerSumExpr:
    """Polynomial in generators v_1, v_2, ... over Q[z].

    terms maps trimmed exponent tuples (e_1, e_2, ...) to nonzero
    coefficients in Q[z]; the weighted degree of a monomial is
    sum_r r*e_r.  Equality is structural (canonical form).  substitute
    evaluates at integer power sums P_h and an integer z only; the
    eventual polynomial in n is interpolated from such values.
    """

    __slots__ = ("terms", "_scaled")

    def __init__(self, terms: Dict[Tuple[int, ...], UniPoly] = None):
        clean: Dict[Tuple[int, ...], UniPoly] = {}
        for exps, c in (terms or {}).items():
            c = coeff_poly(c)
            if c.is_zero():
                continue
            key = _trim(exps)
            if key in clean:
                c = clean[key] + c
                if c.is_zero():
                    del clean[key]
                    continue
            clean[key] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_scaled", None)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSumExpr is immutable")

    @classmethod
    def const(cls, c) -> "PowerSumExpr":
        return cls({(): coeff_poly(c)})

    @classmethod
    def gen(cls, r: int) -> "PowerSumExpr":
        if r < 1:
            raise ValueError("generator index must be >= 1")
        return cls({(0,) * (r - 1) + (1,): UniPoly.const(1)})

    @classmethod
    def z(cls) -> "PowerSumExpr":
        return cls({(): UniPoly.gen()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == () for k in self.terms)

    @property
    def weighted_degree(self) -> int:
        """Max over monomials of sum_r r*e_r (0 for constants and zero)."""
        return max(
            (sum((i + 1) * e for i, e in enumerate(k)) for k in self.terms),
            default=0,
        )

    def _coerce(self, other):
        if isinstance(other, PowerSumExpr):
            return other
        if isinstance(other, (int, Fraction, UniPoly)):
            return PowerSumExpr.const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in o.terms.items():
            out[k] = out.get(k, UniPoly()) + c
        return PowerSumExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return PowerSumExpr({k: -c for k, c in self.terms.items()})

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
        # The integer rows of both factors (see _integer_terms) multiply
        # into one row per key over La*Lb, so each output coefficient is
        # reduced once.
        La, rows_a = self._integer_terms()
        Lb, rows_b = o._integer_terms()
        b = [(kb, nonzero_entries(rb)) for kb, (_, _, rb) in zip(o.terms, rows_b)]
        out: Dict[Tuple[int, ...], list] = {}
        for ka, (_, _, ra) in zip(self.terms, rows_a):
            ra = nonzero_entries(ra)
            for kb, rb in b:
                # entries past the shorter key come from the longer one
                key = tuple(map(add, ka, kb)) + (ka[len(kb):] or kb[len(ka):])
                convolve_add(out.setdefault(key, []), ra, rb)
        L = La * Lb
        return PowerSumExpr(
            {k: UniPoly([Fraction(x, L) for x in row]) for k, row in out.items()}
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, k, PowerSumExpr.const(1))

    def scale(self, c) -> "PowerSumExpr":
        c = rat(c)
        return PowerSumExpr({k: v.scale(c) for k, v in self.terms.items()})

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _integer_terms(self):
        """(L, rows): L is the lcm of the coefficient denominators and each
        row is (nonzero (index, exponent) pairs, weight, integer
        coefficients of L*c in z), in the order of terms.  substitute and
        the product read it; it is built on first use and kept, because
        one formula is evaluated at many levels and a factor of a power
        is multiplied more than once."""
        if self._scaled is not None:
            return self._scaled
        L = math.lcm(*(a.denominator for c in self.terms.values() for a in c.coeffs))
        rows = []
        for exps, c in self.terms.items():
            pairs = [(i, e) for i, e in enumerate(exps) if e]
            weight = sum((i + 1) * e for i, e in pairs)
            coeffs = [a.numerator * (L // a.denominator) for a in c.coeffs]
            rows.append((pairs, weight, coeffs))
        object.__setattr__(self, "_scaled", (L, rows))
        return L, rows

    def substitute(self, P, z: int) -> Fraction:
        """Exact value with v_h := P[h-1] / 2^h and z := z, for integers
        P[h-1] = P_h and z, where d = len(P) is at least the weighted
        degree.

        The sum is kept as one integer over the denominator L 2^d (see
        _integer_terms): each monomial prod P_h^e comes from a table of
        powers shared by all terms and is shifted left by d - weight.
        """
        d = len(P)
        L, rows = self._integer_terms()
        powers = [[1] for _ in P]  # powers[h-1][e] = P_h^e, filled on demand
        total = 0
        for pairs, weight, coeffs in rows:
            mono = 1
            for i, e in pairs:
                row = powers[i]
                while len(row) <= e:
                    row.append(row[-1] * P[i])
                mono *= row[e]
            cz = coeffs[-1]
            for a in reversed(coeffs[:-1]):
                cz = cz * z + a
            total += (cz * mono) << (d - weight)
        return Fraction(total, L << d)

    def max_gen(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def __str__(self):
        return render_powersum(self)

    def __repr__(self):
        return f"PowerSumExpr({self.terms!r})"


def _term_sort_key(exps: Tuple[int, ...]):
    wdeg = sum((i + 1) * e for i, e in enumerate(exps))
    return (-wdeg, tuple(-e for e in exps))


def _coeff_parts(c: UniPoly):
    """Split a Q[z] coefficient into (sign, text) when it is a single
    monomial; multi-term coefficients render parenthesized with sign +1."""
    nonzero = [(k, v) for k, v in enumerate(c.coeffs) if v]
    if len(nonzero) == 1:
        k, v = nonzero[0]
        return monomial_str(v, k, ZVAR)
    return 1, f"({poly_str(c, ZVAR)})"


def render_powersum(psi: PowerSumExpr) -> str:
    """Text form over tokens p1..pd and z, e.g. "z*p2 - p1^2"."""
    terms = []
    for exps in sorted(psi.terms, key=_term_sort_key):
        gens = [power_str(f"p{i + 1}", e) for i, e in enumerate(exps) if e]
        sign, ctext = _coeff_parts(psi.terms[exps])
        factors = gens if gens and ctext == "1" else [ctext] + gens
        terms.append((sign, "*".join(factors)))
    return join_terms(terms)
