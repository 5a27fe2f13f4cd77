"""Symmetric polynomials in the power-sum basis over Q[z].

PowerSumExpr is a polynomial in abstract generators v_1..v_d (the power
sums p_1..p_d) with coefficients in Q[z], held in one integer form, as a
UniPoly is: a positive denominator den and, per monomial, the integer
z-coefficients of den times its coefficient.  Sums, products and powers
work on these rows and reduce once per result; substitute evaluates at
integer power sums and integer z, for any number of levels from one flat
plan, and fold sets chosen generators to integer power sums, merging the
terms that then share a monomial.
By stable-range rigidity this presentation is all the pipelines need;
the monomial-orbit basis and the reduction into power sums, which the
tests compare against, live in tests/reference.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, repeat, zip_longest
from operator import add, lshift, mul
from typing import Dict, List, Tuple

from .exactcore import (UniPoly, add_into, coeff_term, convolve_add, join_terms,
                        nonzero_entries, power_str)


def _trim(exps) -> Tuple[int, ...]:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


def _store(psi: "PowerSumExpr", den: int, rows: dict) -> "PowerSumExpr":
    """Set psi to sum_k rows[k] / den, for trimmed keys and integer lists
    in z, in canonical form: zero rows and trailing zeros dropped, and den
    and the entries divided by their gcd."""
    for row in rows.values():
        while row and not row[-1]:
            row.pop()
    g = math.gcd(den, *(x for row in rows.values() for x in row))
    object.__setattr__(psi, "den", den // g)
    object.__setattr__(psi, "rows", {k: tuple(row) if g == 1 else tuple(x // g for x in row)
                                     for k, row in rows.items() if row})
    return psi


class PowerSumExpr:
    """Polynomial in generators v_1, v_2, ... over Q[z].

    rows maps trimmed exponent tuples (e_1, e_2, ...) to the nonzero,
    trimmed integer z-coefficients of den * c, for the coefficient c of
    that monomial; den > 0 and gcd(den, every entry) = 1, so equality is
    structural.  The weighted degree of a monomial is sum_r r*e_r.
    substitute evaluates at integer power sums P_h and an integer z only;
    the eventual polynomial in n is interpolated from such values, after
    fold has set the generators that stay constant in n to their values.
    """

    __slots__ = ("den", "rows")

    def __init__(self, terms: Dict[Tuple[int, ...], UniPoly] = None):
        """From a map of exponent tuples to coefficients in Q[z], each a
        UniPoly or a rational scalar; keys equal after trimming add up."""
        terms = {k: c if isinstance(c, UniPoly) else UniPoly([c])
                 for k, c in (terms or {}).items()}
        den = math.lcm(*(c.den for c in terms.values()))
        rows: Dict[Tuple[int, ...], list] = {}
        for exps, c in terms.items():
            add_into(rows.setdefault(_trim(exps), []), c.row, den // c.den)
        _store(self, den, rows)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSumExpr is immutable")

    @classmethod
    def from_rows(cls, den: int, rows: Dict[Tuple[int, ...], list]) -> "PowerSumExpr":
        """sum_k rows[k] / den for trimmed keys k and lists of integers in
        z, which may hold zeros and are consumed."""
        return _store(object.__new__(cls), den, rows)

    @classmethod
    def const(cls, c) -> "PowerSumExpr":
        return cls({(): c})

    @classmethod
    def gen(cls, r: int) -> "PowerSumExpr":
        if r < 1:
            raise ValueError("generator index must be >= 1")
        return cls({(0,) * (r - 1) + (1,): 1})

    @classmethod
    def z(cls) -> "PowerSumExpr":
        return cls({(): UniPoly([0, 1])})

    @property
    def terms(self) -> Dict[Tuple[int, ...], UniPoly]:
        """The coefficients as UniPolys over Q, built anew on each read."""
        return {k: UniPoly.from_row(self.den, list(row)) for k, row in self.rows.items()}

    @property
    def weighted_degree(self) -> int:
        """Max over monomials of sum_r r*e_r (0 for constants and zero)."""
        return max((sum(map(mul, k, count(1))) for k in self.rows), default=0)

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
        den = math.lcm(self.den, o.den)
        ma = den // self.den
        out = {k: [ma * x for x in row] for k, row in self.rows.items()}
        mb = den // o.den
        for k, row in o.rows.items():
            add_into(out.setdefault(k, []), row, mb)
        return PowerSumExpr.from_rows(den, out)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # one integer row per key over the product of the denominators,
        # reduced once for the whole result
        b = [(kb, nonzero_entries(rb)) for kb, rb in o.rows.items()]
        out: Dict[Tuple[int, ...], list] = {}
        for ka, ra in self.rows.items():
            ra = nonzero_entries(ra)
            for kb, rb in b:
                # entries past the shorter key come from the longer one
                key = tuple(map(add, ka, kb)) + (ka[len(kb):] or kb[len(ka):])
                convolve_add(out.setdefault(key, []), ra, rb)
        return PowerSumExpr.from_rows(self.den * o.den, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self^k by binary powering."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = PowerSumExpr.const(1), self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "PowerSumExpr":
        """c * self for an integer or Fraction c."""
        rows = {k: [c.numerator * x for x in row] for k, row in self.rows.items()}
        return PowerSumExpr.from_rows(self.den * c.denominator, rows)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.rows == o.rows

    def __hash__(self):
        return hash((self.den, frozenset(self.rows.items())))

    def substitute(self, levels) -> List[Fraction]:
        """Exact values with v_h := P[h-1] / 2^h and z := z, one for each
        level (P, z) of integers z and P[h-1] = P_h; P is read only at the
        generators that occur.

        One flat plan, made in one pass over the terms, serves every level.
        Slot e*m + i stands for x_i^e, with x_0 = z, x_i = P_i and m - 1
        the highest generator index.  Each (term, z^j) becomes one integer,
        its z^j coefficient shifted by W - w (w the weight of the term, the
        sum of e*i over its slots, and W the largest), paired with the list
        of its slots.  A level's table holds x_i^e for the slots in use, and
        its value is sum(coefficient * prod(table[slots])) over den 2^W.
        """
        m = self.max_gen() + 1
        coeffs, slots = [], []
        for exps, row in self.rows.items():
            powers = [e * m + i for i, e in enumerate(exps, 1) if e]
            for j, a in enumerate(row):
                if a:
                    coeffs.append(a)
                    slots.append([j * m, *powers] if j else powers)
        used = set().union(*slots)
        weight = {s: s // m * (s % m) for s in used}.__getitem__
        weights = list(map(sum, map(map, repeat(weight), slots)))
        W = max(weights, default=0)
        coeffs = list(map(lshift, coeffs, map(W.__sub__, weights)))
        den, values = self.den << W, []
        for P, z in levels:
            x = (z, *P)
            table = {s: x[s % m] ** (s // m) for s in used}.__getitem__
            monomials = map(math.prod, map(map, repeat(table), slots))
            values.append(Fraction(sum(map(mul, coeffs, monomials)), den))
        return values

    def fold(self, values: Dict[int, int]) -> "PowerSumExpr":
        """self with v_h := values[h] / 2^h for each h in values, from
        integers values[h] = P_h; the other generators stay, and terms
        that then share a monomial merge.

        With w the folded weight of a term and W the largest, the term
        adds row * (prod P_h^e) << (W - w) to its merged row over den 2^W,
        each power read from a table that the terms share.
        """
        folded = sorted(h - 1 for h in values)
        powers = {i: [1] for i in folded}  # powers[h-1][e] = P_h^e
        parts, W = [], 0
        for exps, row in self.rows.items():
            mono, w, key = 1, 0, None
            for i in folded:
                if i >= len(exps):
                    break
                e = exps[i]
                if e:
                    table = powers[i]
                    while len(table) <= e:
                        table.append(table[-1] * values[i + 1])
                    mono *= table[e]
                    w += (i + 1) * e
                    if key is None:
                        key = list(exps)
                    key[i] = 0
            parts.append((exps if key is None else _trim(key), mono, w, row))
            W = max(W, w)
        out: Dict[Tuple[int, ...], list] = {}
        for key, mono, w, row in parts:
            add_into(out.setdefault(key, []), row, mono << (W - w))
        return PowerSumExpr.from_rows(self.den << W, out)

    def max_gen(self) -> int:
        return max((len(k) for k in self.rows), default=0)

    def generators(self) -> List[int]:
        """The h whose generator v_h occurs, in increasing order."""
        columns = zip_longest(*self.rows, fillvalue=0)
        return [h for h, column in enumerate(columns, 1) if any(column)]

    def __str__(self):
        """Text form over tokens p1..pd and z, e.g. "z*p2 - p1^2"."""
        coeffs = self.terms
        return join_terms(
            coeff_term(coeffs[exps], [power_str(f"p{i + 1}", e) for i, e in enumerate(exps) if e])
            for exps in sorted(coeffs, key=_term_sort_key)
        )

    def __repr__(self):
        return f"PowerSumExpr({self.terms!r})"


def _term_sort_key(exps: Tuple[int, ...]):
    wdeg = sum((i + 1) * e for i, e in enumerate(exps))
    return (-wdeg, tuple(-e for e in exps))
