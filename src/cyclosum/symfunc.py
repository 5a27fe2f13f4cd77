"""Symmetric polynomials in the power-sum basis over Q[z].

PowerSumExpr is a polynomial in abstract generators v_1..v_d (the power
sums p_1..p_d) with UniPoly('z') coefficients; its substitute is the one
exact evaluation kernel, over integer power sums and an integer z.
SymMonomialPoly stores a concrete symmetric polynomial in m variables in
the monomial-symmetric (partition-indexed) basis.  The reduction
algorithm converts between the two by leading-partition elimination in
graded-lex order.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Tuple

from .exactcore import UniPoly, rat, rat_str

ZVAR = "z"


def coeff_poly(c) -> UniPoly:
    """Coerce a scalar or polynomial to a coefficient in Q[z]."""
    if isinstance(c, UniPoly):
        return c if c.var == ZVAR else c.with_var(ZVAR)
    return UniPoly.const(rat(c), ZVAR)


def z_poly() -> UniPoly:
    return UniPoly.gen(ZVAR)


class BelowStableCountError(ValueError):
    pass


class NotSymmetricError(ValueError):
    pass


def _trim(exps) -> Tuple[int, ...]:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


class PowerSumExpr:
    """Polynomial in generators v_1, v_2, ... over Q[z].

    terms maps trimmed exponent tuples (e_1, e_2, ...) to nonzero
    UniPoly('z') coefficients; the weighted degree of a monomial is
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

    def __setattr__(self, name, value):
        raise AttributeError("PowerSumExpr is immutable")

    @classmethod
    def const(cls, c) -> "PowerSumExpr":
        return cls({(): coeff_poly(c)})

    @classmethod
    def zero(cls) -> "PowerSumExpr":
        return cls({})

    @classmethod
    def gen(cls, r: int) -> "PowerSumExpr":
        if r < 1:
            raise ValueError("generator index must be >= 1")
        return cls({(0,) * (r - 1) + (1,): UniPoly.const(1, ZVAR)})

    @classmethod
    def z(cls) -> "PowerSumExpr":
        return cls({(): z_poly()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == () for k in self.terms)

    @property
    def weighted_degree(self) -> int:
        """Max over monomials of sum_r r*e_r (0 for constants and zero)."""
        if not self.terms:
            return 0
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
            out[k] = out.get(k, UniPoly((), ZVAR)) + c
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
        # Each key's z-coefficients accumulate in one list, skipping zero
        # entries, so a sparse coefficient costs only its nonzero products.
        out: Dict[Tuple[int, ...], list] = {}
        for ka, ca in self.terms.items():
            for kb, cb in o.terms.items():
                n = max(len(ka), len(kb))
                key = tuple(
                    (ka[i] if i < len(ka) else 0) + (kb[i] if i < len(kb) else 0)
                    for i in range(n)
                )
                row = out.setdefault(key, [])
                row.extend([0] * (len(ca.coeffs) + len(cb.coeffs) - 1 - len(row)))
                for i, a in enumerate(ca.coeffs):
                    if a:
                        for j, b in enumerate(cb.coeffs):
                            if b:
                                row[i + j] += a * b
        return PowerSumExpr({k: UniPoly(row, ZVAR) for k, row in out.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = PowerSumExpr.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

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
        coefficients of L*c in z).  Built on first use and kept, because
        one formula is evaluated at many levels."""
        try:
            return self._scaled
        except AttributeError:
            pass
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
        sign = 1 if v > 0 else -1
        v = abs(v)
        if k == 0:
            return sign, rat_str(v)
        zpart = "z" if k == 1 else f"z^{k}"
        if v == 1:
            return sign, zpart
        return sign, f"{rat_str(v)}*{zpart}"
    from .exactcore import poly_str

    return 1, f"({poly_str(c)})"


def render_powersum(psi: PowerSumExpr) -> str:
    """Text form over tokens p1..pd and z, e.g. "z*p2 - p1^2"."""
    if psi.is_zero():
        return "0"
    parts = []
    for exps in sorted(psi.terms, key=_term_sort_key):
        c = psi.terms[exps]
        gens = []
        for i, e in enumerate(exps):
            if e == 1:
                gens.append(f"p{i + 1}")
            elif e > 1:
                gens.append(f"p{i + 1}^{e}")
        sign, ctext = _coeff_parts(c)
        if gens:
            body = "*".join(gens) if ctext == "1" else "*".join([ctext] + gens)
        else:
            body = ctext
        if not parts:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Concrete symmetric polynomials in m variables
# ---------------------------------------------------------------------------

RawDict = Dict[Tuple[int, ...], UniPoly]


def _raw_add(a: RawDict, b: RawDict) -> RawDict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _raw_mul(a: RawDict, b: RawDict) -> RawDict:
    out: RawDict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            c = ca * cb
            s = out.get(key)
            out[key] = c if s is None else s + c
    return {k: c for k, c in out.items() if not c.is_zero()}


def _partition_of(key: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sorted((e for e in key if e), reverse=True))


def _orbit(partition: Tuple[int, ...], m: int):
    """Distinct exponent vectors of length m in the orbit of a partition."""
    padded = tuple(partition) + (0,) * (m - len(partition))
    return set(itertools.permutations(padded))


class SymMonomialPoly:
    """Symmetric polynomial in m variables, stored per monomial orbit.

    terms maps partitions (weakly decreasing tuples of parts >= 1, length
    <= m) to UniPoly('z') coefficients; a partition lam stands for the
    orbit sum m_lam(x_1..x_m).
    """

    __slots__ = ("m", "terms")

    def __init__(self, m: int, terms: Dict[Tuple[int, ...], UniPoly] = None):
        if m < 1:
            raise ValueError("variable count must be >= 1")
        clean = {}
        for lam, c in (terms or {}).items():
            c = coeff_poly(c)
            if c.is_zero():
                continue
            lam = tuple(lam)
            if lam != tuple(sorted(lam, reverse=True)) or any(p < 1 for p in lam):
                raise ValueError(f"not a partition: {lam}")
            if len(lam) > m:
                raise ValueError(f"partition {lam} has more parts than variables")
            clean[lam] = c
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymMonomialPoly is immutable")

    @classmethod
    def from_monomials(cls, m: int, raw: RawDict, check: bool = True):
        """Collect a raw exponent-vector dict into orbit form.

        With check=True, verifies the input is genuinely symmetric.
        """
        groups: Dict[Tuple[int, ...], list] = {}
        for key, c in raw.items():
            if len(key) != m:
                raise ValueError("exponent vector length does not match m")
            if c.is_zero():
                continue
            groups.setdefault(_partition_of(key), []).append((key, c))
        terms = {}
        for lam, entries in groups.items():
            rep = entries[0][1]
            if check:
                orbit = _orbit(lam, m)
                if len(entries) != len(orbit) or any(c != rep for _, c in entries):
                    raise NotSymmetricError(
                        f"input is not symmetric at orbit {lam}"
                    )
            terms[lam] = rep
        return cls(m, terms)

    def to_monomials(self) -> RawDict:
        raw: RawDict = {}
        for lam, c in self.terms.items():
            for key in _orbit(lam, self.m):
                raw[key] = c
        return raw

    @property
    def total_degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def _coerce(self, other):
        if isinstance(other, SymMonomialPoly):
            if other.m != self.m:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, (int, Fraction, UniPoly)):
            c = coeff_poly(other)
            return SymMonomialPoly(self.m, {(): c} if not c.is_zero() else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for lam, c in o.terms.items():
            out[lam] = out.get(lam, UniPoly((), ZVAR)) + c
        return SymMonomialPoly(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return SymMonomialPoly(self.m, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        raw = _raw_mul(self.to_monomials(), o.to_monomials())
        return SymMonomialPoly.from_monomials(self.m, raw, check=False)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.m == o.m and self.terms == o.terms

    def __hash__(self):
        return hash((self.m, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, lam) -> UniPoly:
        return self.terms.get(tuple(lam), UniPoly((), ZVAR))

    def __repr__(self):
        return f"SymMonomialPoly(m={self.m}, terms={self.terms!r})"


def _grlex_key(lam: Tuple[int, ...]):
    return (sum(lam), lam)


def _power_sum_raw(r: int, m: int) -> RawDict:
    one = UniPoly.const(1, ZVAR)
    out: RawDict = {}
    for j in range(m):
        key = tuple(r if i == j else 0 for i in range(m))
        out[key] = one
    return out


def expand(psi: PowerSumExpr, m: int) -> SymMonomialPoly:
    """Substitute v_r := p_r(x_1..x_m) and expand into the orbit basis."""
    if m < 1:
        raise ValueError("variable count must be >= 1")
    zero_key = (0,) * m
    total: RawDict = {}
    for exps, c in psi.terms.items():
        term: RawDict = {zero_key: c}
        for i, e in enumerate(exps):
            if e:
                pr = _power_sum_raw(i + 1, m)
                for _ in range(e):
                    term = _raw_mul(term, pr)
        total = _raw_add(total, term)
    return SymMonomialPoly.from_monomials(m, total, check=False)


def reduce_to_powersum(G: SymMonomialPoly, d: int) -> PowerSumExpr:
    """Unique power-sum presentation of G, valid because m >= d.

    Processes the leading partition of G in decreasing graded-lex order,
    cancelling it with the matching product of power sums.
    """
    if G.m < d:
        raise BelowStableCountError(
            f"below stable variable count: m={G.m} < d={d}"
        )
    if G.total_degree > d:
        raise ValueError(
            f"total degree {G.total_degree} exceeds the declared bound {d}"
        )
    result: Dict[Tuple[int, ...], UniPoly] = {}
    rem = G
    while not rem.is_zero():
        lam = max(rem.terms, key=_grlex_key)
        c = rem.terms[lam]
        if lam == ():
            result[()] = result.get((), UniPoly((), ZVAR)) + c
            rem = rem - SymMonomialPoly(G.m, {(): c})
            continue
        exps = [0] * lam[0]
        for part in lam:
            exps[part - 1] += 1
        mono = PowerSumExpr({tuple(exps): UniPoly.const(1, ZVAR)})
        prod = expand(mono, G.m)
        lead = prod.coeff(lam)
        # leading coefficient of p_lam on the orbit m_lam is a positive integer
        factor = 1 / lead.constant()
        coeff = c.scale(factor)
        result[tuple(exps)] = result.get(tuple(exps), UniPoly((), ZVAR)) + coeff
        rem = rem - SymMonomialPoly(
            G.m, {mu: cc.scale(factor) * c for mu, cc in prod.terms.items()}
        )
    return PowerSumExpr(result)


def truncation_check(psi: PowerSumExpr, m: int) -> bool:
    """Verify expand(psi, m+1) with the last variable set to 0 equals
    expand(psi, m).  Always true for genuine power-sum expressions."""
    big = expand(psi, m + 1)
    shrunk = {lam: c for lam, c in big.terms.items() if len(lam) <= m}
    return SymMonomialPoly(m, shrunk) == expand(psi, m)
