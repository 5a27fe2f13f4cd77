"""Reference code that only the tests run.

The library evaluates every family through its power-sum presentation.
The tests check it against the independent routes kept here:

- the monomial-orbit basis: a symmetric polynomial in m variables stored
  per orbit sum m_lam, expand (power sums to orbits) and
  reduce_to_powersum (orbits back to power sums, by leading-partition
  elimination in graded-lex order);
- the parity binomial binom(h, u) of the trigonometric power sums, and
  the stable closed form of P_h as a polynomial in n;
- the composition p(q) of two polynomials, which UniPoly's call (a
  value at a rational point) does not offer;
- the eventual polynomial with no generator folded, every term of
  psi_star substituted at each interpolation level;
- the Chebyshev polynomial T_n(t), the reference for W_n through
  T_n - 1 = 2^(n-1) (t - 1) W_n;
- the resultant as the determinant of the Sylvester matrix, the
  reference for the remainder sequence of exactcore.resultant, and
  M_Q(n) as the resultant of W_n against Q, the reference for the
  doubling route of multiplicative_invariant;
- truncated power series, the Catalan series A(t)^n, the stable closed
  form of h_r, the trunk congruence H_n(t) = (1 - t) A(t)^n and the h_r
  series by the integer recurrence over the Vieta-Lucas coefficients,
  the reference for the closed form of h_global_series;
- the sums and products with one Fraction operation per coefficient or
  partial product: the PowerSumExpr sum, product and powers, and the
  coefficient extraction with UniPoly weights, references for the
  library's integer routes and for the DSL's algebra;
- the power of a UniPoly by repeated products of integer rows, the
  reference for Miller's recurrence in UniPoly.__pow__;
- the cosine points with one Taylor series per point, the reference for
  the rotation of oracle.cosine_points.
"""

import itertools
import math
from fractions import Fraction

from cyclosum.catalan import catalan_a, h_global_series
from cyclosum.exactcore import UniPoly, resultant
from cyclosum.invariants import (InternalConsistencyError, punctured_min_poly,
                                 punctured_power_sum, vieta_lucas_coeffs)
from cyclosum.oracle import _cos_turns
from cyclosum.rigidity import _interpolate
from cyclosum.symfunc import PowerSumExpr

ONE = UniPoly([1])
ZERO = UniPoly()

# ---------------------------------------------------------------------------
# Symmetric polynomials in m variables, per monomial orbit
# ---------------------------------------------------------------------------


class BelowStableCountError(ValueError):
    pass


class NotSymmetricError(ValueError):
    pass


def _raw_add(a, b):
    """Sum of two dicts from exponent vectors to UniPoly('z')."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, ZERO) + c
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _raw_mul(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, ZERO) + ca * cb
    return {k: c for k, c in out.items() if not c.is_zero()}


def _orbit(partition, m):
    """Distinct exponent vectors of length m in the orbit of a partition."""
    return set(itertools.permutations(tuple(partition) + (0,) * (m - len(partition))))


class SymMonomialPoly:
    """Symmetric polynomial in m variables: terms maps partitions (weakly
    decreasing tuples of parts >= 1, at most m of them) to UniPoly('z')
    coefficients, a partition lam standing for the orbit sum m_lam."""

    def __init__(self, m, terms=None):
        if m < 1:
            raise ValueError("variable count must be >= 1")
        self.m = m
        self.terms = {}
        for lam, c in (terms or {}).items():
            c = c if isinstance(c, UniPoly) else UniPoly([c])
            if c.is_zero():
                continue
            lam = tuple(lam)
            if lam != tuple(sorted(lam, reverse=True)) or any(p < 1 for p in lam):
                raise ValueError(f"not a partition: {lam}")
            if len(lam) > m:
                raise ValueError(f"partition {lam} has more parts than variables")
            self.terms[lam] = c

    @classmethod
    def from_monomials(cls, m, raw, check=True):
        """Collect a dict from exponent vectors to coefficients into orbit
        form; with check=True, refuse an input that is not symmetric."""
        groups = {}
        for key, c in raw.items():
            if len(key) != m:
                raise ValueError("exponent vector length does not match m")
            if not c.is_zero():
                lam = tuple(sorted((e for e in key if e), reverse=True))
                groups.setdefault(lam, []).append(c)
        if check:
            for lam, cs in groups.items():
                if len(cs) != len(_orbit(lam, m)) or any(c != cs[0] for c in cs):
                    raise NotSymmetricError(f"input is not symmetric at orbit {lam}")
        return cls(m, {lam: cs[0] for lam, cs in groups.items()})

    def to_monomials(self):
        return {key: c for lam, c in self.terms.items() for key in _orbit(lam, self.m)}

    def __mul__(self, other):
        raw = _raw_mul(self.to_monomials(), other.to_monomials())
        return SymMonomialPoly.from_monomials(self.m, raw, check=False)

    def __eq__(self, other):
        return self.m == other.m and self.terms == other.terms


def expand(psi, m):
    """Substitute v_r := p_r(x_1..x_m) and expand into the orbit basis."""
    total = {}
    for exps, c in psi.terms.items():
        term = {(0,) * m: c}
        for i, e in enumerate(exps):
            p = {tuple(i + 1 if k == j else 0 for k in range(m)): ONE for j in range(m)}
            for _ in range(e):
                term = _raw_mul(term, p)
        total = _raw_add(total, term)
    return SymMonomialPoly.from_monomials(m, total, check=False)


def reduce_to_powersum(G, d):
    """Unique power-sum presentation of G, valid because m >= d.

    Cancels the leading partition lam of the remainder, in decreasing
    graded-lex order, with the matching product of power sums p_lam,
    whose coefficient on m_lam is a positive integer.
    """
    if G.m < d:
        raise BelowStableCountError(f"below stable variable count: m={G.m} < d={d}")
    degree = max((sum(lam) for lam in G.terms), default=0)
    if degree > d:
        raise ValueError(f"total degree {degree} exceeds the declared bound {d}")
    result = {}
    rem = dict(G.terms)
    while rem:
        lam = max(rem, key=lambda mu: (sum(mu), mu))
        exps = [0] * (lam[0] if lam else 0)
        for part in lam:
            exps[part - 1] += 1
        exps = tuple(exps)
        p_lam = expand(PowerSumExpr({exps: ONE}), G.m).terms
        coeff = rem[lam] * (1 / p_lam[lam].coeff(0))
        result[exps] = result.get(exps, ZERO) + coeff
        rem = _raw_add(rem, {mu: -c * coeff for mu, c in p_lam.items()})
    return PowerSumExpr(result)


def truncation_check(psi, m):
    """Verify expand(psi, m+1) with the last variable set to 0 equals
    expand(psi, m).  Always true for genuine power-sum expressions."""
    big = expand(psi, m + 1)
    shrunk = {lam: c for lam, c in big.terms.items() if len(lam) <= m}
    return SymMonomialPoly(m, shrunk) == expand(psi, m)


# ---------------------------------------------------------------------------
# Parity binomial
# ---------------------------------------------------------------------------


def parity_binom(h, u):
    """binom(h, u) when u is an integer in [0, h], else 0."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    u = Fraction(u)
    if u.denominator != 1 or not 0 <= u <= h:
        return 0
    return math.comb(h, u.numerator)


def punctured_power_sum_stable(h):
    """Stable-range closed form of P_h as a polynomial in n (valid n > h):
    n*binom(h, h/2) - 2^h for even h, the constant -2^h for odd h."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    if h % 2 == 0:
        return UniPoly([-(2**h), math.comb(h, h // 2)])
    return UniPoly([-(2**h)])


def compose(p, q):
    """p(q) for UniPolys p and q, by Horner's rule over UniPoly."""
    result = ZERO
    for c in reversed(p.coeffs):
        result = result * q + c
    return result


def eventual_unfolded(F):
    """The eventual polynomial with no generator folded: every term of
    psi_star is substituted at the D + 2 levels n_star, ..., n_star + D + 1,
    power sums by slope from n_star and n_star + 1, with D the largest
    deg c + (sum of the exponents of even generators); R interpolates the
    first D + 1 values and must meet the last."""
    D = max((len(row) - 1 + sum(exps[1::2]) for exps, row in F.psi_star.rows.items()),
            default=0)
    hs = range(1, F.d + 1)
    P = [punctured_power_sum(F.n_star, h) for h in hs]
    slopes = [punctured_power_sum(F.n_star + 1, h) - p for h, p in zip(hs, P)]
    values = F.psi_star.substitute(
        [([p + i * s for p, s in zip(P, slopes)], F.n_star - 1 + i) for i in range(D + 2)])
    R = _interpolate(F.n_star, values[:-1])
    if R(F.n_star + D + 1) != values[-1]:
        raise InternalConsistencyError("the unfolded route misses its extra level")
    return R


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------


def chebyshev_T(n):
    """Chebyshev polynomial of the first kind, T_n(t), from its closed form."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return UniPoly([1])
    coeffs = [0] * (n + 1)
    for k, v in enumerate(vieta_lucas_coeffs(n)):
        j = n - 2 * k
        coeffs[j] = v << j >> 1  # v 2^(j-1), an integer: at j = 0, v = +-2
    return UniPoly(coeffs)


# ---------------------------------------------------------------------------
# The resultant
# ---------------------------------------------------------------------------


def sylvester_resultant(a, b):
    """Resultant of two nonzero UniPoly as the determinant of their
    Sylvester matrix: deg b shifted rows of a's coefficients, then deg a
    shifted rows of b's, highest degree first, so that for monic a it is
    prod_i b(alpha_i).  The determinant is taken by Fraction Gaussian
    elimination with row swaps."""
    m, n = a.degree, b.degree
    rows = [[0] * k + list(a.coeffs[::-1]) + [0] * (n - 1 - k) for k in range(n)]
    rows += [[0] * k + list(b.coeffs[::-1]) + [0] * (m - 1 - k) for k in range(m)]
    det = Fraction(1)
    for col in range(m + n):
        pivot = next((i for i in range(col, m + n) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        top = rows[col]
        det *= top[col]
        for i in range(col + 1, m + n):
            f = rows[i][col] / top[col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
    return det


def mq_reference(Q, n):
    """M_Q(n) = prod_k Q(n-1, alpha_k) as the resultant of the monic W_n,
    of degree n - 1, against Q with z specialized to n - 1."""
    return resultant(punctured_min_poly(n), Q.specialize_z(n - 1))


# ---------------------------------------------------------------------------
# Truncated series, the Catalan series and the stable h_r
# ---------------------------------------------------------------------------


class Series:
    """Formal power series over Q truncated at an explicit order: coeffs[k]
    is the coefficient of var^k for 0 <= k <= order."""

    def __init__(self, coeffs, order, var="t"):
        cs = [Fraction(c) for c in coeffs[: order + 1]]
        self.coeffs = tuple(cs + [Fraction(0)] * (order + 1 - len(cs)))
        self.order = order
        self.var = var

    def __eq__(self, other):
        return self.order == other.order and self.coeffs == other.coeffs


def series_mul(a, b):
    """Exact Cauchy product, truncated at min(order(a), order(b))."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, ca in enumerate(a.coeffs[: n + 1]):
        for j in range(n + 1 - i):
            out[i + j] += ca * b.coeffs[j]
    return Series(out, n, a.var)


def a_power_series(n, order):
    """A(t)^n as an even series to the requested truncation order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [Fraction(0)] * (order + 1)
    for l in range(order // 2 + 1):
        coeffs[2 * l] = catalan_a(l, n)
    return Series(coeffs, order)


def h_stable(r):
    """Stable-range value of h_r at the punctured cosine points, as a
    polynomial in n (valid for integer n >= r+2); r >= 2.

    h_0 = 1 and h_1 = H1_VALUE are constants outside this pattern.
    """
    if r < 2:
        raise ValueError("h_stable is defined for r >= 2")
    m = r // 2
    poly = UniPoly([0, 1])
    for j in range(m + 1, 2 * m):
        poly = poly * UniPoly([j, 1])
    poly = poly * Fraction(1, 4**m * math.factorial(m))
    return -poly if r % 2 else poly


H1_VALUE = Fraction(-1)  # sum of the punctured cosine points, any n >= 2


def h_series_recurrence(n, order):
    """H_r = 2^r h_r for r <= order by the integer recurrence alone, the
    reference for h_global_series: the points 2 alpha_{k,n} are the roots
    other than 2 of 2 T_n(x/2) - 2 = sum_j beta_j x^(n-j), monic over the
    integers, beta_(2k) = (-1)^k L_k and beta_n lowered by 2, so reversing
    gives H_r = [r=0] - 2[r=1] - sum_{j=2}^{min(r,n)} beta_j H_(r-j)."""
    top = min(order, n)
    beta = [0] * (top + 1)
    beta[::2] = vieta_lucas_coeffs(n)[: top // 2 + 1]
    if n <= order:
        beta[n] -= 2
    steps = [(j, b) for j, b in enumerate(beta) if j >= 2 and b]
    H = [1, -2][: order + 1]
    for r in range(2, order + 1):
        H.append(-sum(b * H[r - j] for j, b in steps if j <= r))
    return tuple(H)


class TrunkRangeError(ValueError):
    pass


def verify_trunk(n, R):
    """Check H_n(t) = (1-t) A(t)^n modulo t^(R+1); requires n > R."""
    if n <= R:
        raise TrunkRangeError(f"outside the congruence range: need n > R, got n={n}, R={R}")
    rhs = series_mul(Series([1, -1], R), a_power_series(n, R))
    H = h_global_series(n, R)
    return tuple(Fraction(x, 2**r) for r, x in enumerate(H)) == rhs.coeffs


# ---------------------------------------------------------------------------
# Products over Fraction coefficients
# ---------------------------------------------------------------------------


def fraction_mul(a, b):
    """a * b for PowerSumExpr with a Fraction product per pair of nonzero
    z-coefficients, keys inserted in the order the library's product
    inserts them: the reference for PowerSumExpr.__mul__."""
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            n = max(len(ka), len(kb))
            key = tuple(
                (ka[i] if i < len(ka) else 0) + (kb[i] if i < len(kb) else 0)
                for i in range(n)
            )
            row = out.setdefault(key, [])
            row.extend([0] * (len(ca.coeffs) + len(cb.coeffs) - 1 - len(row)))
            for i, x in enumerate(ca.coeffs):
                if x:
                    for j, y in enumerate(cb.coeffs):
                        if y:
                            row[i + j] += x * y
    return PowerSumExpr({k: UniPoly(row) for k, row in out.items()})


def fraction_add(a, b):
    """a + b for PowerSumExpr with one Fraction addition per z-coefficient
    of a shared monomial: the reference for PowerSumExpr.__add__."""
    out = {k: list(c.coeffs) for k, c in a.terms.items()}
    for k, c in b.terms.items():
        row = out.setdefault(k, [])
        row.extend([Fraction(0)] * (len(c.coeffs) - len(row)))
        for i, x in enumerate(c.coeffs):
            row[i] += x
    return PowerSumExpr({k: UniPoly(row) for k, row in out.items()})


def fraction_power(base, k):
    """base^k by the binary powering of PowerSumExpr.__pow__, multiplying
    with fraction_mul."""
    result = PowerSumExpr.const(1)
    while k:
        if k & 1:
            result = fraction_mul(result, base)
        k >>= 1
        if k:
            base = fraction_mul(base, base)
    return result


def unipoly_power(p, k):
    """p^k for a UniPoly p as k products of integer rows over den^k, one
    partial product at a time: the reference for UniPoly.__pow__."""
    row = [1]
    for _ in range(k):
        out = [0] * (len(row) + len(p.row) - 1)
        for i, x in enumerate(row):
            for j, y in enumerate(p.row):
                out[i + j] += x * y
        row = out
    return UniPoly.from_row(p.den**k, row)


def log_coeff_list(Q, order):
    """Coefficients L_0..L_order of log Q, in Q[z]; Q(z, 0) = 1.

    From Q * L' = Q', with a_l the t^l coefficient of Q:
    (k+1) L_{k+1} = (k+1) a_{k+1} - sum_{j>=1} a_j (k-j+1) L_{k-j+1}.
    """
    a = [Q.coeffs[k] if k < len(Q.coeffs) else ZERO for k in range(order + 1)]
    out = [ZERO] * (order + 1)
    for k in range(order):
        s = a[k + 1] * (k + 1)
        for j in range(1, k + 1):
            if not a[j].is_zero():
                s = s - a[j] * out[k - j + 1] * (k - j + 1)
        out[k + 1] = s * Fraction(1, k + 1)
    return out


def fraction_extract(Q, r):
    """The s^r coefficient family of prod_j Q(z, s x_j) as the partition sum
    over prod_l L_l^(m_l) / m_l!, with every weight a UniPoly over Q and the
    terms in the library's order: the reference for
    extract_coefficient_family."""
    L = log_coeff_list(Q, r)
    weights = [[ONE] for _ in range(r + 1)]  # weights[l][m] = L_l^m / m!
    for l in range(1, r + 1):
        for m in range(1, r // l + 1):
            weights[l].append(weights[l][-1] * L[l] * Fraction(1, m))
    terms = {}
    exps = [0] * r

    def walk(top, rest, weight):
        if rest == 0:
            terms[tuple(exps)] = weight
            return
        for l in range(min(top, rest), 0, -1):
            if L[l].is_zero():
                continue
            for m in range(1, rest // l + 1):
                exps[l - 1] = m
                walk(l - 1, rest - m * l, weight * weights[l][m])
            exps[l - 1] = 0

    walk(r, r, ONE)
    return PowerSumExpr({exps: terms[exps] for exps in sorted(terms, reverse=True)})


# ---------------------------------------------------------------------------
# Cosine points, one series per point
# ---------------------------------------------------------------------------


def cosine_points_per_point(n, precision):
    """round(2^precision cos(2 pi k/n)) for 1 <= k <= n/2, each point with
    k/n <= 1/4 summed as its own series; past 1/4 the mirror
    cos(2 pi k/n) = -cos(2 pi (1/2 - k/n)), which for even n is exactly
    minus the point n/2 - k."""
    X = [1 << precision]  # X_0 = 2^precision, the mirror of k = n/2
    for k in range(1, n // 2 + 1):
        if 4 * k <= n:
            X.append(_cos_turns(k, n, precision))
        elif n % 2 == 0:
            X.append(-X[n // 2 - k])
        else:
            X.append(-_cos_turns(n - 2 * k, 2 * n, precision))
    return tuple(X[1:])
