import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cyclosum import invariants
from cyclosum.exactcore import UniPoly
from cyclosum.invariants import (
    QPoly,
    cos_power_sum,
    multiplicative_invariant,
    punctured_min_poly,
    punctured_power_sum,
    sin_power_sum,
    vieta_lucas_coeffs,
)

from reference import chebyshev_T, compose, mq_reference, parity_binom, punctured_power_sum_stable


class TestParityBinom:
    def test_integer_arguments(self):
        assert parity_binom(4, 2) == 6
        assert parity_binom(5, 0) == 1
        assert parity_binom(5, 5) == 1

    def test_half_integers_vanish(self):
        assert parity_binom(4, Fraction(3, 2)) == 0
        assert parity_binom(7, Fraction(7, 2)) == 0

    def test_out_of_range_vanishes(self):
        assert parity_binom(4, -1) == 0
        assert parity_binom(4, 5) == 0


class TestTrigPowerSums:
    def test_cos_h_zero(self):
        for n in range(1, 8):
            assert cos_power_sum(n, 0) == n

    def test_cos_h_one_vanishes(self):
        for n in range(2, 12):
            assert cos_power_sum(n, 1) == 0

    def test_cos_examples(self):
        assert cos_power_sum(4, 2) == 2
        assert cos_power_sum(3, 2) == Fraction(3, 2)
        assert cos_power_sum(2, 3) == 0
        # wrap-around regime: h >= n activates the r != 0 terms
        assert cos_power_sum(3, 4) == Fraction(9, 8)
        assert cos_power_sum(2, 4) == 2

    def test_sin_examples(self):
        assert sin_power_sum(4, 2) == 2
        assert sin_power_sum(3, 2) == Fraction(3, 2)
        assert sin_power_sum(2, 2) == 0
        assert sin_power_sum(4, 4) == 2
        assert sin_power_sum(3, 4) == Fraction(9, 8)

    def test_sin_odd_powers_vanish(self):
        for n in range(2, 10):
            for h in (1, 3, 5, 7):
                assert sin_power_sum(n, h) == 0

    def test_pythagorean_pairing(self):
        # sum (cos^2 + sin^2)^j expands to a fixed combination equal to n
        for n in range(2, 15):
            assert cos_power_sum(n, 2) + sin_power_sum(n, 2) == n
            total = (
                cos_power_sum(n, 4)
                + 2 * _cross_term(n)
                + sin_power_sum(n, 4)
            )
            assert total == n

    def test_brute_force_cross_check(self):
        # compare against the naive definition evaluated through the
        # minimal polynomial's power sums (independent path)
        from cyclosum.oracle import exact_newton_powersums

        for n in range(2, 12):
            ps = exact_newton_powersums(n, 6)
            for h in range(1, 7):
                assert cos_power_sum(n, h) == ps[h - 1] + 1


def _comb_terms(n, h):
    """Reference terms (r, C(h, (r n + h)/2)), each from math.comb afresh."""
    bound = h // n
    return [
        (r, math.comb(h, (r * n + h) // 2))
        for r in range(-bound, bound + 1)
        if (r * n + h) % 2 == 0
    ]


class TestStrideBinomials:
    def test_matches_comb_reference(self):
        # 2 <= n <= 12 and h <= 3000, with multiples of n and their neighbours
        for n in range(2, 13):
            hs = set(range(40)) | {3000, 2999, n * (3000 // n)}
            hs |= {k * n + j for k in (7, 31, 150) for j in (-1, 0, 1)}
            for h in sorted(hs):
                terms = _comb_terms(n, h)
                total = sum(b for _, b in terms)
                re = sum(b if r * n % 4 < 2 else -b for r, b in terms if r * n % 2 == 0)
                assert cos_power_sum(n, h) == Fraction(n, 2**h) * total, (n, h)
                assert sin_power_sum(n, h) == Fraction(n, 2**h) * re, (n, h)
                P = punctured_power_sum(n, h)
                assert type(P) is int and P == n * total - 2**h, (n, h)


def _cross_term(n):
    # sum cos^2 sin^2 = sum cos^2 (1 - cos^2)
    return cos_power_sum(n, 2) - cos_power_sum(n, 4)


class TestPuncturedPowerSums:
    def test_examples(self):
        assert punctured_power_sum(10, 4) == 44
        assert punctured_power_sum(5, 1) == -2
        # single punctured point cos(pi) = -1, scaled by 2^2
        assert punctured_power_sum(2, 2) == 4

    def test_unstable_regime(self):
        # at n = 3 <= h = 4 the stable formula would give 3*6 - 16 = 2,
        # and here it happens to coincide only by accident of small n
        assert punctured_power_sum(3, 4) == 2
        # genuine departure: h = 4 at n = 2
        stable = punctured_power_sum_stable(4)
        assert punctured_power_sum(2, 4) == 16
        assert stable(Fraction(2)) == -4

    def test_stable_polynomial_forms(self):
        assert punctured_power_sum_stable(2) == UniPoly([-4, 2])
        assert punctured_power_sum_stable(3) == UniPoly([-8])
        assert punctured_power_sum_stable(4) == UniPoly([-16, 6])
        assert punctured_power_sum_stable(5) == UniPoly([-32])

    def test_stable_matches_exact_in_range(self):
        for h in range(1, 11):
            poly = punctured_power_sum_stable(h)
            for n in range(h + 1, 41):
                assert punctured_power_sum(n, h) == poly(Fraction(n))


class TestChebyshev:
    def test_low_degrees(self):
        assert chebyshev_T(0) == UniPoly([1])
        assert chebyshev_T(1) == UniPoly([0, 1])
        assert chebyshev_T(2) == UniPoly([-1, 0, 2])
        assert chebyshev_T(3) == UniPoly([0, -3, 0, 4])

    def test_composition_law(self):
        for m in range(2, 6):
            for n in range(2, 6):
                assert compose(chebyshev_T(m), chebyshev_T(n)) == chebyshev_T(m * n)

    def test_endpoint_values(self):
        for n in range(12):
            T = chebyshev_T(n)
            assert T(Fraction(1)) == 1
            assert T(Fraction(-1)) == (-1) ** n

    def test_vieta_lucas_coeffs_are_the_signed_row_of_2T_n(self):
        # against 2 T_n(x/2) with T_n from T_(n+1) = 2t T_n - T_(n-1),
        # not from the closed form that chebyshev_T reads
        half_x = UniPoly([0, Fraction(1, 2)])
        prev, T = UniPoly([1]), UniPoly([0, 1])
        for n in range(1, 61):
            row = vieta_lucas_coeffs(n)
            coeffs = [0] * (n + 1)
            for k, v in enumerate(row):
                coeffs[n - 2 * k] = v
            assert 2 * compose(T, half_x) == UniPoly(coeffs), n
            assert len(row) == n // 2 + 1
            prev, T = T, UniPoly([0, 2]) * T - prev

    def test_three_term_recurrence(self):
        # the closed form against T_(n+1) = 2t T_n - T_(n-1)
        two_t = UniPoly([0, 2])
        for n in range(1, 61):
            assert chebyshev_T(n + 1) == two_t * chebyshev_T(n) - chebyshev_T(n - 1)


class TestMinPoly:
    def test_w2(self):
        assert punctured_min_poly(2) == UniPoly([1, 1])

    def test_w3(self):
        assert punctured_min_poly(3) == UniPoly([Fraction(1, 4), 1, 1])

    def test_w4(self):
        # roots cos(pi/2), cos(pi), cos(3*pi/2) = 0, -1, 0
        assert punctured_min_poly(4) == UniPoly([0, 0, 1, 1])

    def test_factorization_identity(self):
        for n in range(2, 65):
            W = punctured_min_poly(n)
            lhs = chebyshev_T(n) - 1
            rhs = UniPoly([-1, 1]) * W * 2 ** (n - 1)
            assert lhs == rhs

    def test_monic_with_expected_degree(self):
        for n in range(2, 20):
            W = punctured_min_poly(n)
            assert W.coeffs[-1] == 1
            assert W.degree == n - 1


class TestQPoly:
    def test_requires_unit_constant(self):
        with pytest.raises(ValueError, match="not unit-normalized"):
            QPoly([0, 1])
        with pytest.raises(ValueError, match="not unit-normalized"):
            QPoly([UniPoly([0, 1]), 1])

    def test_z_dependence(self):
        Q = QPoly([1, UniPoly([0, 1])])
        assert Q.specialize_z(3) == UniPoly([1, 3])

    def test_text_form(self):
        assert str(QPoly([1, -1])) == "1 - t"
        assert str(QPoly([1, 0, -1])) == "1 - t^2"


def _times(cs, factor):
    """The coefficients in t of Q times a factor with rational
    coefficients, for Q's coefficients cs in Q[z]."""
    out = [UniPoly()] * (len(cs) + len(factor) - 1)
    for i, c in enumerate(cs):
        for j, f in enumerate(factor):
            out[i + j] = out[i + j] + c * f
    return out


# Factors that vanish at a cosine point, with the period of the levels n
# that have the point: cos(2 pi/6) = 1/2, cos(2 pi/3) = -1/2, cos(pi) = -1.
COSINE_ROOTS = [((1, -2), 6), ((1, 2), 3), ((1, 1), 2)]


@st.composite
def mq_cases(draw):
    """(Q, n, shape) with n from 2 to 300 and Q of degree up to 4 in t,
    with coefficients of degree up to 2 in z, in one of five shapes:
    plain; "root", where the top coefficient is shifted so that
    Q(n-1, 1) = 0; "double root", (1 - t) times a Q of shape root;
    "drop", where the top coefficient vanishes at z = n - 1; and
    "cosine", with a factor that vanishes at a cosine point, so that
    M_Q(n) = 0."""
    shape = draw(st.sampled_from(["plain", "root", "double root", "drop", "cosine"]))
    n = draw(st.integers(2, 300))
    factor = ()
    if shape == "double root":
        factor = (1, -1)
    elif shape == "cosine":
        factor, period = draw(st.sampled_from(COSINE_ROOTS))
        n = period * draw(st.integers(1, 300 // period))
    lowest = 0 if shape in ("plain", "cosine") else 1
    degree = draw(st.integers(lowest, 4 - len(factor) // 2))
    cs = [UniPoly([1])]
    for _ in range(degree):
        size = draw(st.integers(1, 3))
        cs.append(UniPoly([Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
                           for _ in range(size)]))
    if cs[-1].is_zero():
        cs[-1] = UniPoly([1])
    z = n - 1
    if shape in ("root", "double root"):
        cs[-1] = cs[-1] - sum(c(z) for c in cs)
    elif shape == "drop":
        cs[-1] = cs[-1] * UniPoly([-z, 1])
    return QPoly(_times(cs, factor) if factor else cs), n, shape


class TestMultiplicativeInvariant:
    @given(mq_cases())
    @example((QPoly([1, 1, UniPoly([-4, 1])]), 5, "drop"))
    @example((QPoly([1, -2]), 6, "cosine"))
    @example((QPoly([1, 1]), 300, "cosine"))
    def test_matches_the_resultant_against_w_n(self, case):
        Q, n, shape = case
        value = multiplicative_invariant(Q, n)
        assert value == mq_reference(Q, n)
        q = Q.specialize_z(n - 1)
        # the size bound behind MAX_MQ_BITS holds
        L = math.lcm(*(c.denominator for c in q.coeffs))
        C = sum(abs(c) * L for c in q.coeffs)
        bound = (n - 1) * (int(C).bit_length() + L.bit_length() + 2 * (q.degree + 1))
        assert value.numerator.bit_length() + value.denominator.bit_length() <= bound
        if shape in ("root", "double root"):
            assert q(1) == 0
        if shape == "drop":
            assert q.degree < len(Q.coeffs) - 1
        if shape == "cosine":
            assert value == 0

    def test_never_builds_w_n(self, monkeypatch):
        def refuse(n):
            raise AssertionError("W_n was built")

        monkeypatch.setattr(invariants, "punctured_min_poly", refuse)
        Q = QPoly([1, -1, 2])
        assert multiplicative_invariant(Q, 64) == mq_reference(Q, 64)

    def test_closed_forms_at_large_n(self):
        # W_n at these levels has 20,000 to 30,000 coefficients; the
        # doubling route never builds it
        linear = QPoly([1, -1])
        even = QPoly([1, 0, -1])
        for n in (20000, 20001, 29999, 30000):
            assert multiplicative_invariant(linear, n) == Fraction(n**2, 2 ** (n - 1))
            expected = Fraction(n**2, 4 ** (n - 1)) if n % 2 else Fraction(0)
            assert multiplicative_invariant(even, n) == expected

    def test_refusals_come_before_any_work(self):
        Q = QPoly([1, 1])
        with pytest.raises(ValueError, match="level n must be >= 2"):
            multiplicative_invariant(Q, 1)
        with pytest.raises(OverflowError, match="cannot fit 'int' into an index-sized"):
            multiplicative_invariant(Q, sys.maxsize + 1)
        with pytest.raises(MemoryError):
            multiplicative_invariant(Q, 2**62)

    def test_size_bound_is_the_limit(self, monkeypatch):
        # 1 - t: L = 1, C = 2 and two coefficients, so 1 + 2 + 4 = 7 bits
        # for each of the n - 1 points
        monkeypatch.setattr(invariants, "MAX_MQ_BITS", 7 * 142)
        Q = QPoly([1, -1])
        assert multiplicative_invariant(Q, 143) == Fraction(143**2, 2**142)
        with pytest.raises(MemoryError):
            multiplicative_invariant(Q, 144)
        # 1 + (z - 1)/2*t is 1 + 9*t at n = 20: L = 1 once the coefficient
        # reduces, C = 10, so 1 + 4 + 4 = 9 bits for each of 19 points (an
        # unreduced L = 2 would need 11 bits each); at n = 21 it is
        # 1 + 19/2*t, with 2 + 5 + 4 = 11 bits for each of 20 points
        Q = QPoly([1, UniPoly([Fraction(-1, 2), Fraction(1, 2)])])
        monkeypatch.setattr(invariants, "MAX_MQ_BITS", 171)
        assert multiplicative_invariant(Q, 20) == Fraction(-30583575767376025, 8192)
        with pytest.raises(MemoryError):
            multiplicative_invariant(Q, 21)
        monkeypatch.setattr(invariants, "MAX_MQ_BITS", 170)
        with pytest.raises(MemoryError):
            multiplicative_invariant(Q, 20)

    def test_one_minus_t_closed_form(self):
        Q = QPoly([1, -1])
        for n in range(2, 31):
            assert multiplicative_invariant(Q, n) == Fraction(n**2, 2 ** (n - 1))

    def test_one_minus_t_squared_closed_form(self):
        Q = QPoly([1, 0, -1])
        for n in range(2, 31):
            expected = Fraction(n**2, 4 ** (n - 1)) if n % 2 else Fraction(0)
            assert multiplicative_invariant(Q, n) == expected

    def test_constant_factor(self):
        Q = QPoly([1])
        assert multiplicative_invariant(Q, 7) == 1
        # 1 + (z - 6)*t is the constant 1 at z = n - 1 = 6
        Q = QPoly([1, UniPoly([-6, 1])])
        assert Q.specialize_z(6) == UniPoly([1])
        assert multiplicative_invariant(Q, 7) == 1

    def test_splits_over_factors(self):
        a = QPoly([1, -1])
        b = QPoly([1, 1])
        prod = QPoly([1, 0, -1])
        for n in range(2, 16):
            assert multiplicative_invariant(prod, n) == multiplicative_invariant(
                a, n
            ) * multiplicative_invariant(b, n)

    def test_float_agreement(self):
        import mpmath

        Q = QPoly([1, UniPoly([0, Fraction(1, 3)]), -2])
        for n in (5, 8, 11):
            exact = multiplicative_invariant(Q, n)
            with mpmath.workprec(120):
                z = mpmath.mpf(n - 1)
                prod = mpmath.mpf(1)
                for k in range(1, n):
                    t = mpmath.cos(2 * mpmath.pi * k / n)
                    prod *= 1 + z / 3 * t - 2 * t * t
                err = abs(prod - mpmath.mpf(exact.numerator) / exact.denominator)
            assert err < mpmath.mpf(10) ** -25
