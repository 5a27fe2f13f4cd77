import decimal
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclosum.exactcore import (
    UniPoly,
    ZeroDivisorError,
    decimal_str,
    dyadic_str,
    log_rows,
    poly_str,
    primitive_row,
    rat_str,
    reduce_rows,
    resultant,
)
from cyclosum.invariants import QPoly

from conftest import (assert_canonical_unipoly, dyadic, power_bases, random_rational,
                      random_unipoly)
from reference import (
    Series,
    a_power_series,
    compose,
    log_coeff_list,
    series_mul,
    sylvester_resultant,
    unipoly_power,
)


def P(coeffs):
    return UniPoly(coeffs)


def _poly(draw, degree):
    """A rational polynomial of exactly the given degree, with numerators
    in [-20, 20] and denominators in [1, 12]."""
    nums = draw(st.lists(st.integers(-20, 20), min_size=degree + 1, max_size=degree + 1))
    dens = draw(st.lists(st.integers(1, 12), min_size=degree + 1, max_size=degree + 1))
    nums[-1] = nums[-1] or 1
    return P([Fraction(x, y) for x, y in zip(nums, dens)])


@st.composite
def resultant_pairs(draw):
    """(a, b): nonzero rational polynomials of degree 0 to 6, either one
    the larger.  In about three pairs in five both are multiples of a
    common g of degree 1 to 3, so that their resultant is 0."""
    g = _poly(draw, draw(st.sampled_from((0, 0, 1, 2, 3))))
    a = _poly(draw, draw(st.integers(0, 6 - g.degree))) * g
    b = _poly(draw, draw(st.integers(0, 6 - g.degree))) * g
    return a, b


@st.composite
def dyadic_pairs(draw):
    """(x, r) for 0 <= r <= 600: x is 0, or an odd integer of either sign,
    in half the draws past 4,300 digits, times 2^k for k = 0, some k < r,
    k = r or some k > r."""
    r = draw(st.integers(0, 600))
    kind = draw(st.sampled_from(("zero", "odd", "below", "at", "past")))
    if kind == "zero":
        return 0, r
    odd = 2 * draw(st.integers(-(2**80), 2**80)) + 1
    if draw(st.booleans()):
        odd += 10**4301 if odd > 0 else -(10**4301)
    k = {"odd": 0, "below": draw(st.integers(0, r)), "at": r,
         "past": r + draw(st.integers(1, 80))}[kind]
    return odd << k, r


class TestRational:
    def test_exact_addition(self):
        assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)

    def test_text_form(self):
        assert rat_str(Fraction(3, 4)) == "3/4"
        assert rat_str(Fraction(8, 2)) == "4"
        assert rat_str(Fraction(-5, 10)) == "-1/2"
        assert rat_str(-7) == "-7"

    def test_text_form_of_any_length(self):
        # str() is the reference only with the digit limit lifted; rat_str
        # needs no limit change, even at the lowest limit CPython allows
        rng = random.Random(3)
        values = [Fraction(10**k - 1) for k in (599, 600, 601, 4300, 4301)]
        values += [Fraction(10**5000 + 1), Fraction(-(10**5000)), Fraction(3**20000, 7**9000)]
        for bits in (1989, 1990, 1991, 2100, 14300, 60000):
            sign = rng.choice((1, -1))
            values.append(Fraction(sign * rng.getrandbits(bits), rng.getrandbits(bits) | 1))
        # rat_str prints an int without making a Fraction of it
        values += [q.numerator for q in values if q.denominator == 1]
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            low = [rat_str(q) for q in values]
            sys.set_int_max_str_digits(0)
            expected = [str(q) for q in values]
        finally:
            sys.set_int_max_str_digits(old)
        assert [rat_str(q) for q in values] == expected
        assert low == expected

    @given(dyadic_pairs())
    @example((0, 0))
    @example((0, 600))
    def test_dyadic_text_form(self, case):
        x, r = case
        assert dyadic_str(x, r) == rat_str(Fraction(x, 2**r))

    def test_field_axioms_on_random_triples(self):
        rng = random.Random(1)
        for _ in range(1000):
            a, b, c = (random_rational(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a != 0:
                assert a * (1 / a) == 1
            assert a + (-a) == 0


def near(q, bits, offset):
    """The dyadic `offset` units of 2^-bits (relative) away from q > 0."""
    shift = bits - (q.numerator.bit_length() - q.denominator.bit_length())
    return (round(q * Fraction(2) ** shift) + offset) / Fraction(2) ** shift


mantissas = st.integers(-(1 << 300), 1 << 300)
offsets = st.integers(-3, 3)
digit_counts = st.sampled_from([10, 30])


class TestDecimalFormatter:
    """decimal_str prints x correctly rounded, half away from zero, as
    decimal does, and in the layout of mpmath.nstr."""

    def check(self, man, exp, dps):
        self.check_fraction(man * Fraction(2) ** exp, dps)

    def check_fraction(self, q, dps):
        context = decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_UP,
                                  Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        reference = context.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
        printed = decimal_str(q, dps)
        assert decimal.Decimal(printed) == reference, (q, dps)
        exp = 1 - q.denominator.bit_length()
        expected = mpmath.nstr(dyadic(q.numerator, exp), dps)
        if decimal.Decimal(expected) == reference:
            assert printed == expected, (q, dps)

    @settings(max_examples=400)
    @given(man=mantissas, exp=st.integers(-1200, 1200), dps=digit_counts)
    def test_random_dyadics(self, man, exp, dps):
        self.check(man, exp, dps)

    @pytest.mark.parametrize("dps", [10, 30])
    def test_zero_and_small_integers(self, dps):
        for man in range(-1100, 1101):
            self.check(man, 0, dps)

    @settings(max_examples=150)
    @given(man=mantissas, exp=st.integers(3400, 40000), negative=st.booleans(),
           dps=digit_counts)
    def test_exponents_beyond_3500_bits(self, man, exp, negative, dps):
        self.check(man, -exp if negative else exp, dps)

    @settings(max_examples=60)
    @given(bits=st.integers(3400, 5000), exp=st.integers(-200, 200), dps=digit_counts,
           data=st.data())
    def test_long_mantissas(self, bits, exp, dps, data):
        # bit length past 3500 with a small exponent
        man = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        self.check(man, exp, dps)

    @settings(max_examples=300)
    @given(e=st.integers(-14, 34), bits=st.sampled_from([60, 120, 320]), offset=offsets,
           dps=digit_counts)
    def test_fixed_exponent_switch(self, e, bits, offset, dps):
        # around 10^e, where the leading digit moves across the switch
        # between fixed point and an exponent
        self.check_fraction(near(Fraction(10) ** e, bits, offset), dps)

    @settings(max_examples=300)
    @given(e=st.integers(-1200, 1200), bits=st.sampled_from([60, 120, 320]),
           offset=offsets, dps=digit_counts)
    def test_carries_through_nines(self, e, bits, offset, dps):
        # 99...99.5 * 10^e: digits ending in ...9995 round up through every nine
        q = (10 ** (dps + 1) - 5) * Fraction(10) ** e
        self.check_fraction(near(q, bits, offset), dps)

    def test_just_above_a_tie(self):
        # 2^-54 relative above 9.9999999995, the tie at 10 digits; mpmath
        # floors it below the tie in binary and prints 9.999999999
        q = Fraction(180143985085812641, 2**54)
        assert q > Fraction("9.9999999995")
        assert decimal_str(q, 10) == "10.0"
        assert decimal_str(-q, 10) == "-10.0"


scalars = st.one_of(st.integers(-30, 30),
                    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))


@st.composite
def fraction_polys(draw):
    """(p, cs): a UniPoly p and the list cs of its Fraction coefficients,
    which may end in zeros.  p is built from cs by the constructor, or by
    from_row over a multiple of their common denominator."""
    cs = [Fraction(c) for c in draw(st.lists(scalars, max_size=6))]
    if draw(st.booleans()):
        return P(cs), cs
    den = math.lcm(*(c.denominator for c in cs)) * draw(st.integers(1, 6))
    return UniPoly.from_row(den, [int(c * den) for c in cs]), cs


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _fraction_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def assert_coefficients(p, cs):
    """p has the Fraction coefficients cs, as coeffs and through coeff."""
    cs = _trimmed(cs)
    assert p.coeffs == tuple(cs)
    assert [p.coeff(k) for k in range(-1, len(cs) + 2)] == [0, *cs, 0, 0]
    assert all(isinstance(p.coeff(k), Fraction) for k in range(-1, len(cs) + 2))


class TestCanonicalForm:
    @given(fraction_polys(), st.one_of(fraction_polys(), scalars),
           st.sampled_from("+-*"), st.booleans())
    def test_every_result_is_canonical(self, a, b, op, reflected):
        (a, fa), (b, fb) = a, b if isinstance(b, tuple) else (b, [Fraction(b)])
        if reflected:  # b + a, b - a and b * a, through __radd__ etc. for a scalar b
            (a, fa), (b, fb) = (b, fb), (a, fa)
        n = max(len(fa), len(fb))
        fa, fb = fa + [Fraction(0)] * (n - len(fa)), fb + [Fraction(0)] * (n - len(fb))
        if op == "+":
            got, expected = a + b, [x + y for x, y in zip(fa, fb)]
        elif op == "-":
            got, expected = a - b, [x - y for x, y in zip(fa, fb)]
        else:
            got, expected = a * b, _fraction_mul(fa, fb)
        for p, cs in ((got, expected), (-got, [-c for c in expected])):
            assert_canonical_unipoly(p)
            assert_coefficients(p, cs)

    @given(fraction_polys(), st.integers(1, 50))
    def test_equal_values_have_one_form(self, pc, k):
        p, cs = pc
        assert_canonical_unipoly(p)
        assert_coefficients(p, cs)
        scaled = UniPoly.from_row(k * p.den, [k * x for x in p.row] + [0] * k)
        assert (scaled.den, scaled.row) == (p.den, p.row)
        assert scaled == p and hash(scaled) == hash(p)
        other = P([*cs, 0]) if k % 2 else UniPoly.from_row(1, [0]) + p
        assert other == p and hash(other) == hash(p)


class TestUniPoly:
    def test_trailing_zeros_stripped(self):
        assert P([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert P([0, 0]).degree == -1

    def test_degree_multiplicative(self):
        rng = random.Random(2)
        for _ in range(50):
            a = random_unipoly(rng, 6)
            b = random_unipoly(rng, 6)
            if not a.is_zero() and not b.is_zero():
                assert (a * b).degree == a.degree + b.degree

    def test_text_form(self):
        assert poly_str(P([Fraction(1, 4), 1, 1]), "t") == "1*t^2 + 1*t + 1/4"
        assert poly_str(P([]), "t") == "0"

    def test_compose(self):
        p = P([1, 2, 1])  # (t+1)^2
        assert compose(p, P([-1, 1])) == P([0, 0, 1])
        assert p(Fraction(3)) == 16
        assert P([Fraction(1, 6), Fraction(-1, 4), 1])(Fraction(-2, 3)) == Fraction(7, 9)
        with pytest.raises(TypeError, match="cannot coerce UniPoly"):
            p(P([-1, 1]))

    # Miller's recurrence against repeated products
    @given(power_bases(), st.integers(0, 12))
    @example(UniPoly([-1, 2]), 257)
    @example(UniPoly.from_row(6, [0, 0, -5, 0, 3, 1]), 64)
    @example(UniPoly.from_row(3, [2]), 257)
    @example(UniPoly(), 0)
    def test_power_matches_repeated_products(self, p, k):
        got = p**k
        assert_canonical_unipoly(got)
        assert got == unipoly_power(p, k)

    def test_power_refuses_a_negative_exponent(self):
        with pytest.raises(ValueError, match="nonnegative integer"):
            P([1, 1]) ** -1

    def test_strings_are_not_rationals(self):
        # text reaches the package only through the CLI's validated readers
        for make in (lambda: P(["1/2"]), lambda: QPoly([1, "1/2"]), lambda: P([1, 1])("2")):
            with pytest.raises(TypeError, match="cannot coerce str"):
                make()


def _long_remainder(a, b):
    """a mod b over Q by schoolbook long division, as a list of length
    min(len(a), deg b)."""
    r = [Fraction(c) for c in a]
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        for i, c in enumerate(b, len(r) - len(b)):
            r[i] -= f * c
        r.pop()
    return r


class TestReduceRows:
    @given(st.lists(st.integers(-30, 30), max_size=9),
           st.lists(st.integers(-30, 30), min_size=1, max_size=4),
           st.integers(-30, 30).filter(bool))
    def test_pseudo_remainder(self, a, b, lead):
        b = b + [lead]
        # each of the s steps multiplies by lead: lead^s (a mod b), in integers
        s = max(0, len(a) - len(b) + 1)
        row = reduce_rows(list(a), b)
        assert row == [lead**s * c for c in _long_remainder(a, b)]
        assert all(isinstance(c, int) for c in row)

    def test_primitive_row(self):
        assert primitive_row([-6, 4, -18]) == ([3, -2, 9], -2)
        assert primitive_row([5]) == ([1], 5)


class TestResultant:
    def test_roots_plus_minus_one(self):
        assert resultant(P([-1, 0, 1]), P([-2, 1])) == 3

    def test_single_root(self):
        rng = random.Random(4)
        for _ in range(25):
            c = random_rational(rng)
            b = random_unipoly(rng, 5)
            if b.is_zero():
                continue
            assert resultant(P([-c, 1]), b) == b(c)

    def test_w3_against_linear_factor(self):
        w3 = P([Fraction(1, 4), 1, 1])
        assert resultant(w3, P([1, -1])) == Fraction(9, 4)

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroDivisorError):
            resultant(P([]), P([1, 1]))

    @settings(max_examples=400)
    @given(resultant_pairs())
    @example((P([-1, 0, 1]), P([1, 0, 0, -3])))  # deg a < deg b: swapped once
    @example((P([5]), P([1, 2, 3])))  # constant a
    @example((P([1, 2, 3]), P([Fraction(-2, 3)])))  # constant b
    @example((P([7]), P([Fraction(1, 2)])))  # both constant
    @example((P([-1, 0, 1]), P([2, -3, 1])))  # shared factor t - 1
    @example((P([1, 1, 1, 1]), P([0, 1, 1])))  # odd degrees: a sign flip
    def test_matches_sylvester_determinant(self, pair):
        a, b = pair
        assert resultant(a, b) == sylvester_resultant(a, b)

    def test_multiplicative_in_second_argument(self):
        rng = random.Random(5)
        for _ in range(30):
            a = random_unipoly(rng, 4)
            if a.degree < 1:
                continue
            a = UniPoly(list(a.coeffs[:-1]) + [1])  # make monic
            b = random_unipoly(rng, 5)
            c = random_unipoly(rng, 5)
            if b.is_zero() or c.is_zero():
                continue
            assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)


def geometric(order):
    return Series([1] * (order + 1), order)


def log_series(a: Series) -> Series:
    """Formal log of a rational series through the integer log routine of
    extraction and of the Newton route: L_k = N_k / (k A^k)."""
    A, N = log_rows(QPoly(a.coeffs).coeffs, a.order)
    assert all(i == 0 for row in N for i, _ in row)
    coeffs = [Fraction(row[0][1], k * A**k) if row else 0 for k, row in enumerate(N)]
    return Series(coeffs, a.order)


class TestSeries:
    def test_mul_difference_of_squares(self):
        s = series_mul(Series([1, 1], 3), Series([1, -1], 3))
        assert s == Series([1, 0, -1, 0], 3)

    def test_mul_geometric_inverse(self):
        assert series_mul(geometric(5), Series([1, -1], 5)) == Series([1], 5)

    def test_mul_takes_min_order(self):
        s = series_mul(Series([1, 1], 7), Series([1, 1], 4))
        assert s.order == 4

    def test_square_of_catalan_series(self):
        # A(t)^2 coefficients via direct Cauchy product of the closed form
        # for A(t) = 1 + t^2/4 + t^4/8 + ...: the t^4 coefficient is
        # 2*(1/8) + (1/4)^2 = 5/16.
        a = Series([1, 0, Fraction(1, 4), 0, Fraction(1, 8)], 4)
        sq = series_mul(a, a)
        assert sq == Series([1, 0, Fraction(1, 2), 0, Fraction(5, 16)], 4)

    def test_log_geometric(self):
        got = log_series(geometric(4))
        assert got == Series([0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)], 4)

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError, match="not unit-normalized"):
            log_series(Series([2, 1], 3))

    def test_log_rows_of_scalar_rows(self):
        # one z-coefficient per row, as the Newton route passes them, and
        # an order past the end of the rows
        rng = random.Random(11)
        coeffs = [Fraction(1)] + [random_rational(rng) for _ in range(6)]
        A, N = log_rows([UniPoly([c]) for c in coeffs], 9)
        got = [Fraction(row[0][1], k * A**k) if row else 0 for k, row in enumerate(N)]
        assert got == [L.coeff(0) for L in log_coeff_list(QPoly(coeffs), 9)]

    def test_log_of_catalan_series(self):
        # log A(t) = sum_j (1/2j) binom(2j,j) (t^2/4)^j
        got = log_series(a_power_series(1, 8))
        expected = [Fraction(0)] * 9
        expected[2] = Fraction(1, 4)
        expected[4] = Fraction(3, 32)
        expected[6] = Fraction(5, 96)
        expected[8] = Fraction(35, 1024)
        assert got == Series(expected, 8)
