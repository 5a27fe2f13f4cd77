import gc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclosum.catalan as catalan
from cyclosum.catalan import (
    catalan_a,
    extract_coefficient_family,
    h_family,
    h_global_series,
)
from cyclosum.exactcore import UniPoly
from cyclosum.invariants import QPoly
from cyclosum.rigidity import AdmissibleFormula, evaluate
from cyclosum.symfunc import PowerSumExpr

from conftest import assert_canonical, newton_e, newton_h, random_rational, random_unipoly
from reference import (
    H1_VALUE,
    Series,
    SymMonomialPoly,
    TrunkRangeError,
    a_power_series,
    expand,
    fraction_extract,
    h_series_recurrence,
    h_stable,
    series_mul,
    verify_trunk,
)


class TestCatalanCoefficients:
    def test_catalan_numbers_at_n_one(self):
        # a_l(1) = C_l / 4^l with C_l the l-th Catalan number
        catalan = [1, 1, 2, 5, 14, 42, 132]
        for l, c in enumerate(catalan):
            assert catalan_a(l, 1) == Fraction(c, 4**l)

    def test_first_values_at_n_two(self):
        assert catalan_a(0, 2) == 1
        assert catalan_a(1, 2) == Fraction(1, 2)
        assert catalan_a(2, 2) == Fraction(5, 16)

    def test_example(self):
        assert catalan_a(2, 9) == Fraction(27, 8)

    def test_recurrence(self):
        # a_l(n) = a_l(n-1) + (1/4) a_{l-1}(n+1), valid for all integer n
        for l in range(1, 13):
            for n in range(-10, 31):
                assert catalan_a(l, n) == catalan_a(l, n - 1) + Fraction(
                    1, 4
                ) * catalan_a(l - 1, n + 1)

    def test_pochhammer_form(self):
        # a_l(n) = (n/2)_l ((n+1)/2)_l / ((n+1)_l l!) * ... reduced to the
        # ratio of rising factorials form
        def rising(x, l):
            out = Fraction(1)
            for i in range(l):
                out *= x + i
            return out

        for l in range(0, 9):
            for n in range(1, 12):
                expected = (
                    rising(Fraction(n, 2), l)
                    * rising(Fraction(n + 1, 2), l)
                    / (rising(Fraction(n + 1), l) * rising(Fraction(1), l))
                )
                assert catalan_a(l, n) == expected

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError):
            catalan_a(-1, 3)


class TestAPowerSeries:
    def test_base_series(self):
        got = a_power_series(1, 6)
        expected = Series(
            [1, 0, Fraction(1, 4), 0, Fraction(1, 8), 0, Fraction(5, 64)], 6, "t"
        )
        assert got == expected

    def test_power_consistency(self):
        # A(t)^2 computed from the closed form must equal the product
        assert a_power_series(2, 12) == series_mul(
            a_power_series(1, 12), a_power_series(1, 12)
        )

    def test_additivity_in_n(self):
        for m, n in [(2, 3), (4, 4), (1, 7)]:
            assert a_power_series(m + n, 10) == series_mul(
                a_power_series(m, 10), a_power_series(n, 10)
            )

    def test_functional_equation(self):
        # A = 1 + (t^2 / 4) A^2 as truncated series
        order = 20
        A = a_power_series(1, order)
        sq = series_mul(A, A)
        rhs = [Fraction(0)] * (order + 1)
        rhs[0] = Fraction(1)
        for k in range(2, order + 1):
            rhs[k] = sq.coeffs[k - 2] / 4
        assert A == Series(rhs, order, "t")


class TestHStable:
    def test_low_orders(self):
        assert h_stable(2) == UniPoly([0, Fraction(1, 4)])
        assert h_stable(3) == UniPoly([0, Fraction(-1, 4)])
        # r = 6 and r = 7 share the magnitude n(n+4)(n+5)/384
        cubic = UniPoly([0, Fraction(5, 96), Fraction(3, 128), Fraction(1, 384)])
        assert h_stable(6) == cubic
        assert h_stable(7) == -cubic

    def test_h1_constant(self):
        assert H1_VALUE == -1

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            h_stable(1)

    def test_matches_global_series(self):
        # at level n > r the coefficient of s^r in H_n equals h_stable(r)(n)
        for n in range(9, 14):
            H = h_global_series(n, 8)
            assert H[0] == 1
            assert Fraction(H[1], 2) == H1_VALUE
            for r in range(2, 9):
                assert Fraction(H[r], 2**r) == h_stable(r)(Fraction(n))


@st.composite
def level_and_order(draw):
    """(n, order) with n in [2, 400] and order in [0, 3n], often at n - 1,
    n, n + 1 or 2n, where the closed form hands over to the recurrence."""
    n = draw(st.integers(2, 400))
    return n, draw(st.one_of(st.sampled_from((n - 1, n, n + 1, 2 * n)), st.integers(0, 3 * n)))


class TestHGlobalSeries:
    def test_level_four_exact(self):
        # the three punctured points at n = 4 are 0, -1, 0
        H = h_global_series(4, 6)
        # h_r of {0, -1, 0} is (-1)^r
        assert [Fraction(x, 2**r) for r, x in enumerate(H)] == [(-1) ** r for r in range(7)]

    def test_level_nine_spot_value(self):
        assert Fraction(h_global_series(9, 7)[7], 2**7) == Fraction(-273, 64)

    def test_level_two(self):
        # single point -1
        H = h_global_series(2, 5)
        assert [Fraction(x, 2**r) for r, x in enumerate(H)] == [(-1) ** r for r in range(6)]

    def test_matches_exact_evaluation_at_every_r(self):
        # every coefficient, r >= n included, against the evaluator's
        # parity-binomial route through the extracted h_r family; at
        # n = 10^6 only the beta_j with j <= order are built
        for n in [*range(2, 13), 10**6]:
            H = h_global_series(n, 14)
            for r in range(1, 15):
                assert Fraction(H[r], 2**r) == evaluate(AdmissibleFormula(h_family(r)), n).value

    def test_truncation_is_a_prefix(self):
        # order m below n/2, between n/2 and n, at n and beyond n
        for n in (2, 3, 8, 13, 20):
            full = h_global_series(n, 3 * n)
            for m in (0, 1, n // 2 - 1, n // 2 + 1, n - 1, n, n + 1, 2 * n):
                assert h_global_series(n, m) == full[: m + 1]

    @given(case=level_and_order())
    @example(case=(768, 256))
    @example(case=(300, 900))
    @example(case=(2, 4000))
    def test_matches_the_recurrence(self, case):
        # the closed form up to s^n and the recurrence past it, against the
        # recurrence alone
        n, order = case
        assert h_global_series(n, order) == h_series_recurrence(n, order)

    def test_order_up_to_n_reads_no_vieta_lucas_coefficient(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("vieta_lucas_coeffs called")

        monkeypatch.setattr(catalan, "vieta_lucas_coeffs", refuse)
        for n, order in ((768, 256), (64, 64), (2, 2)):
            assert h_global_series(n, order) == h_series_recurrence(n, order)

    def test_trunk_congruence(self):
        # the library's closed form against the Cauchy product of its own
        # formula; the independent checks are test_matches_the_recurrence
        # and test_matches_exact_evaluation_at_every_r, which goes through
        # the parity binomials
        for R in range(1, 9):
            for n in range(R + 1, 17):
                assert verify_trunk(n, R)

    def test_trunk_range_guard(self):
        with pytest.raises(TrunkRangeError, match="range"):
            verify_trunk(5, 5)


# 1 + z*t - 3*t^3 and 1 + (z^2 - 1/3)*t + 5/7*t^2
ZT_FACTOR = [1, UniPoly([0, 1]), 0, -3]
MIXED_FACTOR = [1, UniPoly([Fraction(-1, 3), 0, 1]), Fraction(5, 7)]


@st.composite
def factor_coeffs(draw, max_tdeg=4):
    """Coefficients [1, q_1, ..., q_k] of a product factor, each q_j zero,
    a rational or a polynomial in z of degree <= 2."""
    rng = draw(st.randoms(use_true_random=False))
    coeffs = [1]
    for _ in range(draw(st.integers(1, max_tdeg))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            coeffs.append(0)
        elif kind == 1:
            coeffs.append(random_rational(rng, 9))
        else:
            coeffs.append(random_unipoly(rng, 2, bound=9))
    return coeffs


class TestExtraction:
    def test_h_family_matches_newton(self):
        for r in range(0, 13):
            assert h_family(r) == newton_h(r)

    def test_elementary_from_one_plus_t(self):
        # Q = 1 + t generates the elementary symmetric functions
        for r in range(0, 13):
            assert extract_coefficient_family(QPoly([1, 1]), r) == newton_e(r)

    def test_quadratic_example(self):
        # [s^2] prod (1 + s x_j + s^2 x_j^2) = e_2 + p_2
        got = extract_coefficient_family(QPoly([1, 1, 1]), 2)
        assert got == newton_e(2) + PowerSumExpr.gen(2)

    def test_unit_normalization_required(self):
        with pytest.raises(ValueError, match="not unit-normalized"):
            extract_coefficient_family(QPoly([2, 1]), 3)

    def test_against_direct_expansion(self, rng):
        # compare with literally multiplying out prod_j Q(z, s x_j) in
        # m = r variables and reading off the s^r coefficient
        cases = []
        for _ in range(12):
            tdeg = rng.randint(1, 3)
            r = rng.randint(1, 4)
            cases.append(([1] + [random_rational(rng, 6) for _ in range(tdeg)], r))
        # t^j coefficients in Q[z]
        for _ in range(12):
            tdeg = rng.randint(1, 3)
            r = rng.randint(1, 5)
            cases.append(([1] + [random_unipoly(rng, 2, bound=6) for _ in range(tdeg)], r))
        for r in range(1, 6):
            cases.append((ZT_FACTOR, r))
            cases.append((MIXED_FACTOR, r))
        for coeffs, r in cases:
            psi = extract_coefficient_family(QPoly(coeffs), r)
            assert expand(psi, r) == _direct_s_coefficient(coeffs, r)

    def test_no_reference_cycle_is_left(self):
        # the partition walk's rows are freed when extraction returns, not
        # at the next run of the cyclic garbage collector
        gc.collect()
        gc.disable()
        try:
            extract_coefficient_family(QPoly([1, UniPoly([0, 1]), 3]), 8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=150)
    @given(coeffs=factor_coeffs(), r=st.integers(0, 12))
    @example(coeffs=[1, 1], r=18)
    @example(coeffs=[1] * 19, r=18)
    @example(coeffs=[1, 0, 1], r=9)
    @example(coeffs=ZT_FACTOR, r=12)
    @example(coeffs=MIXED_FACTOR, r=10)
    def test_integer_walk_matches_fraction_walk(self, coeffs, r):
        # the same terms, inserted in the same order, as the walk over
        # UniPoly weights in tests/reference.py
        got = extract_coefficient_family(QPoly(coeffs), r)
        ref = fraction_extract(QPoly(coeffs), r)
        assert_canonical(got)
        assert got == ref
        assert list(got.terms) == list(ref.terms)


def _direct_s_coefficient(coeffs, r):
    """[s^r] prod_{j=1}^{r} Q(z, s x_j) in the monomial-orbit basis, by
    expanding the product over per-variable term choices."""
    import itertools

    m = r
    raw = {}
    choices = range(len(coeffs))
    for pick in itertools.product(choices, repeat=m):
        if sum(pick) != r:
            continue
        c = UniPoly([1])
        for k in pick:
            c = c * coeffs[k]
        key = tuple(pick)
        raw[key] = raw.get(key, UniPoly()) + c
    return SymMonomialPoly.from_monomials(
        m, {k: v for k, v in raw.items() if not v.is_zero()}
    )
