import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclosum.catalan import extract_coefficient_family, h_family
from cyclosum.exactcore import UniPoly
from cyclosum.invariants import QPoly
from cyclosum.symfunc import PowerSumExpr

from conftest import assert_canonical, powersum_exprs, random_powersum_expr, reference_substitute
from reference import (
    BelowStableCountError,
    NotSymmetricError,
    SymMonomialPoly,
    expand,
    fraction_mul,
    fraction_power,
    reduce_to_powersum,
    truncation_check,
)

v1, v2, v3 = PowerSumExpr.gen(1), PowerSumExpr.gen(2), PowerSumExpr.gen(3)
z = PowerSumExpr.z()
half = Fraction(1, 2)


def e_family(r):
    # Q = 1 + t generates the elementary symmetric functions
    return extract_coefficient_family(QPoly([1, 1]), r)


class TestNewtonConversions:
    def test_e1(self):
        assert e_family(1) == v1

    def test_e2(self):
        assert e_family(2) == (v1**2 - v2).scale(half)

    def test_e3(self):
        expected = (v1**3 - 3 * v1 * v2 + 2 * v3).scale(Fraction(1, 6))
        assert e_family(3) == expected

    def test_e0_is_one(self):
        assert e_family(0) == PowerSumExpr.const(1)

    def test_h1(self):
        assert h_family(1) == v1

    def test_h2(self):
        assert h_family(2) == (v1**2 + v2).scale(half)

    def test_h4(self):
        v4 = PowerSumExpr.gen(4)
        expected = (
            v1**4 + 6 * v1**2 * v2 + 3 * v2**2 + 8 * v1 * v3 + 6 * v4
        ).scale(Fraction(1, 24))
        assert h_family(4) == expected

    def test_newton_duality(self):
        # sum_{i=0}^{r} (-1)^i e_i h_{r-i} = 0 for r >= 1
        for r in range(1, 11):
            acc = PowerSumExpr()
            for i in range(r + 1):
                term = e_family(i) * h_family(r - i)
                acc = acc + (term if i % 2 == 0 else -term)
            assert not acc.rows

    def test_determinant_agreement(self):
        # e_r = (1/r!) det of the Girard-Newton matrix in raw p-variables
        for r in range(1, 7):
            rows = []
            for i in range(r):
                row = []
                for j in range(r):
                    if j == i + 1:
                        row.append(PowerSumExpr.const(i + 1))
                    elif j <= i:
                        row.append(PowerSumExpr.gen(i - j + 1))
                    else:
                        row.append(PowerSumExpr())
                rows.append(row)
            det = _det(rows)
            assert det.scale(Fraction(1, _factorial(r))) == e_family(r)


def _factorial(r):
    out = 1
    for k in range(2, r + 1):
        out *= k
    return out


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = PowerSumExpr()
    for j in range(n):
        entry = rows[0][j]
        if not entry.rows:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entry * _det(minor)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


class TestExpand:
    def test_single_power_sum(self):
        got = expand(v2, 3)
        assert got == SymMonomialPoly(3, {(2,): 1})

    def test_energy_family(self):
        psi = z * v2 - v1**2
        for m in (2, 3, 4):
            got = expand(psi, m)
            expected = SymMonomialPoly(
                m,
                {(2,): UniPoly([-1, 1]), (1, 1): -2},
            )
            assert got == expected

    def test_e2_at_two_variables(self):
        assert expand(e_family(2), 2) == SymMonomialPoly(2, {(1, 1): 1})

    def test_ring_homomorphism(self, rng):
        for _ in range(20):
            a = random_powersum_expr(rng, 3)
            b = random_powersum_expr(rng, 3)
            m = rng.randint(3, 5)
            assert expand(a * b, m) == expand(a, m) * expand(b, m)


class TestReduce:
    def test_round_trip_square(self):
        psi = v1**2
        assert reduce_to_powersum(expand(psi, 3), 2) == psi

    def test_quadratic_energy_from_monomials(self):
        # E_m = m p_2 - p_1^2 with the explicit m encoded as z
        G = SymMonomialPoly(3, {(2,): UniPoly([-1, 1]), (1, 1): -2})
        assert reduce_to_powersum(G, 2) == z * v2 - v1**2

    def test_h3_round_trip(self):
        psi = h_family(3)
        assert reduce_to_powersum(expand(psi, 3), 3) == psi

    def test_below_stable_count(self):
        G = expand(h_family(3), 2)
        with pytest.raises(BelowStableCountError, match="below stable variable count"):
            reduce_to_powersum(G, 3)

    def test_non_symmetric_rejected(self):
        raw = {(2, 0): UniPoly([1])}
        with pytest.raises(NotSymmetricError):
            SymMonomialPoly.from_monomials(2, raw)

    def test_round_trip_random(self, rng):
        # stable uniqueness at the level where it is literally true
        for _ in range(40):
            d = rng.randint(1, 6)
            psi = random_powersum_expr(rng, d)
            d = max(psi.weighted_degree, 1)
            for m in (d, d + 1):
                assert reduce_to_powersum(expand(psi, m), d) == psi


class TestTruncation:
    def test_product_monomial(self):
        assert truncation_check(v1 * v2, 2)

    def test_e3(self):
        assert truncation_check(e_family(3), 3)

    def test_random(self, rng):
        for _ in range(20):
            psi = random_powersum_expr(rng, 4)
            assert truncation_check(psi, 5)


class TestRendering:
    def test_energy(self):
        assert str(z * v2 - v1**2) == "-p1^2 + z*p2"

    def test_zero(self):
        assert str(PowerSumExpr()) == "0"

    def test_rational_and_power(self):
        psi = v2.scale(Fraction(1, 2)) + v1**2 * z
        assert str(psi) == "z*p1^2 + 1/2*p2"


class TestIntegerKernel:
    @settings(max_examples=300)
    @given(psi=powersum_exprs(), count=st.integers(1, 3), data=st.data())
    def test_matches_reference_substitution(self, psi, count, data):
        # 1 to 3 levels in one call, each with any integers P_h and z and
        # its own d = len(P) at or above the weighted degree
        levels = []
        for _ in range(count):
            size = psi.weighted_degree + data.draw(st.integers(0, 3))
            P = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size))
            levels.append((P, data.draw(st.integers(-50, 50))))
        got = psi.substitute(levels)
        assert len(got) == count
        for value, (P, zval) in zip(got, levels):
            gen_values = {h: Fraction(P[h - 1], 2**h) for h in range(1, len(P) + 1)}
            assert isinstance(value, Fraction)
            assert value == reference_substitute(psi, gen_values, Fraction(zval))


class TestFold:
    """fold sets some generators to integer power sums and keeps the rest;
    substituting the rest then gives the value of the whole."""

    @settings(max_examples=300)
    @given(psi=powersum_exprs(), data=st.data())
    @example(psi=h_family(12), data=None)
    @example(psi=z**3 * v2 - z * v1**2 + v3 * v1 - v2 * v2, data=None)
    @example(psi=v1**3 - v1**3, data=None)
    def test_fold_then_substitute(self, psi, data):
        d = psi.weighted_degree
        if data:
            P = data.draw(st.lists(st.integers(-10**4, 10**4), min_size=d, max_size=d))
            zval = data.draw(st.integers(-20, 20))
            folded_hs = data.draw(st.sets(st.integers(1, max(d, 1)))) & set(range(1, d + 1))
        else:  # the odd generators at their stable values -2^h
            P, zval = [-(2**h) if h % 2 else 3 * h for h in range(1, d + 1)], 5
            folded_hs = set(range(1, d + 1, 2))
        folded = psi.fold({h: P[h - 1] for h in folded_hs})
        assert_canonical(folded)
        assert all(len(k) < h or not k[h - 1] for k in folded.rows for h in folded_hs)
        assert folded.substitute([(P, zval)]) == psi.substitute([(P, zval)])

    def test_terms_that_differ_in_folded_exponents_merge(self):
        # v1 := -1: z*v1*v2 + v2 - v1^2*v3 -> (1 - z)*v2 - v3
        psi = z * v1 * v2 + v2 - v1**2 * v3
        assert psi.fold({1: -2}) == PowerSumExpr({(0, 1): UniPoly([1, -1]), (0, 0, 1): -1})
        assert psi.fold({}) == psi
        assert (v1 - v1).fold({1: -2}) == PowerSumExpr()


# Sparse z-coefficients, whose zero entries the product skips, and a sum
# whose z^0 part cancels while its z part stays.
SPARSE_A = z**5 * v1 + v2 - z**3 * v1**2
SPARSE_B = z**5 * v1 - v2 + 3 * z**4


class TestArithmeticAgainstSubstitution:
    """The parser builds every formula with + - * ^; each must agree with
    the integer kernel applied to its parts at random integer P and z."""

    @staticmethod
    def _point(data, size):
        P = data.draw(st.lists(st.integers(-10**4, 10**4), min_size=size, max_size=size))
        return P, data.draw(st.integers(-20, 20))

    @settings(max_examples=200)
    @given(a=powersum_exprs(max_d=9), b=powersum_exprs(max_d=9), data=st.data())
    @example(a=SPARSE_A, b=SPARSE_B, data=None)
    @example(a=SPARSE_A, b=-SPARSE_A, data=None)
    @example(a=v1 * v2 + v3 + z * v1 * v2, b=-v1 * v2, data=None)
    def test_sum_difference_and_product(self, a, b, data):
        size = a.weighted_degree + b.weighted_degree
        P, zval = self._point(data, size) if data else (list(range(3, 3 + size)), 7)
        at = lambda psi: psi.substitute([(P, zval)])[0]
        assert at(a + b) == at(a) + at(b)
        assert at(a - b) == at(a) - at(b)
        assert at(a * b) == at(a) * at(b)

    @settings(max_examples=100)
    @given(a=powersum_exprs(max_d=6), k=st.integers(0, 5), data=st.data())
    @example(a=SPARSE_A, k=5, data=None)
    @example(a=z**5 * v1, k=3, data=None)
    def test_power(self, a, k, data):
        size = max(k, 1) * a.weighted_degree
        P, zval = self._point(data, size) if data else (list(range(-2, size - 2)), -3)
        assert (a**k).substitute([(P, zval)]) == [a.substitute([(P, zval)])[0] ** k]

    def test_sparse_product_is_exact(self):
        assert (z**5 * v1) * (z**5 * v1) == PowerSumExpr(
            {(2,): UniPoly([0] * 10 + [1])}
        )

    @given(a=powersum_exprs(max_d=9), b=powersum_exprs(max_d=9))
    @example(a=v1 * v2 + v3, b=z * v1 * v2 - v1 * v2)
    def test_sum_keeps_term_order(self, a, b):
        # a's monomials first, then b's new ones, each in its own order; a
        # monomial whose coefficient changes keeps its place
        total = (a + b).terms
        expected = [k for k in a.terms if k in total]
        expected += [k for k in b.terms if k not in a.terms and k in total]
        assert list(total) == expected


class TestCanonicalForm:
    """Every result of the arithmetic is stored in the one integer form,
    and so compares and hashes structurally."""

    @settings(max_examples=200)
    @given(a=powersum_exprs(max_d=6), b=powersum_exprs(max_d=6), k=st.integers(0, 4),
           c=st.fractions(-100, 100, max_denominator=30))
    @example(a=SPARSE_A, b=-SPARSE_A, k=0, c=Fraction(0))
    @example(a=z * v1 + v2.scale(half), b=z * v1 - v2.scale(half), k=3, c=Fraction(4, 6))
    @example(a=v1.scale(half), b=v1.scale(half), k=2, c=Fraction(2))
    def test_results_are_canonical(self, a, b, k, c):
        for psi in (a, b, a + b, a - b, -a, a * b, a**k, a.scale(c), c * a, a + c):
            assert_canonical(psi)


def _same_terms_in_same_order(got, ref):
    assert got == ref
    assert list(got.terms) == list(ref.terms)


class TestIntegerProductAgainstFractions:
    """The product multiplies integer rows over one denominator; the
    Fraction loop of tests/reference.py must give the same terms, inserted
    in the same order."""

    # zero and constant operands, sparse z-coefficients, and products
    # whose cross terms cancel: z*p1*p2 in the last one
    @settings(max_examples=200)
    @given(a=powersum_exprs(max_d=9), b=powersum_exprs(max_d=9))
    @example(a=PowerSumExpr(), b=SPARSE_A)
    @example(a=SPARSE_B, b=PowerSumExpr())
    @example(a=PowerSumExpr.const(Fraction(-3, 7)), b=SPARSE_B)
    @example(a=PowerSumExpr.const(Fraction(5, 2)), b=PowerSumExpr.const(Fraction(4, 15)))
    @example(a=SPARSE_A, b=SPARSE_B)
    @example(a=SPARSE_A + SPARSE_B, b=SPARSE_A - SPARSE_B)
    @example(a=z * v1 + v2.scale(Fraction(2, 3)), b=z * v1 - v2.scale(Fraction(2, 3)))
    def test_product(self, a, b):
        _same_terms_in_same_order(a * b, fraction_mul(a, b))

    @settings(max_examples=100)
    @given(a=powersum_exprs(max_d=4), k=st.integers(0, 8))
    @example(a=PowerSumExpr(), k=0)
    @example(a=PowerSumExpr(), k=3)
    @example(a=PowerSumExpr.const(Fraction(2, 3)), k=7)
    @example(a=SPARSE_A, k=8)
    @example(a=v1 + v2 + z, k=8)
    def test_power(self, a, k):
        _same_terms_in_same_order(a**k, fraction_power(a, k))
