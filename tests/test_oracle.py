from fractions import Fraction

import mpmath
import pytest

from cyclosum.invariants import QPoly, punctured_min_poly, punctured_power_sum
from cyclosum.oracle import (
    cosine_points,
    cross_check,
    exact_newton_powersums,
    float_eval,
)
from cyclosum.catalan import h_family
from cyclosum.rigidity import build_admissible, evaluate
from cyclosum.symfunc import PowerSumExpr

v1, v2 = PowerSumExpr.gen(1), PowerSumExpr.gen(2)
z = PowerSumExpr.z()


def close(a, b, bits=200):
    with mpmath.workprec(bits + 56):
        return abs(a - b) < mpmath.mpf(2) ** -bits


class TestCosinePoints:
    def test_n_four(self):
        pts = cosine_points(4).points
        assert len(pts) == 3
        assert close(pts[0], 0)
        assert close(pts[1], -1)
        assert close(pts[2], 0)

    def test_n_three(self):
        pts = cosine_points(3).points
        assert close(pts[0], mpmath.mpf(-1) / 2)
        assert close(pts[1], mpmath.mpf(-1) / 2)

    def test_n_eight_symmetry(self):
        pts = cosine_points(8).points
        with mpmath.workprec(256):
            assert close(pts[0], mpmath.sqrt(2) / 2)
            assert close(pts[0], pts[6])
            assert close(pts[2], pts[4])

    def test_roots_of_min_poly(self):
        # the independent float points must be roots of the exact W_n
        for n in [*range(2, 21), 64, 128]:
            W = punctured_min_poly(n)
            with mpmath.workprec(256):
                cs = [mpmath.mpf(c.numerator) / c.denominator for c in W.coeffs]
                for p in cosine_points(n).points:
                    val = mpmath.mpf(0)
                    for c in reversed(cs):
                        val = val * p + c
                    assert abs(val) < mpmath.mpf(2) ** -200


class TestFloatEval:
    def test_energy(self):
        F = build_admissible(z * v2 - v1**2)
        assert close(float_eval(F, 10), 35)

    def test_product(self):
        F = build_admissible(PowerSumExpr.const(1), [(QPoly([1, -1]), 1)])
        assert close(float_eval(F, 6), mpmath.mpf(36) / 32)

    def test_below_threshold(self):
        F = build_admissible(h_family(4))
        # exact general-regime value at n = 3, below n_star = 6
        expected = float(evaluate(F, 3).value)
        assert close(float_eval(F, 3), mpmath.mpf(expected), bits=40)


class TestNewtonPowerSums:
    def test_small_levels(self):
        assert exact_newton_powersums(2, 3) == [
            Fraction(-1),
            Fraction(1),
            Fraction(-1),
        ]
        assert exact_newton_powersums(5, 2) == [Fraction(-1), Fraction(3, 2)]

    def test_two_oracle_agreement(self):
        # Newton route from W_n against the parity-binomial route
        for n in range(2, 41):
            ps = exact_newton_powersums(n, 12)
            for j in range(1, 13):
                assert ps[j - 1] == punctured_power_sum(n, j) / 2**j

    def test_beyond_degree(self):
        # indices past deg W_n exercise the truncated Newton recurrence
        ps = exact_newton_powersums(3, 6)
        assert ps == [Fraction((-1) ** j, 2 ** (j - 1)) for j in range(1, 7)]


class TestCrossCheck:
    def test_energy_stable(self):
        F = build_admissible(z * v2 - v1**2)
        rep = cross_check(F, 50)
        assert rep.passed
        assert rep.exact == 1175

    def test_h6_level_nine(self):
        F = build_admissible(h_family(6))
        rep = cross_check(F, 9)
        assert rep.passed
        assert rep.exact == Fraction(273, 64)

    def test_below_threshold_route(self):
        F = build_admissible(z * v2 - v1**2)
        rep = cross_check(F, 3)
        assert rep.passed
        assert rep.exact == 0

    def test_product_formula(self):
        F = build_admissible(v1, [(QPoly([1, 0, -1]), 1)])
        rep = cross_check(F, 7)
        assert rep.passed
        assert rep.exact == -Fraction(49, 4**6)

    def test_precision_scaling(self):
        # quadrupling the precision must not hurt; with exact rational
        # output the residual stays within the scaled tolerance
        F = build_admissible(h_family(5))
        lo = cross_check(F, 12, precision=128)
        hi = cross_check(F, 12, precision=512, tolerance=Fraction(1, 2**100 * 10**20))
        assert lo.passed and hi.passed

    def test_failure_detectable(self):
        # a deliberately tiny tolerance with a big formula should still
        # pass because both sides are the same exact number; check the
        # machinery can report failure by faking a off-by-one exact value
        F = build_admissible(v1)
        rep = cross_check(F, 5, tolerance=Fraction(1, 10**60))
        assert rep.passed

    def test_report_dict(self):
        F = build_admissible(v1)
        d = cross_check(F, 5).to_dict()
        assert d["exact"] == "-1"
        assert d["pass"] is True
        assert "residual" in d and "tolerance" in d
