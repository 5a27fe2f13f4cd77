import dataclasses
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

from cyclosum import oracle
from cyclosum.dsl import parse_formula
from cyclosum.exactcore import UniPoly
from cyclosum.invariants import QPoly, punctured_min_poly, punctured_power_sum
from cyclosum.oracle import (
    cosine_points,
    cross_check,
    exact_newton_powersums,
    float_eval,
)
from cyclosum.catalan import h_family
from cyclosum.rigidity import AdmissibleFormula, evaluate
from cyclosum.symfunc import PowerSumExpr

from conftest import cli_json, dyadic, powersum_exprs
from reference import cosine_points_per_point

v1, v2 = PowerSumExpr.gen(1), PowerSumExpr.gen(2)
z = PowerSumExpr.z()


def close(a, b, bits=200):
    with mpmath.workprec(bits + 56):
        return abs(a - b) < mpmath.mpf(2) ** -bits


def fixed(x, precision=256):
    """A fixed-point cosine point as an mpf, exactly."""
    return dyadic(x, -precision)


def within(a, b, bits=200):
    return abs(a - b) < Fraction(1, 2**bits)


def frac(x):
    return Fraction(*to_rational(x._mpf_))


class TestCosinePoints:
    def test_n_four(self):
        pts = [fixed(x) for x in cosine_points(4)]
        assert len(pts) == 2  # k = 1, 2; k = 3 mirrors k = 1
        assert close(pts[0], 0)
        assert close(pts[1], -1)

    def test_n_three(self):
        pts = [fixed(x) for x in cosine_points(3)]
        assert len(pts) == 1  # k = 2 mirrors k = 1
        assert close(pts[0], mpmath.mpf(-1) / 2)

    def test_n_eight_symmetry(self):
        pts = [fixed(x) for x in cosine_points(8)]
        assert len(pts) == 4
        with mpmath.workprec(256):
            assert close(pts[0], mpmath.sqrt(2) / 2)
            assert close(pts[0], -pts[2])
            assert close(pts[1], 0)
            assert close(pts[3], -1)

    def test_within_one_unit(self):
        for n in (2, 5, 12, 97, 320):
            for precision in (64, 256):
                pts = cosine_points(n, precision)
                with mpmath.workprec(2 * precision):
                    for k, x in enumerate(pts, start=1):
                        exact = mpmath.ldexp(mpmath.cos(2 * mpmath.pi * k / n), precision)
                        assert abs(x - exact) <= 1

    @pytest.mark.parametrize("precision", [64, 128, 256, 512])
    def test_correctly_rounded(self, precision):
        # every point is the integer nearest 2^precision cos(2 pi k/n),
        # against a reference of 2 precision + 64 bits that is itself
        # far from a rounding tie
        for n in range(2, 301):
            pts = cosine_points(n, precision)
            with mpmath.workprec(2 * precision + 64):
                step = 2 * mpmath.pi / n
                for k, x in enumerate(pts, start=1):
                    exact = mpmath.ldexp(mpmath.cos(step * k), precision)
                    ref = int(mpmath.nint(exact))
                    assert abs(abs(exact - ref) - 0.5) > mpmath.mpf(2) ** -32
                    assert x == ref, (n, k)

    @pytest.mark.parametrize("precision", [64, 128, 256, 512])
    def test_even_mirror_is_exact(self, precision):
        for n in range(2, 301, 2):
            pts = cosine_points(n, precision)
            assert pts[-1] == -(1 << precision)
            for k in range(1, n // 2):
                assert pts[n // 2 - k - 1] == -pts[k - 1], (n, k)

    def test_ziv_retry_gives_the_same_points(self, monkeypatch):
        # With 1 guard bit every point fails the rounding test and retries
        # with 2, 4, ... guard bits until its error bound is small enough.
        expected = {(k, n): oracle._cos_turns(k, n, 64) for n in (7, 12, 97) for k in
                    range(1, n // 4 + 1)}
        monkeypatch.setattr(oracle, "_ZIV_GUARD", 1)
        assert {key: oracle._cos_turns(*key, 64) for key in expected} == expected

    @pytest.mark.parametrize("precision,levels", [
        (64, range(2, 701)),
        (256, range(2, 701)),
        (1024, [31, 62, 189, 256, 511, 998, 999, 1000]),
        (4096, [5, 64, 97, 130]),
    ])
    def test_rotation_matches_the_series_per_point(self, precision, levels):
        # the uncached rotation against one series per point; at 1024
        # bits, levels 31, 62 and 189 each take the fallback for a point
        for n in levels:
            assert cosine_points.__wrapped__(n, precision) == \
                cosine_points_per_point(n, precision), n

    @staticmethod
    def _fallbacks(monkeypatch, precision):
        """Record the (a, b) of every _cos_turns call at `precision` bits:
        the rotation's seeds run at more bits, its fallbacks at exactly
        `precision`."""
        calls = []
        series = oracle._cos_turns

        def counted(a, b, bits):
            if bits == precision:
                calls.append((a, b))
            return series(a, b, bits)

        monkeypatch.setattr(oracle, "_cos_turns", counted)
        return calls

    def test_every_point_can_fall_back(self, monkeypatch):
        # With a bound wider than any rounding interval, Ziv's test fails
        # at every rotated point and each one comes from its own series.
        calls = self._fallbacks(monkeypatch, 64)
        monkeypatch.setattr(oracle, "_ROTATION_STEP_ERROR", 1 << 200)
        for n in [*range(2, 40), 97, 128]:
            del calls[:]
            assert cosine_points.__wrapped__(n, 64) == cosine_points_per_point(n, 64), n
            b = n if n % 2 == 0 else 2 * n
            assert calls == [(j, b) for j in range(1, b // 4 + 1)], n

    def test_no_point_falls_back_on_the_benchmark_levels(self, monkeypatch):
        calls = self._fallbacks(monkeypatch, 256)
        for n in range(16, 321):
            cosine_points.__wrapped__(n, 256)
        assert calls == []

    def test_roots_of_min_poly(self):
        # the independent float points must be roots of the exact W_n
        for n in [*range(2, 21), 64, 128]:
            W = punctured_min_poly(n)
            with mpmath.workprec(256):
                cs = [mpmath.mpf(c.numerator) / c.denominator for c in W.coeffs]
                for x in cosine_points(n):
                    p = fixed(x)
                    val = mpmath.mpf(0)
                    for c in reversed(cs):
                        val = val * p + c
                    assert abs(val) < mpmath.mpf(2) ** -200


class TestFloatEval:
    def test_energy(self):
        F = AdmissibleFormula(z * v2 - v1**2)
        value, _ = float_eval(F, 10)
        assert within(value, 35)

    def test_product(self):
        F = AdmissibleFormula(PowerSumExpr.const(1), [(QPoly([1, -1]), 1)])
        value, _ = float_eval(F, 6)
        assert within(value, Fraction(36, 32))

    def test_below_threshold(self):
        F = AdmissibleFormula(h_family(4))
        # exact general-regime value at n = 3, below n_star = 6
        expected = float(evaluate(F, 3).value)
        value, _ = float_eval(F, 3)
        assert within(value, Fraction(expected), bits=40)


def reference_float_eval(F, n, precision):
    """The earlier float route: mpf arithmetic over all n - 1 points,
    p**h for every h, and every Q evaluated at every point."""
    with mpmath.workprec(precision):
        two_pi = 2 * mpmath.pi
        pts = [mpmath.cos(two_pi * k / n) for k in range(1, n)]
        zz = Fraction(n - 1)
        psums = {}
        for h in range(1, F.psi_star.max_gen() + 1):
            psums[h] = mpmath.fsum(p**h for p in pts)
        total = mpmath.mpf(0)
        for exps, c in F.psi_star.terms.items():
            cz = c(zz)
            term = mpmath.mpf(cz.numerator) / cz.denominator
            for i, e in enumerate(exps):
                if e:
                    term *= psums[i + 1] ** e
            total += term
        for Q, mult in F.products:
            qcs = [mpmath.mpf(c.numerator) / c.denominator
                   for c in Q.specialize_z(n - 1).coeffs]
            prod = mpmath.mpf(1)
            for p in pts:
                val = mpmath.mpf(0)
                for cc in reversed(qcs):
                    val = val * p + cc
                prod *= val
            total *= prod**mult
        return total


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def qpolys(draw):
    """Unit-normalized Q of degree <= 3, with or without z."""
    with_z = draw(st.booleans())
    coeffs = [1]
    for _ in range(draw(st.integers(1, 3))):
        c = draw(small_rationals)
        if with_z and draw(st.booleans()):
            c = UniPoly([c, draw(small_rationals)])
        coeffs.append(c)
    return QPoly(coeffs)


def check_bound(F, n, precision):
    """No false FAIL: the float value is within its bound of the exact
    value, and of the earlier route's value at twice the precision."""
    value, bound = float_eval(F, n, precision)
    assert abs(value - evaluate(F, n).value) <= bound
    ref = reference_float_eval(F, n, 2 * precision)
    assert abs(value - frac(ref)) <= bound


# The formulas of the crosscheck benchmark workload.
WORKLOAD_FORMULAS = [
    "p2*prod(1 - t)^2", "prod(1 + 4*t)", "(p1^2*p20 + p11)", "energy^2",
    "prod(1 + z*t - 3*t^3)", "mixed(2,3)", "e(5)",
    "energy*prod(1 - t + 2*t^2)", "(h(6) + z*p3)",
    "(z*p1*p17 + (-1)*p9^2)", "prod(1 - t + 2*t^2)",
]


class TestErrorBound:
    @settings(max_examples=150)
    @given(
        psi=powersum_exprs(),
        qs=st.lists(qpolys(), max_size=2),
        n=st.integers(2, 400),
        precision=st.sampled_from([64, 128, 256]),
    )
    def test_bound_holds_and_matches_reference(self, psi, qs, n, precision):
        check_bound(AdmissibleFormula(psi, [(Q, 1) for Q in qs]), n, precision)

    @pytest.mark.parametrize("text", WORKLOAD_FORMULAS)
    def test_workload_formulas(self, text):
        for n, precision in [(2, 64), (16, 256), (57, 128), (320, 256)]:
            check_bound(parse_formula(text), n, precision)

    @pytest.mark.parametrize("precision", [64, 128])
    def test_nearly_vanishing_q(self, precision):
        # Q(1/2) = -2^-70 is below the fixed-point resolution at 64 bits
        # and above it at 128; F(n) is tiny but not 0.
        Q = QPoly([1, -(2 + Fraction(1, 2**69))])
        for n in (6, 12, 30):
            check_bound(AdmissibleFormula(v1, [(Q, 1)]), n, precision)
            check_bound(AdmissibleFormula(PowerSumExpr.const(1), [(Q, 2)]), n, precision)

    @pytest.mark.parametrize("text,n", [("h(13)", 100), ("(h(6) + z*p3)", 57),
                                        ("energy^2*prod(1 - t + 2*t^2)", 16),
                                        ("mixed(2,3)", 320)])
    def test_bound_does_not_depend_on_term_order(self, text, n):
        # The bound sums one binary log per term; summed in term order,
        # h(13) at n = 100 with its rows reversed got a bound a relative
        # 2e-14 lower.
        F = parse_formula(text)
        expected = float_eval(F, n)
        rows = list(F.psi_star.rows.items())
        rng = random.Random(n)
        for order in [rows[::-1]] + [rng.sample(rows, len(rows)) for _ in range(4)]:
            psi = PowerSumExpr.from_rows(F.psi_star.den, {k: list(row) for k, row in order})
            assert psi == F.psi_star
            assert float_eval(AdmissibleFormula(psi, F.products), n) == expected, order

    def test_precision_too_low_is_refused(self):
        F = AdmissibleFormula(v1 ** (1 << 50))
        with pytest.raises(ValueError, match="raise --precision"):
            float_eval(F, 50, 64)


class TestNewtonPowerSums:
    def test_small_levels(self):
        assert exact_newton_powersums(2, 3) == [
            Fraction(-1),
            Fraction(1),
            Fraction(-1),
        ]
        assert exact_newton_powersums(5, 2) == [Fraction(-1), Fraction(3, 2)]

    def test_two_oracle_agreement(self):
        # Newton route from W_n against the parity-binomial route, up to
        # the DSL's index cap of 32, past deg W_n for every n <= 32
        for n in range(2, 65):
            ps = exact_newton_powersums(n, 32)
            for j in range(1, 33):
                assert ps[j - 1] == Fraction(punctured_power_sum(n, j), 2**j)

    def test_beyond_degree(self):
        # indices past deg W_n exercise the truncated Newton recurrence
        ps = exact_newton_powersums(3, 6)
        assert ps == [Fraction((-1) ** j, 2 ** (j - 1)) for j in range(1, 7)]

    def test_large_level(self):
        # the h-series reads only the first d coefficients of W_n
        ps = exact_newton_powersums(5000, 32)
        assert ps == [Fraction(punctured_power_sum(5000, j), 2**j)
                      for j in range(1, 33)]


# Mutation cases: (formula, level), from 2.5e-109 to 1e701 in magnitude.
NONZERO_CASES = [
    ("p2*prod(1-t)^2", 200),
    ("prod(1 + 4*t)", 300),
    ("prod(1 + z*t - 3*t^3)", 320),
    ("h(6)", 9),
    ("mixed(4, 5)", 5),
]
# Exact value 0, four of them from a Q that vanishes at a cosine point.
ZERO_CASES = [
    ("prod(1+t)", 10),
    ("p1*prod(1+t)^2", 8),
    ("prod(1 - 2*t)", 6),
    ("prod(1 + 2*t)", 3),
    ("energy", 3),
]


def check_with_exact(monkeypatch, text, n, mutate):
    """cross_check with the exact value replaced by mutate(exact)."""
    def mutated(F, level):
        report = evaluate(F, level)
        return dataclasses.replace(report, value=mutate(report.value))

    monkeypatch.setattr(oracle, "evaluate", mutated)
    return cross_check(parse_formula(text), n)


class TestCrossCheck:
    def test_energy_stable(self):
        F = AdmissibleFormula(z * v2 - v1**2)
        rep = cross_check(F, 50)
        assert rep.passed
        assert rep.exact == 1175

    def test_h6_level_nine(self):
        F = AdmissibleFormula(h_family(6))
        rep = cross_check(F, 9)
        assert rep.passed
        assert rep.exact == Fraction(273, 64)

    def test_below_threshold_route(self):
        F = AdmissibleFormula(z * v2 - v1**2)
        rep = cross_check(F, 3)
        assert rep.passed
        assert rep.exact == 0

    def test_product_formula(self):
        F = AdmissibleFormula(v1, [(QPoly([1, 0, -1]), 1)])
        rep = cross_check(F, 7)
        assert rep.passed
        assert rep.exact == -Fraction(49, 4**6)

    def test_precision_scaling(self):
        # quadrupling the precision must not hurt; with exact rational
        # output the residual stays within the scaled tolerance
        F = AdmissibleFormula(h_family(5))
        lo = cross_check(F, 12, precision=128)
        hi = cross_check(F, 12, precision=512, tolerance=Fraction(1, 2**100 * 10**20))
        assert lo.passed and hi.passed

    def test_failure_detectable(self, monkeypatch):
        # The true value passes at every magnitude; a value off by a
        # factor 2, by a relative 2^-64, or 2^-200 in place of 0 fails.
        for text, n in NONZERO_CASES:
            assert check_with_exact(monkeypatch, text, n, lambda v: v).passed, text
            for mutate in (lambda v: 2 * v, lambda v: v * (1 + Fraction(1, 2**64))):
                assert not check_with_exact(monkeypatch, text, n, mutate).passed, text
        for text, n in ZERO_CASES:
            rep = check_with_exact(monkeypatch, text, n, lambda v: v)
            assert rep.exact == 0 and rep.passed, text
            mutant = check_with_exact(monkeypatch, text, n, lambda v: Fraction(1, 2**200))
            assert not mutant.passed, text

    def test_runs_without_math_exp2(self, monkeypatch):
        # math.exp2 is new in Python 3.11; the package supports 3.10
        monkeypatch.delattr("math.exp2", raising=False)
        for text, n in [("energy", 50), ("energy*prod(1 - t + 2*t^2)", 7)]:
            assert cross_check(parse_formula(text), n).passed

    def test_negative_tolerance_rejected(self):
        F = AdmissibleFormula(v1)
        with pytest.raises(ValueError, match="nonnegative"):
            cross_check(F, 7, tolerance=-1)
        rep = cross_check(F, 7, tolerance=0)
        assert rep.tolerance == 0 and type(rep.tolerance) is Fraction

    def test_string_tolerance_rejected(self):
        # a string would reach Fraction() past the CLI's exponent guard
        with pytest.raises(TypeError, match="cannot coerce str"):
            cross_check(parse_formula("p1"), 5, tolerance="1/1000")

    def test_report_dict(self):
        # the report holds exact values; the CLI builds its dict
        rc, d = cli_json("oracle", "--formula", "p1", "--n", "5")
        assert rc == 0
        assert d["quantity"] == "p1"
        assert d["exact"] == "-1"
        assert d["pass"] is True
        assert "residual" in d and "tolerance" in d


REFUSAL = "below 2\\^-32 of the value"


def assert_refusal_is_due(F, n, precision=256):
    """The default bound leaves a nonzero exact value unresolved."""
    exact = evaluate(F, n).value
    _, bound = float_eval(F, n, precision)
    assert exact != 0 and bound * 2**32 > abs(exact)


@st.composite
def wide_qpolys(draw):
    """A qpolys() factor, or 1 + c t with |c| up to 2^1200, which the
    chosen precision may fail to resolve."""
    if draw(st.booleans()):
        return draw(qpolys())
    return QPoly([1, draw(st.sampled_from([1, -1])) * 2 ** draw(st.integers(0, 1200))])


class TestRefusal:
    def test_unresolved_product_factor(self):
        F = parse_formula("prod(1 + 2^1100*t)")
        assert cross_check(F, 6).passed
        with pytest.raises(ValueError, match=REFUSAL):
            cross_check(F, 12)
        assert_refusal_is_due(F, 12)
        rep = cross_check(F, 12, precision=2048)
        assert rep.passed and rep.tolerance * 2**32 <= abs(rep.exact)
        # an explicit tolerance keeps the absolute check
        rep = cross_check(F, 12, tolerance=abs(evaluate(F, 12).value))
        assert rep.passed
        # a bound below the value by less than 2^-32 (here 2^-11) is
        # refused too
        F = parse_formula("prod(1 + 2^240*t)")
        with pytest.raises(ValueError, match=REFUSAL):
            cross_check(F, 12)
        assert_refusal_is_due(F, 12)
        assert cross_check(F, 12, precision=512).passed

    @settings(max_examples=100)
    @given(
        psi=powersum_exprs(max_d=6),
        qs=st.lists(wide_qpolys(), max_size=2),
        n=st.integers(2, 40),
        precision=st.sampled_from([64, 128, 256]),
    )
    def test_default_tolerance_resolves_the_value_or_is_refused(self, psi, qs, n, precision):
        F = AdmissibleFormula(psi, [(Q, 1) for Q in qs])
        try:
            rep = cross_check(F, n, precision=precision)
        except ValueError as exc:
            assert re.search(REFUSAL, str(exc)), exc
            assert_refusal_is_due(F, n, precision)
            return
        assert rep.passed
        if rep.exact != 0:
            assert rep.tolerance * 2**32 <= abs(rep.exact)


class TestCheckReport:
    @settings(max_examples=100)
    @given(
        psi=powersum_exprs(max_d=8),
        qs=st.lists(qpolys(), max_size=2),
        n=st.integers(2, 64),
        tolerance=st.one_of(st.none(), st.integers(0, 3),
                            st.fractions(min_value=0, max_denominator=10**40)),
    )
    def test_report_holds_exact_values(self, psi, qs, n, tolerance):
        F = AdmissibleFormula(psi, [(Q, 1) for Q in qs])
        try:
            rep = cross_check(F, n, tolerance=tolerance)
        except ValueError as exc:
            # only the default tolerance refuses an unresolved value
            assert tolerance is None and re.search(REFUSAL, str(exc)), exc
            assert_refusal_is_due(F, n)
            return
        value, bound = float_eval(F, n)
        assert rep.exact == evaluate(F, n).value
        assert rep.value == value
        assert rep.residual == abs(rep.value - rep.exact)
        assert rep.passed == (rep.residual <= rep.tolerance)
        assert rep.tolerance == (bound if tolerance is None else tolerance)
        assert all(type(x) is Fraction
                   for x in (rep.exact, rep.value, rep.residual, rep.tolerance))
