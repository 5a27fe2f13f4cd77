"""Acceptance gate: twelve end-to-end guarantees, one reported line each.

Each criterion prints a single PASS/FAIL line on the real stdout so the
outcome is visible even under pytest's capture.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import mpmath

from cyclosum.catalan import (
    catalan_a,
    extract_coefficient_family,
    h_family,
    h_global_series,
)
from cyclosum.exactcore import UniPoly
from cyclosum.invariants import (
    QPoly,
    cos_power_sum,
    multiplicative_invariant,
    punctured_power_sum,
    sin_power_sum,
)
from cyclosum.oracle import exact_newton_powersums
from cyclosum.rigidity import AdmissibleFormula, evaluate, eventual_polynomial
from cyclosum.symfunc import PowerSumExpr

from conftest import random_powersum_expr, src_env
from reference import (
    Series,
    a_power_series,
    expand,
    h_stable,
    parity_binom,
    reduce_to_powersum,
    series_mul,
    verify_trunk,
)

v1, v2, v3 = (PowerSumExpr.gen(r) for r in (1, 2, 3))
z = PowerSumExpr.z()


def _criterion(num, desc):
    def deco(fn):
        def wrapper(capsys):
            try:
                fn()
            except BaseException:
                with capsys.disabled():
                    print(f"criterion {num:2d}: FAIL  {desc}")
                raise
            with capsys.disabled():
                print(f"criterion {num:2d}: PASS  {desc}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


@_criterion(1, "quadratic energy equals n(n-3)/2 for 3 <= n <= 50, plus Q[n] identity")
def test_criterion_01_quadratic_energy():
    F = AdmissibleFormula(z * v2 - v1**2)
    for n in range(3, 51):
        assert evaluate(F, n).value == Fraction(n * (n - 3), 2)
    assert eventual_polynomial(F) == UniPoly(
        [0, Fraction(-3, 2), Fraction(1, 2)]
    )


@_criterion(2, "mixed cubic sum_{i!=j} x_i^2 x_j equals (4-n)/2 for 4 <= n <= 50")
def test_criterion_02_mixed_cubic():
    F = AdmissibleFormula(v2 * v1 - v3)
    for n in range(4, 51):
        assert evaluate(F, n).value == Fraction(4 - n, 2)


@_criterion(3, "evaluate of e(5) at n = 8 equals -1/4")
def test_criterion_03_elementary_fixture():
    F = AdmissibleFormula(extract_coefficient_family(QPoly([1, 1]), 5))
    report = evaluate(F, 8)
    assert report.value == Fraction(-1, 4)
    assert report.mode == "stable"


@_criterion(4, "pure products match n^2/2^(n-1) and the parity-split n^2/4^(n-1)")
def test_criterion_04_pure_products():
    linear = QPoly([1, -1])
    even = QPoly([1, 0, -1])
    for n in range(2, 31):
        assert multiplicative_invariant(linear, n) == Fraction(n**2, 2 ** (n - 1))
        expected = Fraction(n**2, 4 ** (n - 1)) if n % 2 else Fraction(0)
        assert multiplicative_invariant(even, n) == expected


@_criterion(5, "trig power sums match 256-bit direct sums; sine accumulator exactly real")
def test_criterion_05_heat_kernel_formulas():
    with mpmath.workprec(256):
        tol = mpmath.mpf(10) ** -25
        for n in range(1, 21):
            angles = [2 * mpmath.pi * k / n for k in range(n)]
            for h in range(0, 21):
                c_direct = mpmath.fsum(mpmath.cos(a) ** h for a in angles)
                s_direct = mpmath.fsum(mpmath.sin(a) ** h for a in angles)
                c = cos_power_sum(n, h)
                s = sin_power_sum(n, h)
                assert abs(c_direct - mpmath.mpf(c.numerator) / c.denominator) < tol
                assert abs(s_direct - mpmath.mpf(s.numerator) / s.denominator) < tol
                # replay the accumulator of i^(rn) b_r with integer parity
                # and demand an exact zero imaginary part
                im = 0
                for r in range(-(h // n), h // n + 1):
                    b = parity_binom(h, Fraction(r * n + h, 2))
                    if b and (r * n) % 2:
                        im += b if (r * n) % 4 == 1 else -b
                assert im == 0


@_criterion(6, "stable P_h closed form holds exactly for h < n <= 40, h <= 12")
def test_criterion_06_stable_power_sums():
    import math

    for h in range(1, 13):
        expected_const = -(2**h)
        for n in range(h + 1, 41):
            got = punctured_power_sum(n, h)
            if h % 2 == 0:
                assert got == n * math.comb(h, h // 2) + expected_const
            else:
                assert got == expected_const


@_criterion(7, "h_r identities and the three-way consistency triangle for 2 <= r <= 8")
def test_criterion_07_h_family_suite():
    cubic = UniPoly([0, Fraction(5, 96), Fraction(3, 128), Fraction(1, 384)])
    assert h_stable(6) == cubic
    assert h_stable(7) == -cubic
    assert Fraction(h_global_series(9, 7)[7], 2**7) == Fraction(-273, 64)
    eventuals = {
        r: eventual_polynomial(AdmissibleFormula(h_family(r))) for r in range(2, 9)
    }
    for n in range(4, 21):
        H = h_global_series(n, min(8, n - 1))
        for r in range(2, 9):
            if n < r + 2:
                continue
            val = h_stable(r)(Fraction(n))
            assert Fraction(H[r], 2**r) == val
            assert eventuals[r](Fraction(n)) == val


@_criterion(8, "trunk congruence verify_trunk(n, R) for 1 <= R <= 8, R < n <= 16")
def test_criterion_08_trunk_congruence():
    for R in range(1, 9):
        for n in range(R + 1, 17):
            assert verify_trunk(n, R)


@_criterion(9, "Catalan coefficients: closed form, recurrence, Pochhammer, functional eq")
def test_criterion_09_catalan_suite():
    def rising(x, l):
        out = Fraction(1)
        for i in range(l):
            out *= x + i
        return out

    for l in range(0, 13):
        for n in range(1, 31):
            a = catalan_a(l, n)
            if l >= 1:
                assert a == catalan_a(l, n - 1) + Fraction(1, 4) * catalan_a(
                    l - 1, n + 1
                )
            assert a == rising(Fraction(n, 2), l) * rising(
                Fraction(n + 1, 2), l
            ) / (rising(Fraction(n + 1), l) * rising(Fraction(1), l))
    order = 20
    A = a_power_series(1, order)
    sq = series_mul(A, A)
    rhs = [Fraction(0)] * (order + 1)
    rhs[0] = Fraction(1)
    for k in range(2, order + 1):
        rhs[k] = sq.coeffs[k - 2] / 4
    assert A == Series(rhs, order, "t")


@_criterion(10, "Newton-identity oracle agrees with the parity-binomial route")
def test_criterion_10_two_oracle_agreement():
    for n in range(2, 41):
        ps = exact_newton_powersums(n, 12)
        for j in range(1, 13):
            assert ps[j - 1] == punctured_power_sum(n, j) / Fraction(2**j)


@_criterion(11, "property suite: 200 round trips, 50 eventual checks, 20 product splits")
def test_criterion_11_property_suite():
    rng = random.Random(11)
    for _ in range(200):
        psi = random_powersum_expr(rng, rng.randint(1, 6))
        d = max(psi.weighted_degree, 1)
        assert reduce_to_powersum(expand(psi, d), d) == psi
    for _ in range(50):
        F = AdmissibleFormula(random_powersum_expr(rng, rng.randint(1, 5)))
        R = eventual_polynomial(F)
        for n in range(F.n_star, 26):
            assert R(Fraction(n)) == evaluate(F, n).value
    factors = [QPoly([1, -1]), QPoly([1, 1]), QPoly([1, 0, -1])]
    for _ in range(20):
        psi = random_powersum_expr(rng, rng.randint(0, 3))
        prods = [
            (rng.choice(factors), rng.randint(1, 2))
            for _ in range(rng.randint(1, 2))
        ]
        F = AdmissibleFormula(psi, prods)
        bare = AdmissibleFormula(psi)
        for n in (F.n_star, F.n_star + 3, F.n_star + 7):
            expected = evaluate(bare, n).value
            for Q, mult in F.products:
                expected *= multiplicative_invariant(Q, n) ** mult
            assert evaluate(F, n).value == expected


@_criterion(12, "CLI contract: documented invocations, exit codes, exact JSON values")
def test_criterion_12_cli_contract():
    def run_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "cyclosum", *argv],
            capture_output=True,
            text=True,
            env=src_env(),
        )

    res = run_cli("power-sum", "--n", "10", "--h", "4")
    assert res.returncode == 0 and res.stdout.strip() == "44"

    res = run_cli(
        "verify",
        "--formula",
        "energy",
        "--conjecture",
        "(n^2-3*n)/2",
        "--below-threshold",
    )
    assert res.returncode == 1
    assert "symbolic (all n >= 4): PASS" in res.stdout
    assert "n=2" in res.stdout and "MISMATCH" in res.stdout

    res = run_cli("hseries", "--n", "9", "--order", "7", "--format", "json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["coefficients"][-1] == "-273/64"
    assert all(isinstance(c, str) for c in payload["coefficients"])

    assert run_cli("no-such-command").returncode == 2
