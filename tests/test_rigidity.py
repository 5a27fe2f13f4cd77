from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclosum.catalan import h_family
from cyclosum.exactcore import UniPoly
from cyclosum.invariants import (
    InternalConsistencyError,
    QPoly,
    multiplicative_invariant,
    punctured_power_sum,
)
from cyclosum.rigidity import (
    AdmissibleFormula,
    ProductCaseError,
    evaluate,
    eventual_polynomial,
    verify_identity,
)
from cyclosum.symfunc import PowerSumExpr

from conftest import cli_json, powersum_exprs, random_powersum_expr, reference_substitute
from reference import h_stable, punctured_power_sum_stable

v1, v2 = PowerSumExpr.gen(1), PowerSumExpr.gen(2)
z = PowerSumExpr.z()


def energy():
    # sum over distinct pairs of (alpha_j - alpha_k)^2, up to the p-basis:
    # z*p2 - p1^2 with z standing for the variable count
    return AdmissibleFormula(z * v2 - v1**2)


class TestBuild:
    def test_threshold_derivation(self):
        F = energy()
        assert F.d == 2
        assert F.n_star == 4
        assert F.is_polynomial_case

    def test_product_datum(self):
        F = AdmissibleFormula(PowerSumExpr.const(1), [(QPoly([1, -1]), 2)])
        assert F.d == 0
        assert F.n_star == 2
        assert not F.is_polynomial_case

    def test_zero_exponent_dropped(self):
        F = AdmissibleFormula(v1, [(QPoly([1, -1]), 0)])
        assert F.is_polynomial_case

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AdmissibleFormula(v1, [(QPoly([1, -1]), -1)])

    @pytest.mark.parametrize("mult", [2.5, "3", Fraction(3)])
    def test_non_integer_exponent_rejected(self, mult):
        with pytest.raises(TypeError):
            AdmissibleFormula(PowerSumExpr.const(1), [(QPoly([1, -1]), mult)])

    def test_render(self):
        F = AdmissibleFormula(z * v2 - v1**2, [(QPoly([1, -1]), 1)])
        assert str(F) == "(-p1^2 + z*p2) * prod(1 - t)"
        assert str(energy()) == "-p1^2 + z*p2"
        G = AdmissibleFormula(PowerSumExpr.const(1), [(QPoly([1, 0, -1]), 3)])
        assert str(G) == "prod(1 - t^2)^3"


class TestStableEval:
    def test_energy_values(self):
        F = energy()
        assert evaluate(F, 5).value == 5
        assert evaluate(F, 10).value == 35
        assert evaluate(F, 50).value == 1175

    def test_report_contents(self):
        rep = evaluate(energy(), 6)
        assert rep.n == 6
        assert rep.mode == "stable"
        assert rep.power_sums == (-2, 8)
        assert all(type(p) is int for p in rep.power_sums)
        assert rep.product_values == ()

    def test_below_threshold_reports_general_mode(self):
        assert evaluate(energy(), 3).mode == "general"
        assert evaluate(energy(), 4).mode == "stable"
        with pytest.raises(ValueError, match="n must be >= 2"):
            evaluate(energy(), 1)

    def test_general_eval_below_threshold(self):
        F = energy()
        assert evaluate(F, 2).value == 0
        assert evaluate(F, 3).value == 0

    def test_general_matches_stable_in_range(self):
        # in the stable range the evaluation equals the stable closed form
        # P_h = n*binom(h, h/2) - 2^h substituted into psi_star
        F = AdmissibleFormula(h_family(4))
        R = eventual_polynomial(F)
        for n in range(F.n_star, 20):
            rep = evaluate(F, n)
            assert rep.mode == "stable"
            assert rep.value == R(Fraction(n))

    def test_product_factor_applied(self):
        Q = QPoly([1, -1])
        F = AdmissibleFormula(v1, [(Q, 2)])
        for n in (5, 8, 13):
            expected = evaluate(AdmissibleFormula(v1), n).value
            expected *= multiplicative_invariant(Q, n) ** 2
            assert evaluate(F, n).value == expected


class TestEventualPolynomial:
    def test_energy(self):
        got = eventual_polynomial(energy())
        assert got == UniPoly([0, Fraction(-3, 2), Fraction(1, 2)])

    def test_h6(self):
        F = AdmissibleFormula(h_family(6))
        assert eventual_polynomial(F) == h_stable(6)

    def test_h7_closed_form(self):
        # closed form -n(n+4)(n+5)/384, plus a spot value
        F = AdmissibleFormula(h_family(7))
        got = eventual_polynomial(F)
        expected = UniPoly([0, 1]) * UniPoly([4, 1]) * UniPoly([5, 1])
        expected = expected * Fraction(-1, 384)
        assert got == expected
        assert got(Fraction(9)) == Fraction(-273, 64)

    def test_agrees_with_stable_eval(self, rng):
        for _ in range(20):
            psi = random_powersum_expr(rng, 5)
            F = AdmissibleFormula(psi)
            R = eventual_polynomial(F)
            for n in range(F.n_star, F.n_star + 6):
                assert R(Fraction(n)) == evaluate(F, n).value

    def test_degree_bound(self, rng):
        # deg R <= (number of even-indexed p's counted with weight) + z-degree;
        # coarse but universal bound: d + max z-degree of the coefficients
        for _ in range(20):
            psi = random_powersum_expr(rng, 6, z_degree=2)
            F = AdmissibleFormula(psi)
            zdeg = max(c.degree for c in psi.terms.values())
            assert eventual_polynomial(F).degree <= F.d + zdeg

    def test_product_case_refused(self):
        F = AdmissibleFormula(v1, [(QPoly([1, -1]), 1)])
        with pytest.raises(ProductCaseError, match="polynomial case only"):
            eventual_polynomial(F)

    def test_extra_level_disagreement_raises(self, monkeypatch):
        # a kernel quadratic in n defeats the degree-1 bound of p2: the two
        # interpolation levels cannot predict the third
        monkeypatch.setattr(PowerSumExpr, "substitute",
                            lambda self, levels: [Fraction(z * z) for _, z in levels])
        with pytest.raises(InternalConsistencyError, match="misses the kernel"):
            eventual_polynomial(AdmissibleFormula(v2))


class TestKernelAgainstReference:
    """The integer kernel behind evaluate and eventual_polynomial against
    plain substitution of P_h / 2^h into psi_star."""

    @settings(max_examples=300)
    @given(psi=powersum_exprs(), offset=st.integers(-20, 6))
    @example(psi=h_family(18), offset=-1)
    @example(psi=h_family(18), offset=0)
    @example(psi=(v1 + v2 + z) ** 6, offset=-3)
    @example(psi=PowerSumExpr(), offset=0)
    def test_evaluate_on_both_sides_of_threshold(self, psi, offset):
        F = AdmissibleFormula(psi)
        n = max(2, F.n_star + offset)
        gen_values = {h: Fraction(punctured_power_sum(n, h), 2**h) for h in range(1, F.d + 1)}
        report = evaluate(F, n)
        assert report.mode == ("stable" if n >= F.n_star else "general")
        assert report.value == reference_substitute(psi, gen_values, Fraction(n - 1))

    @settings(max_examples=300)
    @given(psi=powersum_exprs())
    @example(psi=h_family(18))
    @example(psi=(v1 + v2 + z) ** 6)
    @example(psi=z**3 * v2 - z * v1**2)
    @example(psi=PowerSumExpr())
    def test_eventual_matches_stable_substitution(self, psi):
        F = AdmissibleFormula(psi)
        gen_values = {
            h: punctured_power_sum_stable(h) * Fraction(1, 2**h)
            for h in range(1, F.d + 1)
        }
        expected = reference_substitute(psi, gen_values, UniPoly([-1, 1]))
        assert eventual_polynomial(F) == expected


class TestVerifyIdentity:
    def test_energy_pass(self):
        conjecture = UniPoly([0, Fraction(-3, 2), Fraction(1, 2)])
        rep = verify_identity(energy(), conjecture)
        assert rep.symbolic_match is True
        assert rep.passed
        assert rep.per_level == ()

    def test_energy_below_threshold_mismatch(self):
        # the eventual polynomial gives -1 at n = 2 but the true value is 0
        conjecture = UniPoly([0, Fraction(-3, 2), Fraction(1, 2)])
        rep = verify_identity(energy(), conjecture, check_below_threshold=True)
        assert rep.symbolic_match is True
        assert not rep.passed
        assert rep.per_level == ((2, -1, 0), (3, 0, 0))
        assert all(type(g) is Fraction for _, _, g in rep.per_level)

    def test_wrong_conjecture_reports_difference(self):
        conjecture = UniPoly([1, Fraction(-3, 2), Fraction(1, 2)])
        rep = verify_identity(energy(), conjecture)
        assert rep.symbolic_match is False
        assert not rep.passed
        assert rep.difference == UniPoly([-1])

    def test_product_formula_is_refused(self):
        F = AdmissibleFormula(PowerSumExpr.const(1), [(QPoly([1, -1]), 1)])
        with pytest.raises(ProductCaseError, match="cyclosum oracle"):
            verify_identity(F, UniPoly([0, 0, 1]))

    def test_report_dict(self):
        # the report holds exact values; the CLI builds its dict
        rc, d = cli_json("verify", "--formula", "z*p2 - p1^2",
                         "--conjecture", "(n^2 - 3*n)/2", "--below-threshold")
        assert rc == 1
        assert d["symbolic_match"] is True
        assert d["pass"] is False
        assert d["formula"] == "-p1^2 + z*p2"
        assert d["d"] == 2
        assert d["n_star"] == 4
        assert d["per_level"] == [{"n": 2, "expected": "-1", "got": "0", "pass": False},
                                  {"n": 3, "expected": "0", "got": "0", "pass": True}]
