from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclosum import rigidity
from cyclosum.catalan import h_family
from cyclosum.dsl import parse_formula
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
from reference import eventual_unfolded, h_stable, punctured_power_sum_stable

v1, v2 = PowerSumExpr.gen(1), PowerSumExpr.gen(2)
z = PowerSumExpr.z()


def expanded_in_n(psi):
    """The eventual polynomial with no interpolation: psi expanded in Q[n]
    at v_h := P_h(n) / 2^h in the stable closed form (-1 for odd h,
    C(h, h/2) n / 2^h - 1 for even h) and z := n - 1."""
    gen_values = {h: punctured_power_sum_stable(h) * Fraction(1, 2**h)
                  for h in range(1, psi.weighted_degree + 1)}
    return reference_substitute(psi, gen_values, UniPoly([-1, 1]))


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


# Edge cases of the fold: a constant, z alone, an odd generator alone (all
# of psi_star folds), z with odd generators only, and a zero difference.
FOLD_EDGES = ["5/3", "z^3", "p1^3", "z*p3 - p1", "p2 - p2"]
# Formulas with many odd-generator terms to fold, and two with few.
FOLD_NAMED = ["h(32)", "e(24)", "h(3)^40", "(p1+p2+p3)^30", "energy^6", "mixed(4,4)"]


@st.composite
def exprs_with_odd_and_even(draw):
    """A powersum_exprs draw plus a term in z, an odd generator and an
    even one, so that the fold both sets and keeps generators."""
    psi = draw(powersum_exprs(max_d=12))
    odd = PowerSumExpr.gen(draw(st.sampled_from((1, 3, 5))))
    even = PowerSumExpr.gen(draw(st.sampled_from((2, 4, 6))))
    c = draw(st.integers(-3, 3))
    return psi + c * z**draw(st.integers(0, 2)) * odd**draw(st.integers(1, 2)) * even


class TestFoldedRoute:
    """eventual_polynomial folds the generators of slope 0 before it
    interpolates; the routes of tests/reference.py fold nothing."""

    @settings(max_examples=200)
    @given(psi=st.one_of(powersum_exprs(), exprs_with_odd_and_even()))
    @example(psi=h_family(18))
    @example(psi=(v1 + v2 + z) ** 6)
    def test_matches_the_unfolded_route(self, psi):
        F = AdmissibleFormula(psi)
        assert eventual_polynomial(F) == eventual_unfolded(F)

    @pytest.mark.parametrize("text", FOLD_NAMED + FOLD_EDGES)
    def test_matches_the_expansion_in_n(self, text):
        F = parse_formula(text)
        R = eventual_polynomial(F)
        assert R == expanded_in_n(F.psi_star)
        if text in FOLD_EDGES:
            assert R == eventual_unfolded(F)

    @pytest.mark.parametrize("text", FOLD_EDGES + ["energy", "h(6)", "z^2*p2 + p1"])
    def test_check_level_is_never_an_interpolation_level(self, text, monkeypatch):
        # one substitute call: the interpolation levels, then n = d + 1
        # (z = d); at d = 0 that is n = 1, below the first level n = 2
        calls = []
        substitute = PowerSumExpr.substitute
        monkeypatch.setattr(PowerSumExpr, "substitute", lambda self, levels: (
            calls.append([zval for _, zval in levels]) or substitute(self, levels)))
        F = parse_formula(text)
        eventual_polynomial(F)
        (zs,) = calls
        *interpolated, checked = zs
        assert checked == F.d
        assert interpolated == list(range(F.n_star - 1, F.n_star - 1 + len(interpolated)))

    def test_check_at_d_zero_is_not_vacuous(self, monkeypatch):
        # z^2 has d = 0 and D = 2: a kernel z^5 meets no quadratic through
        # its three interpolation levels, and the check at n = 1 sees it
        monkeypatch.setattr(PowerSumExpr, "substitute",
                            lambda self, levels: [Fraction(zval**5) for _, zval in levels])
        with pytest.raises(InternalConsistencyError, match="misses the kernel at n=1"):
            eventual_polynomial(AdmissibleFormula(z**2))

    def test_a_wrong_slope_is_caught(self, monkeypatch):
        # P_2 off by one at n_star + 1 only: every interpolation level
        # extrapolates the wrong slope, and only n = d + 1 reads P_2 directly
        F = energy()
        monkeypatch.setattr(rigidity, "punctured_power_sum", lambda n, h: (
            punctured_power_sum(n, h) + (n == F.n_star + 1 and h == 2)))
        with pytest.raises(InternalConsistencyError, match="misses the kernel at n=3"):
            eventual_polynomial(F)

    def test_a_wrong_folded_value_is_caught(self, monkeypatch):
        # P_1 off by one at n_star and n_star + 1: its slope is still 0, so
        # it folds at the wrong value, and n = d + 1 reads the right one
        F = energy()
        monkeypatch.setattr(rigidity, "punctured_power_sum", lambda n, h: (
            punctured_power_sum(n, h) + (n >= F.n_star and h == 1)))
        with pytest.raises(InternalConsistencyError, match="misses the kernel at n=3"):
            eventual_polynomial(F)


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
        assert eventual_polynomial(AdmissibleFormula(psi)) == expanded_in_n(psi)


class TestPowerSumsRead:
    """eventual and verify read P_h(n) only for the generators that occur
    in psi_star; evaluate still reports every P_1(n)..P_d(n)."""

    @staticmethod
    def _record(monkeypatch):
        seen = set()

        def record(n, h):
            seen.add(h)
            return punctured_power_sum(n, h)

        monkeypatch.setattr(rigidity, "punctured_power_sum", record)
        return seen

    @pytest.mark.parametrize("text, hs", [
        ("mixed(7,11)", {7, 11, 18}),
        ("energy^9", {1, 2}),
        ("h(6)", set(range(1, 7))),
    ])
    def test_only_the_generators_present(self, text, hs, monkeypatch):
        F = parse_formula(text)
        R = eventual_polynomial(F)
        seen = self._record(monkeypatch)
        assert eventual_polynomial(F) == R
        assert seen == hs
        seen.clear()
        report = verify_identity(F, R, check_below_threshold=True)
        assert seen == hs
        assert report.symbolic_match
        assert [n for n, _, _ in report.per_level] == list(range(2, F.n_star))
        for n, _, got in report.per_level:
            assert got == evaluate(F, n).value

    @pytest.mark.parametrize("n", [5, 20, 25])
    def test_evaluate_reports_every_power_sum(self, n, monkeypatch):
        F = parse_formula("mixed(7,11)")
        seen = self._record(monkeypatch)
        report = evaluate(F, n)
        assert seen == set(range(1, 19))
        assert report.power_sums == tuple(punctured_power_sum(n, h) for h in range(1, 19))


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
