from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclosum.catalan import extract_coefficient_family, h_family
from cyclosum.dsl import (
    MAX_NESTING,
    MAX_NUMBER_DIGITS,
    FormulaSemanticError,
    FormulaSyntaxError,
    parse_conjecture,
    parse_formula,
    parse_qpoly,
    strip_comments,
)
from cyclosum.exactcore import UniPoly, poly_str
from cyclosum.invariants import QPoly
from cyclosum.symfunc import PowerSumExpr, render_powersum

from conftest import newton_e, newton_h, powersum_exprs

v1, v2, v3 = (PowerSumExpr.gen(r) for r in (1, 2, 3))
z = PowerSumExpr.z()
rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


class TestFormulaParsing:
    def test_energy_builtin(self):
        F = parse_formula("energy")
        assert F.psi_star == z * v2 - v1**2
        assert F.d == 2 and F.n_star == 4

    def test_energy_spelled_out(self):
        assert parse_formula("z*p2 - p1^2").psi_star == z * v2 - v1**2

    def test_elementary_builtin(self):
        assert parse_formula("e(3)").psi_star == newton_e(3)

    def test_homogeneous_builtin(self):
        assert parse_formula("h(4)").psi_star == newton_h(4)

    def test_leading_zero_power_sum_index(self):
        assert parse_formula("p01*p1").psi_star == parse_formula("p1^2").psi_star
        assert parse_formula("z*p02 - p1*p01").psi_star == z * v2 - v1**2

    def test_builtin_term_order(self):
        # parsing keeps the extraction's term order
        assert list(parse_formula("h(12)").psi_star.terms) == list(h_family(12).terms)
        e12 = extract_coefficient_family(QPoly([1, 1]), 12)
        assert list(parse_formula("e(12)").psi_star.terms) == list(e12.terms)

    def test_mixed_builtin(self):
        F = parse_formula("mixed(2, 1)")
        assert F.psi_star == v2 * v1 - v3

    def test_rational_scalars(self):
        F = parse_formula("3*p1/2 - 1/4")
        expected = v1.scale(Fraction(3, 2)) - PowerSumExpr.const(Fraction(1, 4))
        assert F.psi_star == expected

    def test_nested_parentheses_and_powers(self):
        F = parse_formula("(p1 + p2)^2 - p1^2")
        assert F.psi_star == v2**2 + 2 * v1 * v2

    def test_unary_minus(self):
        assert parse_formula("-p1").psi_star == -v1

    def test_product_factor(self):
        F = parse_formula("energy * prod(1 - t)^2")
        assert F.psi_star == z * v2 - v1**2
        assert F.products == ((QPoly([1, -1]), 2),)

    def test_product_with_z_coefficients(self):
        F = parse_formula("prod(1 + z*t - 2*t^2)")
        (Q, mult), = F.products
        assert mult == 1
        assert Q == QPoly([1, UniPoly([0, 1]), -2])

    def test_round_trip_through_render(self):
        for text in (
            "energy",
            "h(6)",
            "(z*p2 - p1^2) * prod(1 - t)",
            "prod(1 - t^2)^3",
            "mixed(2, 1)",
        ):
            F = parse_formula(text)
            again = parse_formula(F.render())
            assert again.psi_star == F.psi_star
            assert again.products == F.products

    # The printers against the parser, on random input: a polynomial in n
    # (zero, negative leading coefficients and zero gaps included), a
    # product factor with Q[z] coefficients, and a power-sum formula.
    @given(coeffs=st.lists(st.one_of(st.just(0), rationals), max_size=6))
    def test_conjecture_round_trip(self, coeffs):
        p = UniPoly(coeffs)
        assert parse_conjecture(poly_str(p, "n")) == p

    @given(coeffs=st.lists(st.lists(st.one_of(st.just(0), rationals), max_size=4),
                           max_size=4))
    def test_qpoly_round_trip(self, coeffs):
        Q = QPoly([1] + [UniPoly(c) for c in coeffs])
        assert parse_qpoly(str(Q)) == Q

    @given(psi=powersum_exprs())
    def test_powersum_round_trip(self, psi):
        assert parse_formula(render_powersum(psi)).psi_star == psi


class TestFormulaErrors:
    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p1 + + )")
        assert err.value.line == 1
        assert "column" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError, match="unexpected character"):
            parse_formula("p1 @ p2")

    def test_trailing_input(self):
        with pytest.raises(FormulaSyntaxError, match="trailing"):
            parse_formula("p1 p2")

    def test_unknown_symbol(self):
        with pytest.raises(FormulaSyntaxError, match="unknown symbol"):
            parse_formula("q7")

    def test_mixed_zero_argument_rejected(self):
        # mixed(0, b) would need the generator p0, which has no meaning
        for text in ("mixed(0, 2)", "mixed(2, 0)"):
            with pytest.raises(FormulaSemanticError, match=">= 1"):
                parse_formula(text)

    def test_index_cap(self):
        with pytest.raises(FormulaSemanticError, match="exceeds"):
            parse_formula("p33")
        parse_formula("p32")  # boundary is allowed

    def test_nesting_cap(self):
        # MAX_NESTING groups parse; the '(' that opens one more is refused,
        # also far past the interpreter's recursion limit
        def nested(depth, inner="p1"):
            return "(" * depth + inner + ")" * depth

        assert parse_formula(nested(MAX_NESTING)).psi_star == v1
        assert parse_formula(nested(MAX_NESTING - 1, "prod(1 - t)")).products
        for text in (nested(MAX_NESTING + 1), nested(MAX_NESTING, "prod(1 - t)"),
                     nested(10_000)):
            with pytest.raises(FormulaSyntaxError, match="nest deeper") as err:
                parse_formula(text)
            assert err.value.column == text.index("(", MAX_NESTING) + 1

    def test_number_digit_cap(self):
        # a number token of MAX_NUMBER_DIGITS digits parses; one digit more
        # is refused at its position wherever it stands, before int() reads it
        ok = "0" * (MAX_NUMBER_DIGITS - 1) + "1"
        assert parse_formula(f"{ok}*p1 + p{ok}^{ok} + h({ok})") == parse_formula(
            "p1 + p1 + h(1)"
        )
        long = "1" * (MAX_NUMBER_DIGITS + 1)
        for parse, text, column in [
            (parse_formula, f"p1 + {long}", 6),
            (parse_formula, f"p1 + p2^{long}", 9),
            (parse_formula, f"p1 + h({long})", 8),
            (parse_formula, f"p1 + mixed(2, {long})", 15),
            (parse_formula, f"p1 + p{long}", 6),
            (parse_conjecture, f"n + {long}", 5),
            (parse_qpoly, f"1 + {long}*t", 5),
        ]:
            with pytest.raises(FormulaSyntaxError, match="exceeds the maximum of 4300") as err:
                parse(text)
            assert err.value.column == column

    def test_addition_of_products_rejected(self):
        with pytest.raises(FormulaSemanticError, match="top level"):
            parse_formula("prod(1 - t) + p1")

    def test_division_by_non_constant(self):
        with pytest.raises(FormulaSemanticError, match="rational constants"):
            parse_formula("p2 / p1")

    def test_division_by_zero(self):
        with pytest.raises(FormulaSemanticError, match="zero"):
            parse_formula("p1 / 0")

    def test_non_unit_product(self):
        with pytest.raises(FormulaSemanticError, match="not unit-normalized"):
            parse_formula("prod(t + 2)")

    def test_foreign_variable_in_product(self):
        with pytest.raises(FormulaSyntaxError, match="unknown symbol"):
            parse_formula("prod(1 + p1*t)")


class TestConjectureParsing:
    def test_quadratic(self):
        got = parse_conjecture("(n^2 - 3*n)/2")
        assert got == UniPoly([0, Fraction(-3, 2), Fraction(1, 2)])

    def test_constant(self):
        assert parse_conjecture("5/8") == UniPoly([Fraction(5, 8)])

    def test_product_form(self):
        got = parse_conjecture("-n*(n+4)*(n+5)/384")
        assert got(Fraction(9)) == Fraction(-273, 64)

    def test_rejects_other_symbols(self):
        with pytest.raises(FormulaSyntaxError, match="only 'n'"):
            parse_conjecture("n + t")


class TestQPolyParsing:
    def test_simple(self):
        assert parse_qpoly("1 - t") == QPoly([1, -1])

    def test_even(self):
        assert parse_qpoly("1 - t^2") == QPoly([1, 0, -1])

    def test_unit_check(self):
        with pytest.raises(FormulaSemanticError, match="not unit-normalized"):
            parse_qpoly("2 - t")


class TestFileForm:
    def test_comments_and_layout(self):
        text = "# the pair-energy family\nenergy  # symmetric part\n  * prod(1 - t)  \n"
        F = parse_formula(strip_comments(text))
        assert F.psi_star == z * v2 - v1**2
        assert F.products == ((QPoly([1, -1]), 1),)

    def test_comment_only_file(self):
        assert strip_comments("# nothing here\n   # still nothing") == ""
