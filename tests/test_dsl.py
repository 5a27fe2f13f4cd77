import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclosum.catalan import extract_coefficient_family, h_family
from cyclosum.dsl import (
    MAX_CONJECTURE_DEGREE,
    MAX_NESTING,
    MAX_NUMBER_DIGITS,
    MAX_POWER_BITS,
    FormulaSemanticError,
    FormulaSyntaxError,
    _power_bits,
    parse_conjecture,
    parse_formula,
    parse_qpoly,
    strip_comments,
)
from cyclosum.exactcore import NVAR, UniPoly, poly_str
from cyclosum.invariants import QPoly
from cyclosum.symfunc import PowerSumExpr

from conftest import newton_e, newton_h, power_bases, powersum_exprs

v1, v2, v3 = (PowerSumExpr.gen(r) for r in (1, 2, 3))
z = PowerSumExpr.z()
rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


def _nested(depth, inner):
    return "(" * depth + inner + ")" * depth


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
            again = parse_formula(str(F))
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
        assert parse_formula(str(psi)).psi_star == psi


class TestFormulaErrors:
    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("p1 + + )")
        assert err.value.line == 1
        assert "column" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError, match="unexpected character"):
            parse_formula("p1 @ p2")

    def test_numbers_are_ascii_digits(self):
        # a non-ASCII decimal digit is not a number in any mode
        for parse, text, column in [
            (parse_formula, "p1^٣ + ٢", 4),
            (parse_conjecture, "n + ٢", 5),
            (parse_qpoly, "1 - ٢*t", 5),
        ]:
            with pytest.raises(FormulaSyntaxError, match="unexpected character") as err:
                parse(text)
            assert (err.value.line, err.value.column) == (1, column)

    def test_trailing_input(self):
        with pytest.raises(FormulaSyntaxError, match="trailing"):
            parse_formula("p1 p2")

    def test_unknown_symbol(self):
        # the error points at the symbol, not at the token after it
        for parse, text, line, column in [
            (parse_formula, "q7", 1, 1),
            (parse_formula, "foo + 1", 1, 1),
            (parse_formula, "p1 +\n  foo * 2", 2, 3),
            (parse_qpoly, "1 + p1*t", 1, 5),
            (parse_conjecture, "n + m*2", 1, 5),
        ]:
            with pytest.raises(FormulaSyntaxError, match="unknown symbol") as err:
                parse(text)
            assert (err.value.line, err.value.column) == (line, column)

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
        assert parse_formula(_nested(MAX_NESTING, "p1")).psi_star == v1
        assert parse_formula(_nested(MAX_NESTING - 1, "prod(1 - t)")).products
        for text in (_nested(MAX_NESTING + 1, "p1"), _nested(MAX_NESTING, "prod(1 - t)"),
                     _nested(10_000, "p1")):
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

    # Values and messages recorded before conjectures were parsed straight
    # into Q[n]: a zero exponent, a zero product, a constant divisor with
    # n in it, the two refused divisors, a power of a sum, a negated group,
    # and the names of the other modes.
    @pytest.mark.parametrize("text, expected", [
        ("n^0", UniPoly([1])),
        ("0*n^5", UniPoly()),
        ("n/(n - n + 2)", UniPoly([0, Fraction(1, 2)])),
        ("n/(2 - 2)", "FormulaSemanticError: division by zero"),
        ("n/n", "FormulaSemanticError: division is only allowed by rational constants"),
        ("(n - 1)^12/7", UniPoly([Fraction((-1) ** k * math.comb(12, k), 7)
                                  for k in range(12, -1, -1)])),
        ("-(n)^2", UniPoly([0, 0, -1])),
        ("z", "FormulaSyntaxError: unknown symbol 'z' in a conjecture (only 'n' is allowed)"
              " (line 1, column 1)"),
        ("p1", "FormulaSyntaxError: unknown symbol 'p1' in a conjecture (only 'n' is allowed)"
               " (line 1, column 1)"),
        ("t", "FormulaSyntaxError: unknown symbol 't' in a conjecture (only 'n' is allowed)"
              " (line 1, column 1)"),
        ("prod(1-t)", "FormulaSyntaxError: unknown symbol 'prod' in a conjecture"
                      " (only 'n' is allowed) (line 1, column 1)"),
    ])
    def test_pinned_cases(self, text, expected):
        try:
            got = parse_conjecture(text)
        except (FormulaSyntaxError, FormulaSemanticError) as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == expected

    def test_builds_no_power_sum_expression(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a conjecture built a PowerSumExpr")
        monkeypatch.setattr(PowerSumExpr, "__init__", refuse)
        monkeypatch.setattr(PowerSumExpr, "from_rows", refuse)
        assert parse_conjecture("(n^2 - 3*n)/2") == UniPoly([0, Fraction(-3, 2), Fraction(1, 2)])
        assert parse_conjecture("-n*(n+4)*(n+5)/384")(9) == Fraction(-273, 64)
        assert parse_conjecture("(n - 1)^3 - n^3 + 3*n^2") == UniPoly([-1, 3])
        with pytest.raises(FormulaSemanticError, match="division by zero"):
            parse_conjecture("n/(n - n)")

    def test_power_degree_is_capped_before_any_work(self):
        top = MAX_CONJECTURE_DEGREE
        assert parse_conjecture(f"n^{top}") == UniPoly([0] * top + [1])
        assert parse_conjecture(f"(n^2)^{top // 2}") == UniPoly([0] * top + [1])
        for text, degree in ((f"n^{top + 1}", top + 1),
                             (f"1 + (n^2)^{top}", 2 * top),
                             ("n^99999999999999999999", 99999999999999999999)):
            with pytest.raises(FormulaSemanticError,
                               match=f"^degree {degree} of a power in n exceeds the "
                                     f"configured maximum {top}$"):
                parse_conjecture(text)

    def test_huge_powers_of_units_and_zero(self):
        # degree 0 (or none): no row to allocate, and c^k is immediate
        huge = "99999999999999999999"
        assert parse_conjecture(f"1^{huge}") == UniPoly([1])
        assert parse_conjecture(f"(-1)^{huge}") == UniPoly([-1])
        assert parse_conjecture(f"(n - n)^{huge}") == UniPoly()
        assert parse_conjecture("(n - n)^0") == UniPoly([1])


class TestPowerSize:
    """A power is refused before it is expanded when its bound passes
    MAX_POWER_BITS; below it, a dense power in n takes one pass."""

    def test_dense_power_within_budget(self):
        start = time.perf_counter()
        got = parse_conjecture("(2*n - 1)^4096")
        elapsed = time.perf_counter() - start
        assert got == UniPoly([math.comb(4096, i) * 2**i * (-1) ** (4096 - i)
                               for i in range(4097)])
        assert elapsed < 1.0

    def test_limit_is_the_bound(self):
        # (2*n - 1)^k: a bound of k + 1 coefficients of 2k bits each
        k = math.isqrt(MAX_POWER_BITS // 2)
        while (k + 1) * k * 2 > MAX_POWER_BITS:
            k -= 1
        assert parse_conjecture(f"(2*n - 1)^{k}").degree == k
        bits = (k + 2) * (k + 1) * 2
        with pytest.raises(FormulaSemanticError,
                           match=f"^a power of up to {bits} bits exceeds the "
                                 f"configured maximum {MAX_POWER_BITS} bits$"):
            parse_conjecture(f"(2*n - 1)^{k + 1}")
        # a monomial has one coefficient, however high its degree
        assert parse_conjecture("(2*n^64)^1024") == UniPoly([0] * 65536 + [2**1024])

    @pytest.mark.parametrize("parse, text", [
        (parse_conjecture, "(2*n - 1)^65536"),
        (parse_conjecture, "2^99999999999999999999"),
        (parse_conjecture, "n + (1/3)^99999999"),
        (parse_formula, "2^99999999999999999999"),
        (parse_formula, "p1 + (1/2)^99999999999999999999"),
        (parse_qpoly, "1 + 2^99999999999999999999*t"),
    ])
    def test_refused_before_any_work(self, parse, text):
        start = time.perf_counter()
        with pytest.raises(FormulaSemanticError, match=f"maximum {MAX_POWER_BITS} bits$"):
            parse(text)
        assert time.perf_counter() - start < 0.1

    def test_units_and_zero_grow_nothing(self):
        huge = "99999999999999999999"
        assert parse_formula(f"(-1)^{huge}*p1").psi_star == -v1
        assert parse_formula(f"(2 - 2)^{huge} + p1").psi_star == v1
        assert parse_conjecture(f"(-n + n + 1)^{huge}*n") == UniPoly([0, 1])

    @given(power_bases(), st.integers(0, 12))
    def test_bound_holds(self, p, k):
        # ceil(log2) of each nonzero numerator and of the denominator
        got = p**k
        size = sum((abs(x) - 1).bit_length() + (got.den - 1).bit_length()
                   for x in got.row if x)
        assert size <= (_power_bits(p.row, p.den, k) if p.row else 0)


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

    def test_error_names_the_file_line_and_column(self):
        text = "# header comment\np1 + # trailing\n  $ p2\n"
        with pytest.raises(FormulaSyntaxError, match="unexpected character") as err:
            parse_formula(strip_comments(text))
        assert (err.value.line, err.value.column) == (3, 3)


# The pinned corpus: hand-written inputs that reach every error message of
# the parser, with the number and nesting limits on both sides, and seeded
# random token strings.  Each mode's outcomes, the printed value or the
# error's type and message, are pinned by one sha256.
LIMIT_DIGITS = "1" * MAX_NUMBER_DIGITS
OVER_DIGITS = "1" * (MAX_NUMBER_DIGITS + 1)
PADDED_ONE = "0" * (MAX_NUMBER_DIGITS - 1) + "1"


CORPUS_CASES = {
    "formula": [
        "energy", "h(6)", "e(6)", "mixed(2, 1)", "3*p1/2 - 1/4", "-p1", "+p1",
        "(p1 + p2)^2 - p1^2", "z*p02 - p1*p01", "energy * prod(1 - t)^2",
        "(z*p2 - p1^2) * prod(1 - t)", "prod(1 + z*t - 2*t^2)", "prod(1 - t)^0",
        "-prod(1 - t)*p1", "2*prod(1 - t)*prod(1 + t)^3 / 4", "prod(1)",
        "p1 @ p2", "p1 + é", "p1\n  + $", "p1 +\n\tq7", "\n\n  foo",
        LIMIT_DIGITS, OVER_DIGITS, f"p1 + {OVER_DIGITS}", f"p2^{OVER_DIGITS}",
        f"p{PADDED_ONE}", f"p{LIMIT_DIGITS}", f"p{OVER_DIGITS}",
        f"h({OVER_DIGITS})", f"mixed(2, {OVER_DIGITS})",
        _nested(MAX_NESTING, "p1"), _nested(MAX_NESTING + 1, "p1"),
        _nested(MAX_NESTING - 1, "prod(1 - t)"), _nested(MAX_NESTING, "prod(1 - t)"),
        "(p1", "(p1 p2)", "prod", "prod 1", "h 3", "h(3", "mixed(1 2)",
        "p1^", "p1^p2", "p1^-1", "prod(1+t)^2^3", "h(p1)", "h()", "mixed(1, )",
        "p1 + )", "", "   ", "p1 +", "p1 * * p2", "foo + 1", "t*p1", "n",
        "prod(1 + p1*t)", "prod(prod(1 - t))", "prod(1 + n*t)", "p1 p2", "p1 )",
        "prod(1 - t) + p1", "p1 + prod(1 - t)", "prod(1 - t) - p1",
        "p1 - prod(1 - t)", "p1 / prod(1 - t)", "p2 / p1", "p1 / z", "p1/0",
        "p1/(1 - 1)", "p1/z + )", "p0", "p00", "p33", "mixed(0, 2)", "mixed(2, 0)",
        "mixed(16, 17)", "h(0)", "e(33)", "h(6) + )", "prod(t + 2)", "prod(z)",
        "prod(2)",
    ],
    "conjecture": [
        "(n^2 - 3*n)/2", "5/8", "-n*(n+4)*(n+5)/384", "0", "n - n", "n^0",
        "n + m*2", "z", "n + t", "p1", "prod(1 - t)", "n/n", "n/0", "n^",
        OVER_DIGITS, LIMIT_DIGITS, f"n + {OVER_DIGITS}", "n\n+ $", "\n  n + é",
        _nested(MAX_NESTING, "n"), _nested(MAX_NESTING + 1, "n"), "(n", "n n", "",
    ],
    "qpoly": [
        "1 - t", "1 - t^2", "1 + z*t - 2*t^2", "1", "(1 - t)^3", "1 + t/2",
        "2 - t", "z", "t", "p1", "n", "prod(1 - t)", "1 - t/0", "1 + t/t", "t^",
        "1 + $", "1 +\n\n  %", f"1 + {OVER_DIGITS}*t", f"{LIMIT_DIGITS}*t + 1",
        _nested(MAX_NESTING, "1 - t"), _nested(MAX_NESTING + 1, "1 - t"),
        "(1 - t", "1 - t t", "",
    ],
}

# Token fragments of the DSL, a few characters outside it, and the mode's
# own variables once more.  Numbers are single digits, kept apart by a
# space, so an exponent is at most 3 and a builtin argument at most 6.
_FRAGMENTS = (
    "p1", "p2", "p3", "p0", "p32", "p33", "z", "t", "n", "energy", "e", "h",
    "mixed", "prod", "q", "h(6)", "e(6)", "0", "1", "2", "3", "+", "-", "*",
    "/", "^", "(", ")", ",", " ", "\n", "\t", "٣", "$", "é",
)
# Atoms of well-formed expressions in each mode, and the form a qpoly
# takes so that its constant term is 1 more often than not.
_ATOMS = {
    "formula": ("p1", "p2", "p3", "z", "2", "energy", "h(3)", "e(2)",
                "mixed(1, 2)", "prod(1 - t)", "prod(1 + z*t - t^2)"),
    "conjecture": ("n", "n", "1", "2", "3", "0"),
    "qpoly": ("t", "t", "z", "1", "2", "3"),
}
_TEMPLATE = {"formula": "{}", "conjecture": "{}", "qpoly": "1 - t*({})"}
CORPUS_SEED = {"formula": 1900, "conjecture": 1901, "qpoly": 1902}
CORPUS_RANDOM = 150  # fragment strings, and as many expressions, per mode


def _random_expression(rng, atoms, depth=1):
    """Up to three terms of up to two factors; a factor is an atom or,
    above depth 0, a parenthesized expression, with an exponent <= 3."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for _ in range(rng.randint(1, 2)):
            factor = (f"({_random_expression(rng, atoms, depth - 1)})"
                      if depth and rng.random() < 0.25 else rng.choice(atoms))
            if rng.random() < 0.3:
                factor += f"^{rng.randint(0, 3)}"
            factors.append(factor)
        terms.append(rng.choice(("*", "*", "/")).join(factors))
    signs = [rng.choice(("", "-", "+"))] + [rng.choice((" + ", " - "))
                                            for _ in terms[1:]]
    return "".join(sign + term for sign, term in zip(signs, terms))


def _random_inputs(mode):
    """Fragment strings, then well-formed expressions, every other one
    with one fragment inserted at a random place."""
    rng = random.Random(CORPUS_SEED[mode])
    texts = []
    for _ in range(CORPUS_RANDOM):
        text = ""
        for _ in range(rng.randint(1, 12)):
            piece = rng.choice(_FRAGMENTS)
            if text[-1:].isdigit() and piece[0].isdigit():
                text += " "
            text += piece
        texts.append(text)
    for i in range(CORPUS_RANDOM):
        text = _TEMPLATE[mode].format(_random_expression(rng, _ATOMS[mode]))
        if i % 2:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(_FRAGMENTS) + text[at:]
        texts.append(text)
    return texts


_SHOW = {
    "formula": lambda text: str(parse_formula(text)),
    "conjecture": lambda text: poly_str(parse_conjecture(text), NVAR),
    "qpoly": lambda text: str(parse_qpoly(text)),
}


def corpus_outcomes(mode):
    """(input, outcome) for every corpus input of the mode."""
    out = []
    for text in CORPUS_CASES[mode] + _random_inputs(mode):
        try:
            outcome = _SHOW[mode](text)
        except (FormulaSyntaxError, FormulaSemanticError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        out.append((text, outcome))
    return out


CORPUS_SHA = {
    "formula": "3d985f196a9ba7c557609e536bfb4540fdb7941a52f7b0f2c5219461ab85a0d8",
    "conjecture": "6dc95e50926009ada86ba64738a051b12bada12e5a0854517af3ed5db7318792",
    "qpoly": "9da3fbe64ea84fe7ccae70247431daf08a9872b870e73bce422c7790da5b77f2",
}


@pytest.mark.parametrize("mode", sorted(CORPUS_SHA))
def test_pinned_corpus(mode):
    digest = hashlib.sha256()
    for text, outcome in corpus_outcomes(mode):
        digest.update(f"{text!r}\t{outcome}\n".encode("utf-8"))
    assert digest.hexdigest() == CORPUS_SHA[mode]
