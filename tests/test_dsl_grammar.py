"""A grammar-driven differential for the DSL.

A hypothesis strategy writes text from the grammar in dsl.py's docstring
and, while it writes, builds the value that text should have with the
Fraction arithmetic of tests/reference.py (fraction_add, fraction_mul,
fraction_power, fraction_extract), never with PowerSumExpr's operators.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosum.dsl import FormulaSemanticError, parse_conjecture, parse_formula
from cyclosum.exactcore import UniPoly
from cyclosum.invariants import QPoly, punctured_power_sum
from cyclosum.rigidity import evaluate
from cyclosum.symfunc import PowerSumExpr

from conftest import reference_substitute
from reference import fraction_add, fraction_extract, fraction_mul, fraction_power, mq_reference


def const(c) -> PowerSumExpr:
    return PowerSumExpr({(): c})


def gen(r: int) -> PowerSumExpr:
    return PowerSumExpr({(0,) * (r - 1) + (1,): 1})


def neg(psi: PowerSumExpr) -> PowerSumExpr:
    return fraction_mul(psi, const(-1))


Z = PowerSumExpr({(): UniPoly([0, 1])})
ENERGY = PowerSumExpr({(0, 1): UniPoly([0, 1]), (2,): -1})  # z*p2 - p1^2

# The coefficient variable of each mode, and a name that cancels to zero
# in a constant divisor such as (p2 - p2 + 3).
VAR = {"formula": "z", "qpoly": "z", "conjecture": "n"}
CANCEL = {"formula": "p2", "qpoly": "t", "conjecture": "n"}


def _op(draw, op: str) -> str:
    return draw(st.sampled_from((f" {op} ", op)))


def _is_constant(psi: PowerSumExpr) -> bool:
    return all(k == () for k in psi.rows) and all(len(r) <= 1 for r in psi.rows.values())


def _qpoly_of(psi: PowerSumExpr) -> QPoly:
    """The product factor whose t^k coefficient is that of v_1^k in psi,
    for psi in v_1 alone."""
    terms = psi.terms
    top = max((k[0] for k in terms if k), default=0)
    return QPoly([terms.get((k,) if k else (), UniPoly()) for k in range(top + 1)])


def _atom(draw, mode: str, depth: int, products: bool):
    """(text, psi, products) for an atom of the mode.  In the mode
    "const-M" the atoms are rational constants written in mode M."""
    kinds = ["int", "group"] if depth else ["int"]
    if mode.startswith("const-"):
        kinds.append("cancel")
    else:
        kinds.append("var")
    if mode == "formula":
        kinds += ["p", "energy", "e", "h", "mixed"] + (["prod"] * 4 if products else [])
    elif mode == "qpoly":
        kinds.append("t")
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        k = draw(st.integers(0, 12))
        return str(k), const(k), ()
    if kind == "var":
        return VAR[mode], Z, ()
    if kind == "t":
        return "t", gen(1), ()
    if kind == "cancel":
        name = CANCEL[mode[len("const-"):]]
        return f"({name}{_op(draw, '-')}{name})", PowerSumExpr(), ()
    if kind == "group":
        text, psi, prods = _expression(draw, mode, depth - 1, products)
        return f"({text})", psi, prods
    if kind == "p":
        r = draw(st.integers(1, 8))
        return f"p{r}", gen(r), ()
    if kind == "energy":
        return "energy", ENERGY, ()
    if kind in ("e", "h"):
        r = draw(st.integers(1, 4))
        Q = QPoly([1, 1]) if kind == "e" else QPoly([1] * (r + 1))
        return f"{kind}({r})", fraction_extract(Q, r), ()
    if kind == "mixed":
        a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        psi = fraction_add(fraction_mul(gen(a), gen(b)), neg(gen(a + b)))
        return f"mixed({a},{draw(st.sampled_from(('', ' ')))}{b})", psi, ()
    # prod(1 + t*X) or prod(1 - X*t): the constant term is 1
    text, psi, _ = _factor(draw, "qpoly", 1, False)
    if draw(st.booleans()):
        text, psi = f"1{_op(draw, '+')}t*{text}", fraction_add(const(1), fraction_mul(gen(1), psi))
    else:
        text, psi = f"1{_op(draw, '-')}{text}*t", fraction_add(const(1), neg(fraction_mul(psi, gen(1))))
    return f"prod({text})", const(1), ((_qpoly_of(psi), 1),)


def _factor(draw, mode: str, depth: int, products: bool):
    """factor := atom [ "^" INT ]"""
    text, psi, prods = _atom(draw, mode, depth, products)
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, 3))
        text, psi = f"{text}^{k}", fraction_power(psi, k)
        prods = tuple((Q, m * k) for Q, m in prods if m * k)
    return text, psi, prods


def _divisor(draw, mode: str, depth: int):
    """A nonzero rational constant written as a factor."""
    mode = mode if mode.startswith("const-") else f"const-{mode}"
    text, psi, _ = _factor(draw, mode, depth, False)
    if not psi.rows:
        text, psi = f"({text}{_op(draw, '+')}1)", const(1)
    return text, psi


def _term(draw, mode: str, depth: int, products: bool):
    """term := factor { ( "*" | "/" ) factor }"""
    text, psi, prods = _factor(draw, mode, depth, products)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 3)) == 0:
            rhs, c = _divisor(draw, mode, depth)
            (value,) = c.terms[()].coeffs
            text, psi = f"{text}{_op(draw, '/')}{rhs}", fraction_mul(psi, const(1 / value))
        else:
            rhs, b, bprods = _factor(draw, mode, depth, products)
            text, psi, prods = f"{text}{_op(draw, '*')}{rhs}", fraction_mul(psi, b), prods + bprods
    return text, psi, prods


def _expression(draw, mode: str, depth: int, products: bool):
    """expression := [ "+" | "-" ] term { ( "+" | "-" ) term }; a sum
    holds no product factor."""
    sign = draw(st.sampled_from(("", "", "+", "-")))
    count = draw(st.sampled_from((1, 1, 2, 3) if products else (1, 2, 3)))
    text, psi, prods = _term(draw, mode, depth, products and count == 1)
    text = sign + text
    if sign == "-":
        psi = neg(psi)
    for _ in range(count - 1):
        op = draw(st.sampled_from("+-"))
        rhs, b, _ = _term(draw, mode, depth, False)
        text += _op(draw, op) + rhs
        psi = fraction_add(psi, b if op == "+" else neg(b))
    return text, psi, prods


@st.composite
def texts(draw, mode: str = "formula"):
    """(text, psi, products): DSL text of the mode and its expected value;
    the mode "const-formula" writes rational constants only."""
    return _expression(draw, mode, 2, mode == "formula")


@settings(max_examples=100)
@given(texts(), st.integers(0, 1))
def test_parse_and_evaluate_match_the_reference(case, offset):
    text, psi, products = case
    F = parse_formula(text)
    assert F.psi_star == psi
    assert F.products == products
    n = F.n_star + offset
    gen_values = {h: Fraction(punctured_power_sum(n, h), 2**h) for h in range(1, F.d + 1)}
    expected = reference_substitute(psi, gen_values, Fraction(n - 1))
    for Q, m in products:
        expected *= mq_reference(Q, n) ** m
    assert evaluate(F, n).value == expected


@settings(max_examples=100)
@given(st.one_of(texts(), texts("const-formula")))
def test_division_accepts_only_nonzero_constants(case):
    text, psi, products = case
    source = f"p1 / ({text})"
    if products:
        with pytest.raises(FormulaSemanticError, match="cannot take part in division"):
            parse_formula(source)
    elif not _is_constant(psi):
        with pytest.raises(FormulaSemanticError, match="only allowed by rational constants"):
            parse_formula(source)
    elif not psi.rows:
        with pytest.raises(FormulaSemanticError, match="division by zero"):
            parse_formula(source)
    else:
        (value,) = psi.terms[()].coeffs
        assert parse_formula(source).psi_star == fraction_mul(gen(1), const(1 / value))


@settings(max_examples=100)
@given(texts(), st.booleans())
def test_a_sum_holding_prod_is_refused(case, prod_first):
    text, _, _ = case
    source = f"prod(1 + t) + ({text})" if prod_first else f"({text}) - 2*prod(1 - z*t)"
    op = "addition" if prod_first else "subtraction"
    with pytest.raises(FormulaSemanticError, match=f"cannot take part in {op}"):
        parse_formula(source)


@settings(max_examples=100)
@given(texts("conjecture"))
def test_conjecture_matches_the_reference(case):
    text, psi, _ = case
    assert parse_conjecture(text) == psi.terms.get((), UniPoly())
