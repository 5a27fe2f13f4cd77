"""Recursive-descent parser for the formula surface syntax.

Grammar (EBNF):

    expression := [ "+" | "-" ] term { ( "+" | "-" ) term }
    term       := factor { ( "*" | "/" ) factor }
    factor     := atom [ "^" INT ]
    atom       := INT | "(" expression ")" | "z" | "p" INT | "energy"
                | "e(" INT ")" | "h(" INT ")" | "mixed(" INT "," INT ")"
                | "prod(" qpoly ")"
    qpoly      := expression in "t" and "z", constant term 1
    conjecture := expression in "n" alone

A formula is an expression.  prod(...) is an atom that any product may
hold, with the ordinary "^" INT; a value holding one cannot be added,
subtracted or divided by.

One grammar serves the three modes.  A formula parses into an
AdmissibleFormula: a PowerSumExpr psi_star times the product factors.
In psi_star "pN" is the generator v_N and "z" the coefficient variable.
Inside prod(...) "t" is v_1, so the coefficient of t^k is terms[(k,)].
A conjecture parses straight into a UniPoly in n, with no PowerSumExpr;
a power of degree above MAX_CONJECTURE_DEGREE is refused before it is
expanded, and so is a power in n, or of a rational constant in any mode,
whose size bound passes MAX_POWER_BITS.  Division is
restricted to nonzero rational constants.  Every input yields a value,
a FormulaSyntaxError that names its line and column, or a
FormulaSemanticError, which names no position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from .exactcore import NVAR, TVAR, ZVAR, UniPoly
from .invariants import QPoly
from .catalan import extract_coefficient_family, h_family
from .symfunc import PowerSumExpr
from .rigidity import AdmissibleFormula, ProductDatum

MAX_POWER_SUM_INDEX = 32
# Longest number token: CPython's default limit on the digits int() reads.
MAX_NUMBER_DIGITS = 4300
MAX_NESTING = 100  # groups, (...) or prod(...), open at once
# Highest degree of a power in a conjecture: n^k is one row of k + 1
# entries, so a larger k is refused before the row is made.
MAX_CONJECTURE_DEGREE = 1 << 16
# Most bits a power may hold by the bound of _power_bits, checked before
# it is expanded: 8 MiB.  A dense power in n takes milliseconds at the
# limit ((2*n - 1)^5792: 25 ms), a constant seconds (3^(2^25): 19 s and
# 43 MB peak, by binary powering), in-process on CPython 3.11, 2-core VM.
MAX_POWER_BITS = 1 << 26


class FormulaSyntaxError(ValueError):
    """A syntax error at a character offset of the input, reported by its
    line and column."""

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.column = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} (line {self.line}, column {self.column})")


class FormulaSemanticError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[0-9]+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)
_TOO_LONG = "number of {} digits exceeds the maximum of %d digits" % MAX_NUMBER_DIGITS


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    """(kind, text, offset) of every token, then an "eof" token.  The whole
    input is read first, so a bad character or an over-long number is
    reported wherever it stands."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, chunk = m.lastgroup, m.group()
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {chunk!r}", text, m.start())
        if kind == "number" and len(chunk) > MAX_NUMBER_DIGITS:
            raise FormulaSyntaxError(_TOO_LONG.format(len(chunk)), text, m.start())
        if kind != "ws":
            tokens.append((kind, chunk, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


# A value while parsing: its polynomial part, a PowerSumExpr (a UniPoly in
# n in a conjecture), and its product factors.
Value = Tuple[object, ProductDatum]


def _to_qpoly(psi: PowerSumExpr) -> QPoly:
    """The product factor whose t^k coefficient is that of v_1^k in psi."""
    by_t = {k[0] if k else 0: c for k, c in psi.terms.items()}
    try:
        return QPoly([by_t.get(k, 0) for k in range(max(by_t, default=0) + 1)])
    except ValueError as exc:
        raise FormulaSemanticError(str(exc)) from None


def _pure(value: Value, op: str):
    """The polynomial part of a value without product factors."""
    core, products = value
    if products:
        raise FormulaSemanticError(
            f"product factors cannot take part in {op}; "
            "multiply prod(...) at the top level only"
        )
    return core


def _constant_row(core) -> tuple:
    """The integer row over core.den of a rational constant, () for zero,
    or None when core is not a constant."""
    if isinstance(core, UniPoly):
        row = core.row
    else:
        row = core.rows.get((), ())
        if core.rows.keys() - {()}:
            return None
    return row if len(row) <= 1 else None


def _power_bits(row, den: int, k: int) -> int:
    """A bound on the bits of (row / den)^k for a nonzero integer row:
    k s + 1 coefficients over the nonzero span s of row, each at most
    S^k / den^k for S = sum |row|."""
    size = (sum(map(abs, row)) - 1).bit_length() + (den - 1).bit_length()
    if not size:  # a unit times a power of the variable grows nothing
        return 0
    low = next(i for i, x in enumerate(row) if x)
    return (k * (len(row) - 1 - low) + 1) * k * size


class _Parser:
    def __init__(self, text: str, mode: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.mode = mode  # "formula", "qpoly", or "conjecture"
        self.depth = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Tuple[str, str, int]:
        found = self.peek()[1]
        if found != text:
            self.fail(f"expected {text!r}, found {found!r}" if found else f"expected {text!r}")
        return self.advance()

    def integer(self, message: str) -> int:
        kind, text, _ = self.peek()
        if kind != "number":
            self.fail(message)
        self.pos += 1
        return int(text)

    def fail(self, message: str, tok=None):
        """Raise a syntax error at tok, by default the next token."""
        raise FormulaSyntaxError(message, self.text, (tok or self.peek())[2])

    def group(self) -> Value:
        """The expression between '(' and ')'.  A '(' that would open more
        than MAX_NESTING groups is refused, so the recursion stays bounded."""
        tok = self.expect("(")
        if self.depth == MAX_NESTING:
            self.fail(f"groups nest deeper than {MAX_NESTING} levels", tok)
        self.depth += 1
        value = self.expression()
        self.depth -= 1
        self.expect(")")
        return value

    # expression := [+|-] term { (+|-) term }
    def expression(self) -> Value:
        kind, sign, _ = self.peek()
        if kind == "op" and sign in "+-":
            self.advance()
        value = self.term()
        if sign == "-":
            value = (-value[0], value[1])
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            name = "addition" if op == "+" else "subtraction"
            a, b = _pure(value, name), _pure(rhs, name)
            value = (a + b if op == "+" else a - b, ())
        return value

    # term := factor { (*|/) factor }
    def term(self) -> Value:
        core, products = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            rhs = self.factor()
            if op == "*":
                core, products = core * rhs[0], products + rhs[1]
                continue
            divisor = _pure(rhs, "division")
            row = _constant_row(divisor)
            if row is None:
                raise FormulaSemanticError("division is only allowed by rational constants")
            if not row:
                raise FormulaSemanticError("division by zero")
            core = core * Fraction(divisor.den, row[0])
        return core, products

    # factor := atom [ ^ INT ]
    def factor(self) -> Value:
        core, products = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            k = self.integer("expected an integer exponent after '^'")
            if self.mode == "conjecture" and core.degree * k > MAX_CONJECTURE_DEGREE:
                raise FormulaSemanticError(f"degree {core.degree * k} of a power in n exceeds "
                                           f"the configured maximum {MAX_CONJECTURE_DEGREE}")
            row = core.row if self.mode == "conjecture" else _constant_row(core)
            bits = _power_bits(row, core.den, k) if row else 0
            if bits > MAX_POWER_BITS:
                raise FormulaSemanticError(f"a power of up to {bits} bits exceeds the "
                                           f"configured maximum {MAX_POWER_BITS} bits")
            core = core**k
            products = tuple((Q, m * k) for Q, m in products) if k else ()
        return core, products

    def _int_args(self, count: int) -> List[int]:
        """'(' INT {',' INT} ')' with `count` integers."""
        self.expect("(")
        args = []
        for i in range(count):
            if i:
                self.expect(",")
            args.append(self.integer("expected an integer argument"))
        self.expect(")")
        return args

    def atom(self) -> Value:
        kind, text, _ = tok = self.peek()
        if text == "(":
            return self.group()
        if kind == "number":
            self.advance()
            c = int(text)
            return (UniPoly.from_row(1, [c]) if self.mode == "conjecture"
                    else PowerSumExpr.const(c)), ()
        if kind != "name":
            self.fail(f"unexpected token {text!r}" if text else "unexpected end of input")
        self.advance()
        if text == "prod" and self.mode == "formula":
            self.mode = "qpoly"
            inner = self.group()
            self.mode = "formula"
            return PowerSumExpr.const(1), ((_to_qpoly(inner[0]), 1),)
        return self.symbol(tok), ()

    def symbol(self, tok):
        """The value of a name other than prod, with its arguments."""
        name = tok[1]
        if self.mode == "conjecture":
            if name == NVAR:
                return UniPoly.from_row(1, [0, 1])
            self.fail(f"unknown symbol {name!r} in a conjecture (only 'n' is allowed)", tok)
        if name == ZVAR:
            return PowerSumExpr.z()
        if self.mode == "qpoly":
            if name == TVAR:
                return PowerSumExpr.gen(1)
            self.fail(f"unknown symbol {name!r} inside prod(...) (use 't' and 'z')", tok)
        # formula mode
        gen = PowerSumExpr.gen
        if re.fullmatch(r"p\d+", name):
            if len(name) - 1 > MAX_NUMBER_DIGITS:
                self.fail(_TOO_LONG.format(len(name) - 1), tok)
            index = int(name[1:])
            if index < 1:
                raise FormulaSemanticError("power-sum index must be >= 1")
            if index > MAX_POWER_SUM_INDEX:
                raise FormulaSemanticError(
                    f"power-sum index {index} exceeds the configured maximum "
                    f"{MAX_POWER_SUM_INDEX}"
                )
            return gen(index)
        if name == "energy":
            return PowerSumExpr.z() * gen(2) - gen(1) ** 2
        if name == "e":
            (r,) = self._int_args(1)
            self._check_index(r)
            return extract_coefficient_family(QPoly([1, 1]), r)
        if name == "h":
            (r,) = self._int_args(1)
            self._check_index(r)
            return h_family(r)
        if name == "mixed":
            a, b = self._int_args(2)
            if a < 1 or b < 1:
                raise FormulaSemanticError("mixed(a, b) arguments must be >= 1")
            self._check_index(a + b)
            # sum_{i != j} x_i^a x_j^b = p_a p_b - p_{a+b}
            return gen(a) * gen(b) - gen(a + b)
        self.fail(f"unknown symbol {name!r}", tok)

    def _check_index(self, r: int):
        if r < 1:
            raise FormulaSemanticError("builtin degree must be >= 1")
        if r > MAX_POWER_SUM_INDEX:
            raise FormulaSemanticError(
                f"degree {r} exceeds the configured maximum {MAX_POWER_SUM_INDEX}"
            )

    def parse(self) -> Value:
        value = self.expression()
        kind, text, _ = self.peek()
        if kind != "eof":
            self.fail(f"unexpected trailing input {text!r}")
        return value


def parse_formula(text: str) -> AdmissibleFormula:
    """Parse DSL text into an AdmissibleFormula."""
    return AdmissibleFormula(*_Parser(text, "formula").parse())


def parse_conjecture(text: str) -> UniPoly:
    """Parse a conjectured eventual polynomial in n."""
    return _Parser(text, "conjecture").parse()[0]


def parse_qpoly(text: str) -> QPoly:
    """Parse a unit-normalized product factor in t (and optionally z)."""
    return _to_qpoly(_Parser(text, "qpoly").parse()[0])


def strip_comments(text: str) -> str:
    """File form: UTF-8, one formula per file, '#' starts a comment that
    runs to the end of its line.  The lines stay apart, so an error names
    the file's own line and column."""
    return "\n".join(line.partition("#")[0] for line in text.splitlines()).rstrip()
