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

Every mode parses into PowerSumExpr, the formula's own type: "pN" is
the generator v_N and "z" the coefficient variable.  Inside prod(...)
"t" is v_1, so the coefficient of t^k is terms[(k,)]; in a conjecture
"n" stands where "z" would, and the constant term is the polynomial.
Division is restricted to nonzero rational constants.  Every input
either yields a value or a positioned syntax/semantic error.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .exactcore import NVAR, TVAR, ZVAR, UniPoly
from .invariants import QPoly
from .catalan import extract_coefficient_family, h_family
from .symfunc import PowerSumExpr
from .rigidity import AdmissibleFormula

MAX_POWER_SUM_INDEX = 32
# Longest number token: CPython's default limit on the digits int() reads.
MAX_NUMBER_DIGITS = 4300
MAX_NESTING = 100  # groups, (...) or prod(...), open at once


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class FormulaSemanticError(ValueError):
    pass


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _check_digits(digits: str, line: int, column: int):
    if len(digits) > MAX_NUMBER_DIGITS:
        raise FormulaSyntaxError(
            f"number of {len(digits)} digits exceeds the maximum of "
            f"{MAX_NUMBER_DIGITS} digits", line, column
        )


def _tokenize(text: str) -> List[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "number":
            _check_digits(chunk, line, col)
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _to_qpoly(psi: PowerSumExpr) -> QPoly:
    """The product factor whose t^k coefficient is that of v_1^k in psi."""
    by_t = {k[0] if k else 0: c for k, c in psi.terms.items()}
    try:
        return QPoly([by_t.get(k, 0) for k in range(max(by_t, default=0) + 1)])
    except ValueError as exc:
        raise FormulaSemanticError(str(exc)) from None


class _FVal:
    """Parse-time value: a symmetric part plus accumulated product factors."""

    __slots__ = ("psi", "prods")

    def __init__(self, psi: PowerSumExpr, prods: Tuple[Tuple[QPoly, int], ...] = ()):
        self.psi = psi
        self.prods = prods

    def _require_pure(self, op: str):
        if self.prods:
            raise FormulaSemanticError(
                f"product factors cannot take part in {op}; "
                "multiply prod(...) at the top level only"
            )

    def add(self, other: "_FVal") -> "_FVal":
        self._require_pure("addition")
        other._require_pure("addition")
        return _FVal(self.psi + other.psi)

    def sub(self, other: "_FVal") -> "_FVal":
        self._require_pure("subtraction")
        other._require_pure("subtraction")
        return _FVal(self.psi - other.psi)

    def neg(self) -> "_FVal":
        return _FVal(-self.psi, self.prods)

    def mul(self, other: "_FVal") -> "_FVal":
        return _FVal(self.psi * other.psi, self.prods + other.prods)

    def div(self, other: "_FVal") -> "_FVal":
        other._require_pure("division")
        c = other.psi.terms.get((), UniPoly())
        if not other.psi.is_constant() or not c.is_constant():
            raise FormulaSemanticError("division is only allowed by rational constants")
        if c.is_zero():
            raise FormulaSemanticError("division by zero")
        return _FVal(self.psi.scale(1 / c.constant()), self.prods)

    def pow(self, k: int) -> "_FVal":
        if k < 0:
            raise FormulaSemanticError("negative exponents are not allowed")
        return _FVal(self.psi**k, tuple((Q, m * k) for Q, m in self.prods if m * k))


class _Parser:
    def __init__(self, text: str, mode: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.mode = mode  # "formula", "qpoly", or "conjecture"
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}")
        return self.advance()

    def group(self) -> _FVal:
        """The expression between '(' and ')'.  A '(' that would open more
        than MAX_NESTING groups is refused, so the recursion stays bounded."""
        tok = self.expect("(")
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(
                f"groups nest deeper than {MAX_NESTING} levels", tok.line, tok.col
            )
        self.depth += 1
        value = self.expression()
        self.depth -= 1
        self.expect(")")
        return value

    def fail(self, message: str):
        tok = self.peek()
        raise FormulaSyntaxError(message, tok.line, tok.col)

    # expression := term { (+|-) term }
    def expression(self) -> _FVal:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            negate = tok.text == "-"
        value = self.term()
        if negate:
            value = value.neg()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            rhs = self.term()
            value = value.add(rhs) if op == "+" else value.sub(rhs)
        return value

    # term := factor { (*|/) factor }
    def term(self) -> _FVal:
        value = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            rhs = self.factor()
            value = value.mul(rhs) if op == "*" else value.div(rhs)
        return value

    # factor := atom [ ^ INT ]
    def factor(self) -> _FVal:
        value = self.atom()
        if self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number":
                self.fail("expected an integer exponent after '^'")
            self.advance()
            value = value.pow(int(tok.text))
        return value

    def _int_args(self, count: int) -> List[int]:
        """'(' INT {',' INT} ')' with `count` integers."""
        self.expect("(")
        args = []
        for i in range(count):
            if i:
                self.expect(",")
            tok = self.peek()
            if tok.kind != "number":
                self.fail("expected an integer argument")
            args.append(int(self.advance().text))
        self.expect(")")
        return args

    def atom(self) -> _FVal:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return _FVal(PowerSumExpr.const(int(tok.text)))
        if tok.text == "(":
            return self.group()
        if tok.kind == "name":
            return self.name_atom()
        self.fail(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input")

    def name_atom(self) -> _FVal:
        tok = self.advance()
        name = tok.text
        if self.mode == "conjecture":
            if name == NVAR:
                return _FVal(PowerSumExpr.z())
            self.fail(f"unknown symbol {name!r} in a conjecture (only 'n' is allowed)")
        if name == ZVAR:
            return _FVal(PowerSumExpr.z())
        if self.mode == "qpoly":
            if name == TVAR:
                return _FVal(PowerSumExpr.gen(1))
            self.fail(f"unknown symbol {name!r} inside prod(...) (use 't' and 'z')")
        # formula mode
        if re.fullmatch(r"p\d+", name):
            _check_digits(name[1:], tok.line, tok.col)
            index = int(name[1:])
            if index < 1:
                raise FormulaSemanticError("power-sum index must be >= 1")
            if index > MAX_POWER_SUM_INDEX:
                raise FormulaSemanticError(
                    f"power-sum index {index} exceeds the configured maximum "
                    f"{MAX_POWER_SUM_INDEX}"
                )
            return _FVal(PowerSumExpr.gen(index))
        if name == "energy":
            gen = PowerSumExpr.gen
            return _FVal(PowerSumExpr.z() * gen(2) - gen(1) ** 2)
        if name == "e":
            (r,) = self._int_args(1)
            self._check_index(r)
            return _FVal(extract_coefficient_family(QPoly([1, 1]), r))
        if name == "h":
            (r,) = self._int_args(1)
            self._check_index(r)
            return _FVal(h_family(r))
        if name == "mixed":
            a, b = self._int_args(2)
            if a < 1 or b < 1:
                raise FormulaSemanticError("mixed(a, b) arguments must be >= 1")
            self._check_index(a + b)
            # sum_{i != j} x_i^a x_j^b = p_a p_b - p_{a+b}
            gen = PowerSumExpr.gen
            return _FVal(gen(a) * gen(b) - gen(a + b))
        if name == "prod":
            outer, self.mode = self.mode, "qpoly"
            inner = self.group()
            self.mode = outer
            return _FVal(PowerSumExpr.const(1), ((_to_qpoly(inner.psi), 1),))
        self.fail(f"unknown symbol {name!r}")

    def _check_index(self, r: int):
        if r < 1:
            raise FormulaSemanticError("builtin degree must be >= 1")
        if r > MAX_POWER_SUM_INDEX:
            raise FormulaSemanticError(
                f"degree {r} exceeds the configured maximum {MAX_POWER_SUM_INDEX}"
            )

    def parse(self) -> _FVal:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected trailing input {tok.text!r}")
        return value


def parse_formula(text: str) -> AdmissibleFormula:
    """Parse DSL text into an AdmissibleFormula."""
    value = _Parser(text, "formula").parse()
    return AdmissibleFormula(value.psi, value.prods)


def parse_conjecture(text: str) -> UniPoly:
    """Parse a conjectured eventual polynomial in n."""
    psi = _Parser(text, "conjecture").parse().psi
    return psi.terms.get((), UniPoly())


def parse_qpoly(text: str) -> QPoly:
    """Parse a unit-normalized product factor in t (and optionally z)."""
    return _to_qpoly(_Parser(text, "qpoly").parse().psi)


def strip_comments(text: str) -> str:
    """File form: UTF-8, one formula per file, '#' starts a comment."""
    lines = []
    for line in text.splitlines():
        idx = line.find("#")
        if idx >= 0:
            line = line[:idx]
        lines.append(line)
    return " ".join(lines).strip()
