"""Recursive-descent parser for the formula surface syntax.

Grammar (EBNF):

    formula    := symexpr { "*" product }
    symexpr    := additive expression over rational literals, "z",
                  "p" INT, builtins "e(" INT ")", "h(" INT ")",
                  "mixed(" INT "," INT ")", "energy",
                  with + - * / ^INT and parentheses
    product    := "prod(" qpoly ")" [ "^" INT ]
    qpoly      := polynomial in "t" (and optionally "z"), constant term 1
    conjecture := polynomial in "n" with rational coefficients

Division is restricted to nonzero rational constants.  Every input
either yields a value or a positioned syntax/semantic error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .exactcore import UniPoly
from .invariants import NVAR, QPoly, TVAR
from .catalan import extract_coefficient_family, h_family
from .symfunc import PowerSumExpr, ZVAR, coeff_poly
from .rigidity import AdmissibleFormula, build_admissible

MAX_POWER_SUM_INDEX = 32


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


class _MPoly:
    """Sparse multivariate polynomial over Q used only as a parse target.
    Keys are sorted tuples of (variable, exponent) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple, Fraction] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, c) -> "_MPoly":
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "_MPoly":
        return cls({((name, 1),): Fraction(1)})

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return _MPoly(out)

    def __neg__(self):
        return _MPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out: Dict[Tuple, Fraction] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                exps: Dict[str, int] = {}
                for name, e in ka + kb:
                    exps[name] = exps.get(name, 0) + e
                key = tuple(sorted(exps.items()))
                out[key] = out.get(key, Fraction(0)) + va * vb
        return _MPoly(out)

    def __pow__(self, k: int):
        result = _MPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c: Fraction) -> "_MPoly":
        return _MPoly({k: v * c for k, v in self.terms.items()})

    def as_const(self) -> Optional[Fraction]:
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {()}:
            return self.terms[()]
        return None

    def variables(self):
        return {name for key in self.terms for name, _ in key}


def _psi_to_mpoly(psi: PowerSumExpr) -> _MPoly:
    # One dict built in one pass; float_eval sums in its insertion order.
    terms: Dict[Tuple, Fraction] = {}
    for exps, c in psi.terms.items():
        pkey = [(f"p{i + 1}", e) for i, e in enumerate(exps) if e]
        for zk, zc in enumerate(c.coeffs):
            if zc:
                key = tuple(sorted(pkey + [(ZVAR, zk)] if zk else pkey))
                terms[key] = terms.get(key, Fraction(0)) + zc
    return _MPoly(terms)


def _mpoly_to_psi(mp: _MPoly) -> PowerSumExpr:
    terms: Dict[Tuple[int, ...], UniPoly] = {}
    for key, c in mp.terms.items():
        zdeg = 0
        exps: Dict[int, int] = {}
        for name, e in key:
            if name == ZVAR:
                zdeg = e
            elif name.startswith("p") and name[1:].isdigit():
                exps[int(name[1:])] = e
            else:
                raise FormulaSemanticError(
                    f"variable {name!r} is not allowed in a symmetric-part expression"
                )
        width = max(exps, default=0)
        vec = tuple(exps.get(r, 0) for r in range(1, width + 1))
        coeff = UniPoly.monomial(c, zdeg, ZVAR)
        prev = terms.get(vec)
        terms[vec] = coeff if prev is None else prev + coeff
    return PowerSumExpr(terms)


def _mpoly_to_qpoly(mp: _MPoly) -> QPoly:
    by_t: Dict[int, UniPoly] = {}
    for key, c in mp.terms.items():
        tdeg = 0
        zdeg = 0
        for name, e in key:
            if name == TVAR:
                tdeg = e
            elif name == ZVAR:
                zdeg = e
            else:
                raise FormulaSemanticError(
                    f"variable {name!r} is not allowed inside prod(...)"
                )
        mono = UniPoly.monomial(c, zdeg, ZVAR)
        prev = by_t.get(tdeg)
        by_t[tdeg] = mono if prev is None else prev + mono
    width = max(by_t, default=0)
    coeffs = [by_t.get(k, UniPoly((), ZVAR)) for k in range(width + 1)]
    try:
        return QPoly(coeffs)
    except ValueError as exc:
        raise FormulaSemanticError(str(exc)) from None


def _mpoly_to_unipoly(mp: _MPoly, var: str) -> UniPoly:
    coeffs: Dict[int, Fraction] = {}
    for key, c in mp.terms.items():
        deg = 0
        for name, e in key:
            if name != var:
                raise FormulaSemanticError(
                    f"variable {name!r} is not allowed here; expected a polynomial in {var!r}"
                )
            deg = e
        coeffs[deg] = coeffs.get(deg, Fraction(0)) + c
    width = max(coeffs, default=0)
    return UniPoly([coeffs.get(k, 0) for k in range(width + 1)], var)


class _FVal:
    """Parse-time value: a symmetric part plus accumulated product factors."""

    __slots__ = ("mp", "prods")

    def __init__(self, mp: _MPoly, prods: Tuple[Tuple[QPoly, int], ...] = ()):
        self.mp = mp
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
        return _FVal(self.mp + other.mp)

    def sub(self, other: "_FVal") -> "_FVal":
        self._require_pure("subtraction")
        other._require_pure("subtraction")
        return _FVal(self.mp - other.mp)

    def neg(self) -> "_FVal":
        return _FVal(-self.mp, self.prods)

    def mul(self, other: "_FVal") -> "_FVal":
        return _FVal(self.mp * other.mp, self.prods + other.prods)

    def div(self, other: "_FVal") -> "_FVal":
        other._require_pure("division")
        c = other.mp.as_const()
        if c is None:
            raise FormulaSemanticError("division is only allowed by rational constants")
        if c == 0:
            raise FormulaSemanticError("division by zero")
        return _FVal(self.mp.scale(1 / c), self.prods)

    def pow(self, k: int) -> "_FVal":
        if k < 0:
            raise FormulaSemanticError("negative exponents are not allowed")
        return _FVal(self.mp**k, tuple((Q, m * k) for Q, m in self.prods if m * k))


class _Parser:
    def __init__(self, text: str, mode: str, max_index: int = MAX_POWER_SUM_INDEX):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.mode = mode  # "formula", "qpoly", or "conjecture"
        self.max_index = max_index

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

    def _int_arg(self) -> int:
        self.expect("(")
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected an integer argument")
        self.advance()
        return int(tok.text)

    def atom(self) -> _FVal:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return _FVal(_MPoly.const(int(tok.text)))
        if tok.text == "(":
            self.advance()
            value = self.expression()
            self.expect(")")
            return value
        if tok.kind == "name":
            return self.name_atom()
        self.fail(f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input")

    def name_atom(self) -> _FVal:
        tok = self.advance()
        name = tok.text
        if self.mode == "conjecture":
            if name == NVAR:
                return _FVal(_MPoly.var(NVAR))
            self.fail(f"unknown symbol {name!r} in a conjecture (only 'n' is allowed)")
        if name == ZVAR:
            return _FVal(_MPoly.var(ZVAR))
        if self.mode == "qpoly":
            if name == TVAR:
                return _FVal(_MPoly.var(TVAR))
            self.fail(f"unknown symbol {name!r} inside prod(...) (use 't' and 'z')")
        # formula mode
        if re.fullmatch(r"p\d+", name):
            index = int(name[1:])
            if index < 1:
                raise FormulaSemanticError("power-sum index must be >= 1")
            if index > self.max_index:
                raise FormulaSemanticError(
                    f"power-sum index {index} exceeds the configured maximum "
                    f"{self.max_index}"
                )
            return _FVal(_MPoly.var(f"p{index}"))
        if name == "energy":
            return _FVal(_MPoly.var(ZVAR) * _MPoly.var("p2") - _MPoly.var("p1") ** 2)
        if name == "e":
            r = self._int_arg()
            self.expect(")")
            self._check_index(r)
            return _FVal(_psi_to_mpoly(extract_coefficient_family([1, 1], r)))
        if name == "h":
            r = self._int_arg()
            self.expect(")")
            self._check_index(r)
            return _FVal(_psi_to_mpoly(h_family(r)))
        if name == "mixed":
            a = self._int_arg()
            self.expect(",")
            tok = self.peek()
            if tok.kind != "number":
                self.fail("expected an integer argument")
            self.advance()
            b = int(tok.text)
            self.expect(")")
            if a < 1 or b < 1:
                raise FormulaSemanticError("mixed(a, b) arguments must be >= 1")
            self._check_index(a + b)
            # sum_{i != j} x_i^a x_j^b = p_a p_b - p_{a+b}
            return _FVal(
                _MPoly.var(f"p{a}") * _MPoly.var(f"p{b}") - _MPoly.var(f"p{a + b}")
            )
        if name == "prod":
            self.expect("(")
            inner = _Parser._subparse(self, "qpoly")
            self.expect(")")
            Q = _mpoly_to_qpoly(inner.mp)
            mult = 1
            if self.peek().text == "^":
                self.advance()
                tok = self.peek()
                if tok.kind != "number":
                    self.fail("expected an integer exponent after '^'")
                self.advance()
                mult = int(tok.text)
            return _FVal(_MPoly.const(1), ((Q, mult),) if mult else ())
        self.fail(f"unknown symbol {name!r}")

    def _check_index(self, r: int):
        if r < 1:
            raise FormulaSemanticError("builtin degree must be >= 1")
        if r > self.max_index:
            raise FormulaSemanticError(
                f"degree {r} exceeds the configured maximum {self.max_index}"
            )

    @staticmethod
    def _subparse(parent: "_Parser", mode: str) -> _FVal:
        sub = _Parser.__new__(_Parser)
        sub.tokens = parent.tokens
        sub.pos = parent.pos
        sub.mode = mode
        sub.max_index = parent.max_index
        value = sub.expression()
        parent.pos = sub.pos
        return value

    def parse(self) -> _FVal:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"unexpected trailing input {tok.text!r}")
        return value


def parse_formula(text: str, max_index: int = MAX_POWER_SUM_INDEX) -> AdmissibleFormula:
    """Parse DSL text into an AdmissibleFormula."""
    value = _Parser(text, "formula", max_index).parse()
    psi = _mpoly_to_psi(value.mp)
    return build_admissible(psi, value.prods)


def parse_conjecture(text: str) -> UniPoly:
    """Parse a conjectured eventual polynomial in n."""
    value = _Parser(text, "conjecture").parse()
    return _mpoly_to_unipoly(value.mp, NVAR)


def parse_qpoly(text: str) -> QPoly:
    """Parse a unit-normalized product factor in t (and optionally z)."""
    value = _Parser(text, "qpoly").parse()
    return _mpoly_to_qpoly(value.mp)


def strip_comments(text: str) -> str:
    """File form: UTF-8, one formula per file, '#' starts a comment."""
    lines = []
    for line in text.splitlines():
        idx = line.find("#")
        if idx >= 0:
            line = line[:idx]
        lines.append(line)
    return " ".join(lines).strip()
