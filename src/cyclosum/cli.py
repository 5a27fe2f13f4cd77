"""Command-line front end.

One subcommand per pipeline operation.  The library returns exact
values, and this module alone turns them into payloads and text: exact
values always serialize as rational strings "a/b", decimals are opt-in
renderings.  Exit codes:
0 success, 1 verification mismatch, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .catalan import catalan_a, extract_coefficient_family, h_global_series
from .dsl import (FormulaSemanticError, parse_conjecture, parse_formula,
                  parse_qpoly, strip_comments)
from .exactcore import NVAR, TVAR, decimal_str, dyadic_str, poly_str, rat_str
from .invariants import (cos_power_sum, multiplicative_invariant, punctured_min_poly,
                         punctured_power_sum, sin_power_sum)
from .oracle import DEFAULT_PRECISION, cross_check
from .rigidity import evaluate, eventual_polynomial, verify_identity

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# Fraction("1e-k") builds 10^k in full, superlinear in k (14 s at k = 10^7
# on a 2-core VM); a larger --tolerance exponent is refused before that.
MAX_TOLERANCE_EXPONENT = 100_000
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]*)\s*\Z")
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text):
    """An integer flag in ASCII digits, as the DSL reads numbers; int()
    alone would also take other Unicode digits, a sign, spaces and _."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


_integer.__name__ = "int"  # argparse's "invalid int value" names the type


def _load_formula(args):
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            text = strip_comments(fh.read())
    elif args.formula is not None:
        text = args.formula
    else:
        raise FormulaSemanticError("missing --formula or --file")
    return parse_formula(text)


def _tolerance(text):
    """--tolerance as an exact rational in ASCII digits, or None when it
    is not given."""
    if text is None:
        return None
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        # the length test first: int() refuses more than 4,300 digits
        if (len(digits) > len(str(MAX_TOLERANCE_EXPONENT))
                or int(digits or 0) > MAX_TOLERANCE_EXPONENT):
            raise ValueError(f"--tolerance exponent exceeds {MAX_TOLERANCE_EXPONENT}"
                             " in magnitude")
    try:
        # Fraction reads any Unicode digit, and from CPython 3.11 on also
        # PEP 515 underscores
        if not text.isascii() or "_" in text:
            raise ValueError
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"--tolerance expects a rational such as 1/1000000, got {text!r}"
        ) from None


def _scalar(value_fn):
    """Handler for a (n, h) command printing one exact value."""
    def handler(args):
        return {"n": str(args.n), "h": str(args.h),
                "value": rat_str(value_fn(args.n, args.h))}
    return handler


def _mq(args):
    Q = parse_qpoly(args.formula)
    return {"Q": str(Q), "n": str(args.n),
            "value": rat_str(multiplicative_invariant(Q, args.n))}


def _eval(args):
    F = _load_formula(args)
    if args.n < F.n_star:
        raise ValueError(
            f"below stable threshold {F.n_star}; "
            "'cyclosum oracle' prints the exact value at any n >= 2"
        )
    report = evaluate(F, args.n)
    breakdown = {f"P_{h}": rat_str(v) for h, v in enumerate(report.power_sums, start=1)}
    for i, v in enumerate(report.product_values, start=1):
        breakdown[f"M_{i}"] = rat_str(v)
    return {"formula": str(F), "n": str(args.n), "mode": report.mode,
            "value": rat_str(report.value), "breakdown": breakdown}


def _eventual(args):
    F = _load_formula(args)
    payload = {} if args.fmt == "text" else {"formula": str(F)}
    payload["eventual_polynomial"] = poly_str(eventual_polynomial(F), NVAR)
    return payload


def _verify(args):
    F = _load_formula(args)
    report = verify_identity(F, parse_conjecture(args.conjecture),
                             check_below_threshold=args.below_threshold)
    difference = None if report.symbolic_match else poly_str(report.difference, NVAR)
    rows = [(n, rat_str(e), rat_str(g), e == g) for n, e, g in report.per_level]
    if args.fmt != "text":
        return {"formula": str(F), "d": F.d, "n_star": F.n_star,
                "eventual_polynomial": poly_str(report.eventual, NVAR),
                "symbolic_match": report.symbolic_match, "difference": difference,
                "per_level": [{"n": n, "expected": e, "got": g, "pass": ok}
                              for n, e, g, ok in rows],
                "pass": report.passed}, report.passed
    lines = [f"symbolic (all n >= {F.n_star}): "
             + ("PASS" if report.symbolic_match else "FAIL")]
    if difference is not None:
        lines.append(f"difference: {difference}")
    lines += [f"n={n}: expected {e}, got {g} -> {'pass' if ok else 'MISMATCH'}"
              for n, e, g, ok in rows]
    return {"report": "\n".join(lines)}, report.passed


def _extract(args):
    Q = parse_qpoly(args.formula)
    psi = extract_coefficient_family(Q, args.r)
    return {"Q": str(Q), "r": str(args.r), "family": str(psi)}


def _oracle(args):
    F = _load_formula(args)
    report = cross_check(F, args.n, precision=args.precision,
                         tolerance=_tolerance(args.tolerance))
    return {"quantity": str(F), "exact": rat_str(report.exact),
            "float": decimal_str(report.value, 30),
            "residual": decimal_str(report.residual, 10),
            "tolerance": decimal_str(report.tolerance, 10),
            "pass": report.passed}, report.passed


# Argument key -> (flag, add_argument keywords).
_ARGS = {
    "n": ("--n", dict(type=_integer, required=True, help="cyclotomic level")),
    "h": ("--h", dict(type=_integer, required=True, help="power-sum exponent")),
    "order": ("--order", dict(type=_integer, required=True, help="truncation order")),
    "formula": ("--formula", dict(help="formula DSL text")),
    "file": ("--file", dict(help="file with one formula ('#' comments)")),
    "q": ("--formula", dict(required=True, help="unit-normalized Q in t (and z)")),
    "conjecture": ("--conjecture", dict(required=True, help="polynomial in n")),
    "below-threshold": ("--below-threshold", dict(
        action="store_true",
        help="also check levels 2 <= n < n_star against the exact oracle")),
    "catalan-n": ("--n", dict(type=_integer, required=True)),
    "catalan-l": ("--r", dict(type=_integer, required=True, help="index l")),
    "extract-r": ("--r", dict(type=_integer, required=True)),
    "precision": ("--precision", dict(type=_integer, default=DEFAULT_PRECISION, help="bits")),
    "tolerance": ("--tolerance", dict(
        help="absolute tolerance (default: the float route's own error bound)")),
    "format": ("--format", dict(choices=("text", "json", "tsv"), default="text",
                                dest="fmt")),
}

# Subcommand -> (help, argument keys, handler, the one payload key that
# text output prints, or None for every key as "key: value").  A handler
# returns its payload, or (payload, passed) when it can report a mismatch.
COMMANDS = {
    "power-sum": ("punctured power sum P_h(n)", ("n", "h", "format"),
                  _scalar(punctured_power_sum), "value"),
    "cos-sum": ("full cosine power sum C(n,h)", ("n", "h", "format"),
                _scalar(cos_power_sum), "value"),
    "sin-sum": ("full sine power sum S(n,h)", ("n", "h", "format"),
                _scalar(sin_power_sum), "value"),
    "minpoly": ("punctured minimal polynomial W_n", ("n", "format"),
                lambda a: {"n": str(a.n), "W": poly_str(punctured_min_poly(a.n), TVAR)}, "W"),
    "mq": ("multiplicative invariant M_Q(n)", ("q", "n", "format"), _mq, "value"),
    "eval": ("stable-range exact evaluation", ("n", "formula", "file", "format"),
             _eval, None),
    "eventual": ("eventual polynomial in n", ("formula", "file", "format"),
                 _eventual, "eventual_polynomial"),
    "verify": ("verify a conjectured identity",
               ("formula", "file", "format", "conjecture", "below-threshold"),
               _verify, "report"),
    "hseries": ("global h_r generating series", ("n", "order", "format"),
                lambda a: {"n": str(a.n), "order": str(a.order), "coefficients":
                           [dyadic_str(H, r) for r, H in
                            enumerate(h_global_series(a.n, a.order))]}, None),
    "catalan-a": ("Catalan power coefficient a_l(n)", ("catalan-n", "catalan-l", "format"),
                  lambda a: {"l": str(a.r), "n": str(a.n),
                             "value": rat_str(catalan_a(a.r, a.n))}, "value"),
    "extract": ("coefficient family from a product factor",
                ("q", "extract-r", "format"), _extract, "family"),
    "oracle": ("cross-check exact vs float evaluation",
               ("n", "formula", "file", "format", "precision", "tolerance"),
               _oracle, None),
}


# Built on first use and shared by every later call, so callers must not
# change it: argparse keeps no state between parses, and --help and usage
# text wrap at the COLUMNS read when they print.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosum",
        description=(
            "Exact evaluation of bounded-degree symmetric families at "
            "punctured cyclotomic cosine points"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys, _, _) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for key in keys:
            flag, spec = _ARGS[key]
            sub.add_argument(flag, **spec)
    return parser


def _emit(payload: dict, fmt: str, text_key):
    """Render a flat payload as text, json, or tsv.  Lists and dicts
    print as json, and so do booleans and None in tsv."""
    text_only = fmt == "text" and text_key
    if text_only:
        payload = {text_key: payload[text_key]}
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    sep = "\t" if fmt == "tsv" else ": "
    as_json = (list, dict, bool, type(None)) if fmt == "tsv" else (list, dict)
    for k, v in payload.items():
        v = json.dumps(v) if isinstance(v, as_json) else v
        print(v if text_only else f"{k}{sep}{v}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    _, _, handler, text_key = COMMANDS[args.command]
    try:
        result = handler(args)
        payload, passed = result if isinstance(result, tuple) else (result, True)
        _emit(payload, args.fmt, text_key)
    # OverflowError: an int too large for a list size, such as a huge --n
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # MemoryError: a list too long for memory, such as --n 2^62, refused
    # before anything is allocated
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
