"""Command-line front end.

One subcommand per pipeline operation; exact values always serialize as
rational strings "a/b", decimals are opt-in renderings.  Exit codes:
0 success, 1 verification mismatch, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .catalan import catalan_a, extract_coefficient_family, h_global_series
from .dsl import (
    FormulaSemanticError,
    FormulaSyntaxError,
    parse_conjecture,
    parse_formula,
    parse_qpoly,
    strip_comments,
)
from .exactcore import poly_str, rat_str
from .invariants import (
    cos_power_sum,
    multiplicative_invariant,
    punctured_min_poly,
    punctured_power_sum,
    sin_power_sum,
)
from .oracle import DEFAULT_PRECISION, cross_check
from .rigidity import ProductCaseError, evaluate, eventual_polynomial, verify_identity
from .symfunc import render_powersum

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _emit(payload: dict, fmt: str, order=None):
    """Render a flat payload as text, json, or tsv."""
    keys = order or list(payload)
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "tsv":
        for k in keys:
            v = payload[k]
            if isinstance(v, (list, dict)):
                v = json.dumps(v)
            print(f"{k}\t{v}")
    else:
        for k in keys:
            v = payload[k]
            if isinstance(v, (list, dict)):
                v = json.dumps(v)
            print(v if len(keys) == 1 else f"{k}: {v}")


def _load_formula(args):
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as fh:
            text = strip_comments(fh.read())
    elif getattr(args, "formula", None) is not None:
        text = args.formula
    else:
        raise FormulaSemanticError("missing --formula or --file")
    return parse_formula(text)


def _add_common(sub, *flags):
    if "n" in flags:
        sub.add_argument("--n", type=int, required=True, help="cyclotomic level")
    if "h" in flags:
        sub.add_argument("--h", type=int, required=True, help="power-sum exponent")
    if "r" in flags:
        sub.add_argument("--r", type=int, required=True, help="coefficient index")
    if "order" in flags:
        sub.add_argument("--order", type=int, required=True, help="truncation order")
    if "formula" in flags:
        sub.add_argument("--formula", help="formula DSL text")
        sub.add_argument("--file", help="file with one formula ('#' comments)")
    sub.add_argument(
        "--format", choices=("text", "json", "tsv"), default="text", dest="fmt"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosum",
        description=(
            "Exact evaluation of bounded-degree symmetric families at "
            "punctured cyclotomic cosine points"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("power-sum", help="punctured power sum P_h(n)"), "n", "h")
    _add_common(subs.add_parser("cos-sum", help="full cosine power sum C(n,h)"), "n", "h")
    _add_common(subs.add_parser("sin-sum", help="full sine power sum S(n,h)"), "n", "h")
    _add_common(subs.add_parser("minpoly", help="punctured minimal polynomial W_n"), "n")

    mq = subs.add_parser("mq", help="multiplicative invariant M_Q(n)")
    mq.add_argument("--formula", required=True, help="unit-normalized Q in t (and z)")
    _add_common(mq, "n")

    ev = subs.add_parser("eval", help="stable-range exact evaluation")
    _add_common(ev, "n", "formula")

    _add_common(subs.add_parser("eventual", help="eventual polynomial in n"), "formula")

    ver = subs.add_parser("verify", help="verify a conjectured identity")
    _add_common(ver, "formula")
    ver.add_argument("--conjecture", required=True, help="polynomial in n")
    ver.add_argument(
        "--below-threshold",
        action="store_true",
        help="also check levels 2 <= n < n_star against the exact oracle",
    )

    _add_common(subs.add_parser("hseries", help="global h_r generating series"), "n", "order")

    ca = subs.add_parser("catalan-a", help="Catalan power coefficient a_l(n)")
    ca.add_argument("--n", type=int, required=True)
    ca.add_argument("--r", type=int, required=True, help="index l")
    ca.add_argument("--format", choices=("text", "json", "tsv"), default="text", dest="fmt")

    ex = subs.add_parser("extract", help="coefficient family from a product factor")
    ex.add_argument("--formula", required=True, help="unit-normalized Q in t (and z)")
    ex.add_argument("--r", type=int, required=True)
    ex.add_argument("--format", choices=("text", "json", "tsv"), default="text", dest="fmt")

    orc = subs.add_parser("oracle", help="cross-check exact vs float evaluation")
    _add_common(orc, "n", "formula")
    orc.add_argument("--precision", type=int, default=DEFAULT_PRECISION, help="bits")
    orc.add_argument(
        "--tolerance",
        help="absolute tolerance (default: the float route's own error bound)",
    )

    return parser


def _tolerance(text):
    """--tolerance as an exact rational, or None when it is not given."""
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"--tolerance expects a rational such as 1/1000000, got {text!r}"
        ) from None


def _nstar_text(n_star: int) -> str:
    return f"all n >= {n_star}"


def run(args) -> int:
    cmd = args.command
    if cmd == "power-sum":
        _emit({"n": str(args.n), "h": str(args.h),
               "value": rat_str(punctured_power_sum(args.n, args.h))},
              args.fmt, order=["value"] if args.fmt == "text" else None)
        return EXIT_OK
    if cmd == "cos-sum":
        _emit({"n": str(args.n), "h": str(args.h),
               "value": rat_str(cos_power_sum(args.n, args.h))},
              args.fmt, order=["value"] if args.fmt == "text" else None)
        return EXIT_OK
    if cmd == "sin-sum":
        _emit({"n": str(args.n), "h": str(args.h),
               "value": rat_str(sin_power_sum(args.n, args.h))},
              args.fmt, order=["value"] if args.fmt == "text" else None)
        return EXIT_OK
    if cmd == "minpoly":
        W = punctured_min_poly(args.n)
        _emit({"n": str(args.n), "W": poly_str(W)},
              args.fmt, order=["W"] if args.fmt == "text" else None)
        return EXIT_OK
    if cmd == "mq":
        Q = parse_qpoly(args.formula)
        _emit({"Q": str(Q), "n": str(args.n),
               "value": rat_str(multiplicative_invariant(Q, args.n))},
              args.fmt, order=["value"] if args.fmt == "text" else None)
        return EXIT_OK
    if cmd == "eval":
        F = _load_formula(args)
        if args.n < F.n_star:
            raise ValueError(
                f"below stable threshold {F.n_star}; "
                "'cyclosum oracle' prints the exact value at any n >= 2"
            )
        report = evaluate(F, args.n)
        payload = {
            "formula": F.render(),
            "n": str(args.n),
            "mode": report.mode,
            "value": rat_str(report.value),
            "breakdown": report.breakdown(),
        }
        _emit(payload, args.fmt)
        return EXIT_OK
    if cmd == "eventual":
        F = _load_formula(args)
        poly = eventual_polynomial(F)
        _emit({"formula": F.render(), "eventual_polynomial": poly_str(poly)},
              args.fmt,
              order=["eventual_polynomial"] if args.fmt == "text" else None)
        return EXIT_OK
    if cmd == "verify":
        F = _load_formula(args)
        conjecture = parse_conjecture(args.conjecture)
        if not F.is_polynomial_case:
            raise ProductCaseError(
                "symbolic verification requires the polynomial case; "
                "'cyclosum oracle' checks a product formula at one level"
            )
        report = verify_identity(F, conjecture, check_below_threshold=args.below_threshold)
        payload = report.to_dict()
        if args.fmt == "text":
            sym = "PASS" if report.symbolic_match else "FAIL"
            print(f"symbolic ({_nstar_text(report.n_star)}): {sym}")
            if report.symbolic_match is False:
                print(f"difference: {poly_str(report.difference)}")
            for c in report.per_level:
                status = "pass" if c.passed else "MISMATCH"
                print(
                    f"n={c.n}: expected {rat_str(c.expected)}, "
                    f"got {rat_str(c.got)} -> {status}"
                )
        else:
            _emit(payload, args.fmt)
        return EXIT_OK if report.passed else EXIT_MISMATCH
    if cmd == "hseries":
        coeffs = [rat_str(c) for c in h_global_series(args.n, args.order)]
        _emit({"n": str(args.n), "order": str(args.order), "coefficients": coeffs},
              args.fmt)
        return EXIT_OK
    if cmd == "catalan-a":
        _emit({"l": str(args.r), "n": str(args.n),
               "value": rat_str(catalan_a(args.r, args.n))},
              args.fmt, order=["value"] if args.fmt == "text" else None)
        return EXIT_OK
    if cmd == "extract":
        Q = parse_qpoly(args.formula)
        psi = extract_coefficient_family(list(Q.coeffs), args.r)
        _emit({"Q": str(Q), "r": str(args.r), "family": render_powersum(psi)},
              args.fmt, order=["family"] if args.fmt == "text" else None)
        return EXIT_OK
    if cmd == "oracle":
        F = _load_formula(args)
        report = cross_check(F, args.n, tolerance=_tolerance(args.tolerance),
                             precision=args.precision)
        _emit(report.to_dict(), args.fmt)
        return EXIT_OK if report.passed else EXIT_MISMATCH
    raise AssertionError(f"unhandled command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return run(args)
    except (FormulaSyntaxError, FormulaSemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ProductCaseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
