import contextlib
import io
import json
import math
import os
import pathlib
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from cyclosum import cli
from cyclosum.exactcore import UniPoly
from cyclosum.symfunc import PowerSumExpr
from reference import compose

# Tier-1 runs are reproducible: every hypothesis test draws the same
# examples on every run, with no deadline and no example database.
settings.register_profile("ci", derandomize=True, deadline=None, database=None)
settings.load_profile("ci")


SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def dyadic(man, exp):
    """man * 2^exp as an mpf, exactly."""
    with mpmath.workprec(abs(man).bit_length() + 1):
        return mpmath.ldexp(mpmath.mpf(man), exp)


def cli_json(*argv):
    """(exit code, parsed stdout) of cli.main(argv) with --format json."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([*argv, "--format", "json"])
    return rc, json.loads(out.getvalue())


def src_env():
    """The environment with src first on PYTHONPATH, for a child process
    that runs the CLI from this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)


def random_rational(rng, bound=50):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_unipoly(rng, max_degree, bound=20):
    degree = rng.randint(0, max_degree)
    return UniPoly([random_rational(rng, bound) for _ in range(degree + 1)])


def random_powersum_expr(rng, d, max_terms=3, z_degree=1):
    """Random nonzero PowerSumExpr of weighted degree <= d."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        remaining = rng.randint(0, d)
        exps = []
        r = 1
        while remaining >= r:
            e = rng.randint(0, remaining // r)
            exps.append(e)
            remaining -= r * e
            r += 1
        key = tuple(exps)
        coeff = random_unipoly(rng, rng.randint(0, z_degree), bound=6)
        if not coeff.is_zero():
            terms[key] = coeff
    psi = PowerSumExpr(terms)
    if not psi.rows:
        return PowerSumExpr.gen(1)
    return psi


@st.composite
def powersum_exprs(draw, max_d=18):
    """Formulas for differential tests: random_powersum_expr with weighted
    degree <= max_d and z-degree <= 3 (degree 0 gives the constants), or
    the zero formula."""
    if draw(st.integers(0, 9)) == 0:
        return PowerSumExpr()
    rng = draw(st.randoms(use_true_random=False))
    return random_powersum_expr(
        rng,
        draw(st.sampled_from(range(max_d + 1))),
        max_terms=draw(st.sampled_from(range(1, 7))),
        z_degree=draw(st.sampled_from(range(4))),
    )


@st.composite
def power_bases(draw):
    """A base for UniPoly.__pow__: the zero polynomial, a unit, or a row
    of degree up to 6 over a denominator up to 12, with zero low
    coefficients, gaps and a lowest coefficient of either sign."""
    kind = draw(st.sampled_from(("zero", "unit", "row", "row")))
    if kind == "zero":
        return UniPoly()
    if kind == "unit":
        return UniPoly([draw(st.sampled_from((1, -1)))])
    low = draw(st.integers(0, 3))
    lowest = draw(st.integers(-9, 9).filter(bool))
    rest = draw(st.lists(st.just(0) | st.integers(-9, 9), max_size=6 - low))
    return UniPoly.from_row(draw(st.integers(1, 12)), [0] * low + [lowest] + rest)


def assert_canonical(psi):
    """psi is in PowerSumExpr's one integer form: den > 0, trimmed keys,
    nonzero trimmed integer rows, gcd(den, every entry) = 1; and the
    Fraction coefficients of terms build it back, with the same hash."""
    assert isinstance(psi.den, int) and psi.den > 0
    entries = []
    for key, row in psi.rows.items():
        assert isinstance(key, tuple) and not (key and key[-1] == 0)
        assert isinstance(row, tuple) and row and row[-1] != 0
        assert all(isinstance(x, int) for x in row)
        entries += row
    assert math.gcd(psi.den, *entries) == 1
    rebuilt = PowerSumExpr(psi.terms)
    assert rebuilt == psi
    assert hash(rebuilt) == hash(psi)


def assert_canonical_unipoly(p):
    """p is in UniPoly's one integer form: den > 0, an integer row with no
    trailing zero, gcd(den, *row) = 1; and the Fraction coefficients of
    coeffs build it back, with the same hash."""
    assert isinstance(p.den, int) and p.den > 0
    assert isinstance(p.row, tuple) and all(isinstance(x, int) for x in p.row)
    assert not (p.row and p.row[-1] == 0)
    assert math.gcd(p.den, *p.row) == 1
    rebuilt = UniPoly(p.coeffs)
    assert rebuilt == p
    assert hash(rebuilt) == hash(p)


def reference_substitute(psi, gen_values, z_value):
    """v_r := gen_values[r] and z := z_value by plain ring arithmetic in
    any commutative target (rationals or UniPoly): the reference for the
    integer kernel PowerSumExpr.substitute."""
    total = None
    for exps, c in psi.terms.items():
        val = compose(c, z_value) if isinstance(z_value, UniPoly) else c(z_value)
        for i, e in enumerate(exps):
            for _ in range(e):
                val = val * gen_values[i + 1]
        total = val if total is None else total + val
    if total is None:
        return z_value * 0
    return total


@lru_cache(maxsize=None)
def newton_e(r):
    """Reference e_r in the power sums, via Newton's recurrence
    r*e_r = sum_{i=1}^{r} (-1)^(i-1) e_{r-i} p_i."""
    if r == 0:
        return PowerSumExpr.const(1)
    acc = PowerSumExpr()
    for i in range(1, r + 1):
        term = newton_e(r - i) * PowerSumExpr.gen(i)
        acc = acc + (term if i % 2 == 1 else -term)
    return acc.scale(Fraction(1, r))


@lru_cache(maxsize=None)
def newton_h(r):
    """Reference h_r in the power sums, via r*h_r = sum_{i=1}^{r} h_{r-i} p_i."""
    if r == 0:
        return PowerSumExpr.const(1)
    acc = PowerSumExpr()
    for i in range(1, r + 1):
        acc = acc + newton_h(r - i) * PowerSumExpr.gen(i)
    return acc.scale(Fraction(1, r))


@pytest.fixture
def rng():
    return random.Random(20260823)
