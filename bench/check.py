"""Independent correctness check for benchmark ops.

It runs in the benchmark's parent process, never in the timed one, and
imports nothing from cyclosum.  Exact values are compared with a float
evaluation of the op's formula tree at the literal cosine points, at a
precision above the value's bit length and with a relative tolerance
(zero values need an absolute bound instead).  The points come from
mpmath's cos(2 pi/n) and the float recurrence for cos(k 2 pi/n), so the
check shares no code with the library's exact Chebyshev polynomials or
with its float oracle, whose verdicts the crosscheck workload judges.
hseries coefficients are checked exactly against the defining identity
H(s) (s^n T_n(1/s) - s^n) = 2^(n-1) (1 - s), with T_n from its
closed-form integer coefficients.
Eventual polynomials are compared exactly with the generator's own R(n)
and in float at three levels from n_star on.

Each op gets one status: "ok"; "false_fail" (an oracle op whose exact
value the check accepts but whose verdict is FAIL: the seed oracle's
known tolerance defect, measured rather than counted as a failed op);
"failed" (it raised, exited with an unexpected code, or printed a wrong
or self-contradicting verdict); or "wrong" (it printed an exact value,
polynomial or coefficient list that the check rejects, or output that
cannot be read).  A "wrong" op is also a failed op.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import mpmath
from mpmath import mpf

from workloads import QPOLYS, padd, parse_pstr, peval, pscale

GUARD = 64
MIN_PREC = 256
_VERIFY_HEAD = re.compile(r"symbolic \(all n >= (\d+)\): (PASS|FAIL)$")
_VERIFY_LEVEL = re.compile(r"n=(\d+): expected (\S+), got (\S+) -> (pass|MISMATCH)$")


def bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


class Level:
    """Punctured cosine points cos(2 pi k/n), k = 1..n-1, and memoised
    float values of formula pieces at that level.  Point k and point n-k
    coincide, so sums and products run over k < n/2 and add the point -1
    (k = n/2) when n is even."""

    def __init__(self, n: int, prec: int):
        self.n, self.memo = n, {}
        self.even = n % 2 == 0
        # cos((k+1)a) = 2 cos(a) cos(ka) - cos((k-1)a) amplifies rounding
        # errors by at most about (n/2)^2/pi, which the guard bits cover.
        with mpmath.workprec(prec + 2 * n.bit_length() + 16):
            c = mpmath.cos(2 * mpmath.pi / n)
            half, prev = [c], mpf(1)
            while len(half) < (n - 1) // 2:
                prev, cur = half[-1], 2 * c * half[-1] - prev
                half.append(cur)
        self.half = half[: (n - 1) // 2]

    def value(self, tree, prec: int):
        with mpmath.workprec(prec):
            return +self._eval(tree, prec)

    def _memo(self, key, prec, compute):
        hit = self.memo.get(key)
        if hit is None or hit[1] < prec:
            hit = (compute(), prec)
            self.memo[key] = hit
        return hit[0]

    def _psum(self, h, prec):
        def compute():
            return 2 * mpmath.fsum(a**h for a in self.half) + (self.even and (-1) ** h)

        return self._memo(("p", h), prec, compute)

    def _symmetric(self, kind, r, prec):
        """h_r or e_r of the points, from prod 1/(1 - s a) or prod (1 + s a)."""

        def compute():
            c = [mpf(1)] + [mpf(0)] * r
            points = self.half * 2 + [mpf(-1)] * self.even
            for a in points:
                if kind == "h":
                    for j in range(1, r + 1):
                        c[j] += a * c[j - 1]
                else:
                    for j in range(r, 0, -1):
                        c[j] += a * c[j - 1]
            return c[r]

        return self._memo((kind, r), prec, compute)

    def _product(self, q, prec):
        def compute():
            z = self.n - 1
            coeffs = [sum(Fraction(c) * z**i for i, c in enumerate(cz)) for cz in QPOLYS[q]]
            coeffs = [mpf(c.numerator) / c.denominator for c in coeffs]

            def Q(a):
                v = mpf(0)
                for c in reversed(coeffs):
                    v = v * a + c
                return v

            total = mpf(1)
            for a in self.half:
                total *= Q(a)
            return total**2 * (Q(mpf(-1)) if self.even else 1)

        return self._memo(("prod", q), prec, compute)

    def _eval(self, tree, prec):
        kind = tree[0]
        if kind == "p":
            return self._psum(tree[1], prec)
        if kind == "z":
            return mpf(self.n - 1)
        if kind == "c":
            c = Fraction(tree[1])
            return mpf(c.numerator) / c.denominator
        if kind in ("h", "e"):
            return self._symmetric(kind, tree[1], prec)
        if kind == "mixed":
            a, b = tree[1], tree[2]
            return self._psum(a, prec) * self._psum(b, prec) - self._psum(a + b, prec)
        if kind == "energy":
            return (self.n - 1) * self._psum(2, prec) - self._psum(1, prec) ** 2
        if kind == "add":
            return mpmath.fsum(self._eval(t, prec) for t in tree[1])
        if kind == "mul":
            out = mpf(1)
            for t in tree[1]:
                out *= self._eval(t, prec)
            return out
        if kind == "pow":
            return self._eval(tree[1], prec) ** tree[2]
        if kind == "prod":
            return self._product(tree[1], prec) ** tree[2]
        raise ValueError(kind)


def claim_prec(n: int, value: Fraction) -> int:
    return max(MIN_PREC, bits(value) + GUARD + 2 * n.bit_length())


def value_matches(level: Level, tree, value: Fraction) -> bool:
    prec = claim_prec(level.n, value)
    f = level.value(tree, prec)
    with mpmath.workprec(prec):
        if value == 0:
            # Zero claims occur only below the threshold of verify ops,
            # where nonzero values are far above this bound.
            return abs(f) <= mpf(2) ** -(prec - 48)
        exact = mpf(value.numerator) / value.denominator
        return abs(f - exact) <= abs(exact) * mpf(2) ** -(bits(value) + 8)


def chebyshev_coeffs(n: int):
    """c_k with T_n(x) = sum_k c_k x^(n-2k), from the closed form
    c_k = (-1)^k n/(n-k) binom(n-k, k) 2^(n-2k-1)."""
    out = []
    for k in range(n // 2 + 1):
        c = Fraction((-1) ** k * n * math.comb(n - k, k), n - k) * Fraction(2) ** (n - 2 * k - 1)
        out.append(int(c))
    return out


def hseries_matches(n: int, order: int, coeffs) -> bool:
    if len(coeffs) != order + 1:
        return False
    scale = math.lcm(*(c.denominator for c in coeffs))
    H = [c.numerator * (scale // c.denominator) for c in coeffs]
    T = chebyshev_coeffs(n)
    for j in range(order + 1):
        acc = sum(T[k] * H[j - 2 * k] for k in range(min(j // 2, n // 2) + 1))
        if j >= n:
            acc -= H[j - n]
        want = (j == 0) - (j == 1)
        if acc != want * 2 ** (n - 1) * scale:
            return False
    return True


def _fields(out: str) -> dict:
    return dict(line.split(": ", 1) for line in out.splitlines())


class Outcome:
    """Status of one op plus the float claims still to be checked."""

    def __init__(self):
        self.status, self.why, self.claims = "ok", "", []

    def false_fail(self, why):
        if self.status == "ok":
            self.status, self.why = "false_fail", why

    def fail(self, why):
        if self.status in ("ok", "false_fail"):
            self.status, self.why = "failed", why

    def wrong(self, why):
        if self.status != "wrong":
            self.status, self.why = "wrong", why


def _parse_op(op, rc, out, oc: Outcome, seen_eventual: set):
    kind = op["kind"]
    if kind == "hseries":
        f = _fields(out)
        n, order = int(op["argv"][2]), int(op["argv"][4])
        coeffs = [Fraction(c) for c in json.loads(f["coefficients"])]
        if (f["n"], f["order"]) != (str(n), str(order)) or not hseries_matches(n, order, coeffs):
            oc.wrong("hseries coefficients fail the Chebyshev identity")
        return
    if kind in ("mq", "power-sum", "eval"):
        n = op["size"]["n"]
        text = _fields(out)["value"] if kind == "eval" else out.strip()
        value = Fraction(text)
        if kind == "power-sum":
            value /= 2 ** op["size"]["r"]  # P_h = 2^h p_h
        oc.claims.append((n, op["tree"], value))
        return
    if kind == "oracle":
        f = _fields(out)
        oc.claims.append((op["size"]["n"], op["tree"], Fraction(f["exact"])))
        if f["pass"] != ("True" if rc == 0 else "False"):
            oc.fail(f"pass field {f['pass']} disagrees with exit code {rc}")
        elif rc != 0:
            oc.false_fail("oracle verdict FAIL")  # "wrong" below if the value is wrong
        return
    d, R = op["d"], op["R"]
    n_star = d + 2
    if kind == "eventual":
        printed = parse_pstr(out)
        if printed != R:
            oc.wrong("eventual polynomial differs from the stable closed forms")
        if op["argv"][2] not in seen_eventual:
            seen_eventual.add(op["argv"][2])
            for n in (n_star, n_star + 1, n_star + 3):
                oc.claims.append((n, op["tree"], peval(printed, n)))
        return
    lines = out.splitlines()
    head = _VERIFY_HEAD.match(lines[0])
    if not head or int(head.group(1)) != n_star:
        oc.wrong("bad symbolic line")
        return
    symbolic = head.group(2) == "PASS"
    rest = lines[1:]
    if not symbolic:
        diff = parse_pstr(rest[0].removeprefix("difference: "))
        if diff != padd(R, pscale(op["conjecture"], -1)):
            oc.wrong("printed difference is not R - conjecture")
        rest = rest[1:]
    if symbolic == op["perturbed"]:
        oc.fail("symbolic verdict contradicts the construction")
    levels = [_VERIFY_LEVEL.match(line) for line in rest]
    if None in levels or [int(m.group(1)) for m in levels] != list(range(2, n_star)):
        oc.wrong("bad per-level lines")
        return
    all_pass = True
    for m in levels:
        n, expected, got = int(m.group(1)), Fraction(m.group(2)), Fraction(m.group(3))
        if expected != peval(op["conjecture"], n):
            oc.wrong(f"n={n}: expected is not the conjecture's value")
        oc.claims.append((n, op["tree"], got))
        if (m.group(4) == "pass") != (expected == got):
            oc.fail(f"n={n}: status contradicts the printed values")
        all_pass &= expected == got
    if rc != (0 if symbolic and all_pass else 1):
        oc.fail(f"exit code {rc} contradicts the verdicts")


EXPECTED_RC = {"verify": (0, 1), "oracle": (0, 1)}


def check(ops, results):
    """Statuses, one per result, for the ops that ran (a prefix of ops)."""
    outcomes, seen_eventual = [], set()
    for op, (rc, _ms, out, err, _start) in zip(ops, results):
        oc = Outcome()
        outcomes.append(oc)
        if rc not in EXPECTED_RC.get(op["kind"], (0,)):
            oc.fail(f"exit code {rc}: {err.strip()[-200:]}")
            continue
        try:
            _parse_op(op, rc, out, oc, seen_eventual)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            oc.wrong(f"unreadable output ({exc!r})")
    # Float claims, one Level per n at the highest precision asked of it.
    by_level = {}
    for oc in outcomes:
        for n, tree, value in oc.claims:
            by_level.setdefault(n, []).append((oc, tree, value))
    for n, claims in sorted(by_level.items()):
        # Highest precision first, so memoised pieces are computed once.
        claims.sort(key=lambda c: -claim_prec(n, c[2]))
        level = Level(n, claim_prec(n, claims[0][2]))
        for oc, tree, value in claims:
            if not value_matches(level, tree, value):
                oc.wrong(f"value at n={n} rejected by the float check")
    return outcomes
