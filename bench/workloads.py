"""Seeded op generators for the benchmark workloads.

Formulas are small expression trees, so one definition gives three
things: the DSL text handed to the CLI, the weighted degree d, and the
eventual polynomial R(n) computed here without the library (stable
closed forms of the cosine power sums and of h_r, and e_r from h_r
through E(-s) H(s) = 1).  The checker evaluates the same trees at the
literal cosine points.  Nothing in this module imports cyclosum.

Tree nodes:
  ("p", h)  ("z",)  ("c", Fraction)  ("h", r)  ("e", r)  ("mixed", a, b)
  ("energy",)  ("add", (t, ...))  ("mul", (t, ...))  ("pow", t, k)
  ("prod", q_text, mult)   -- a product factor prod(Q)^mult, top level only
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from fractions import Fraction

# Product factors by DSL text: coefficient of t^k as a list of z-coefficients.
QPOLYS = {
    "1 - t + 2*t^2": [[1], [-1], [2]],
    "1 + z*t - 3*t^3": [[1], [0, 1], [], [-3]],
    "1 + 4*t": [[1], [4]],
    "1 - t": [[1], [-1]],
}

# ---------------------------------------------------------------------------
# Exact polynomials in n: coefficient lists of Fractions, index = power.
# ---------------------------------------------------------------------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def pscale(a, c):
    return _trim([x * c for x in a])


def ppow(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = pmul(out, a)
    return out


def peval(a, n):
    return sum((c * n**i for i, c in enumerate(a)), Fraction(0))


def pstr(a):
    """Polynomial in n in the CLI's text form, e.g. "1/2*n^2 - 3/2*n"."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        body = str(abs(c)) + ("" if k == 0 else "*n" if k == 1 else f"*n^{k}")
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def parse_pstr(text):
    """Inverse of pstr; raises ValueError on anything else."""
    text = text.strip()
    if text == "0":
        return []
    out = {}
    for tok in text.replace(" - ", " + -").split(" + "):
        coeff, _, power = tok.partition("*n")
        if power == "":
            k = 1 if tok.endswith("*n") else 0
        elif power.startswith("^"):
            k = int(power[1:])
        else:
            raise ValueError(f"bad term {tok!r}")
        if k in out:
            raise ValueError(f"repeated power in {text!r}")
        out[k] = Fraction(coeff)
    if any(c == 0 for c in out.values()):
        raise ValueError("zero coefficient printed")
    return _trim([out.get(k, Fraction(0)) for k in range(max(out) + 1)])


# ---------------------------------------------------------------------------
# Stable values in Q[n]
# ---------------------------------------------------------------------------

N = [Fraction(0), Fraction(1)]  # the polynomial n


def stable_p(h):
    """Cosine power sum p_h = sum_k cos^h(2 pi k/n) for n > h."""
    if h % 2:
        return [Fraction(-1)]
    return [Fraction(-1), Fraction(math.comb(h, h // 2), 2**h)]


@functools.lru_cache(maxsize=None)
def stable_h(r):
    """Complete homogeneous h_r of the cosine points for n >= r + 2."""
    if r == 0:
        return (Fraction(1),)
    if r == 1:
        return (Fraction(-1),)
    m = r // 2
    poly = list(N)
    for j in range(m + 1, 2 * m):
        poly = pmul(poly, [Fraction(j), Fraction(1)])
    return tuple(pscale(poly, Fraction((-1) ** r, 4**m * math.factorial(m))))


@functools.lru_cache(maxsize=None)
def stable_e(r):
    """Elementary e_r from sum_i (-1)^i e_i h_(r-i) = 0."""
    if r == 0:
        return (Fraction(1),)
    acc = []
    for i in range(r):
        acc = padd(acc, pscale(pmul(stable_e(i), stable_h(r - i)), (-1) ** i))
    return tuple(pscale(acc, (-1) ** (r + 1)))


def eventual(tree):
    """R(n) of a polynomial-case formula tree."""
    kind = tree[0]
    if kind == "p":
        return stable_p(tree[1])
    if kind == "z":
        return [Fraction(-1), Fraction(1)]
    if kind == "c":
        return _trim([Fraction(tree[1])])
    if kind == "h":
        return list(stable_h(tree[1]))
    if kind == "e":
        return list(stable_e(tree[1]))
    if kind == "mixed":
        a, b = tree[1], tree[2]
        return padd(pmul(stable_p(a), stable_p(b)), pscale(stable_p(a + b), -1))
    if kind == "energy":
        return padd(pmul(eventual(("z",)), stable_p(2)), pscale(ppow(stable_p(1), 2), -1))
    if kind == "add":
        out = []
        for t in tree[1]:
            out = padd(out, eventual(t))
        return out
    if kind == "mul":
        out = [Fraction(1)]
        for t in tree[1]:
            out = pmul(out, eventual(t))
        return out
    if kind == "pow":
        return ppow(eventual(tree[1]), tree[2])
    raise ValueError(f"no eventual polynomial for {kind!r}")


def degree(tree):
    """Weighted degree d in the power sums (z has weight 0)."""
    kind = tree[0]
    if kind in ("p", "h", "e"):
        return tree[1]
    if kind == "mixed":
        return tree[1] + tree[2]
    if kind == "energy":
        return 2
    if kind == "add":
        return max(degree(t) for t in tree[1])
    if kind == "mul":
        return sum(degree(t) for t in tree[1])
    if kind == "pow":
        return degree(tree[1]) * tree[2]
    return 0


def q_degree(tree):
    """Largest t-degree among the product factors."""
    if tree[0] == "prod":
        return len(QPOLYS[tree[1]]) - 1
    if tree[0] == "mul":
        return max(q_degree(t) for t in tree[1])
    return 0


def render(tree):
    kind = tree[0]
    if kind == "p":
        return f"p{tree[1]}"
    if kind == "z":
        return "z"
    if kind == "c":
        return f"({tree[1]})"
    if kind in ("h", "e"):
        return f"{kind}({tree[1]})"
    if kind == "mixed":
        return f"mixed({tree[1]},{tree[2]})"
    if kind == "energy":
        return "energy"
    if kind == "add":
        return "(" + " + ".join(render(t) for t in tree[1]) + ")"
    if kind == "mul":
        return "*".join(render(t) for t in tree[1])
    if kind == "pow":
        return f"{render(tree[1])}^{tree[2]}"
    if kind == "prod":
        return f"prod({tree[1]})" + ("" if tree[2] == 1 else f"^{tree[2]}")
    raise ValueError(kind)


def _formula(tree):
    return {"text": render(tree), "tree": tree, "d": degree(tree)}


# ---------------------------------------------------------------------------
# Workloads.  Each returns a list of ops {"argv": [...], "size": {...},
# plus what the checker needs}.  Parameters are drawn from shuffled decks
# so that any stretch of the sequence has nearly the same mix of sizes,
# which keeps the cost of a run steady from seed to seed.
# ---------------------------------------------------------------------------


class _Deck:
    def __init__(self, rng, items):
        self.rng, self.items, self.pool = rng, list(items), []

    def draw(self):
        if not self.pool:
            self.pool = list(self.items)
            self.rng.shuffle(self.pool)
        return self.pool.pop()


class _Levels:
    """Levels in [lo, hi]: `reuse` of every ten draws repeat a level
    already drawn, the others are unseen levels from stratified bins
    (linear or geometric)."""

    def __init__(self, rng, lo, hi, bins, reuse, geometric=False):
        self.rng = rng
        self.reuse = _Deck(rng, [True] * reuse + [False] * (10 - reuse))
        if geometric:
            edges = [lo * (hi / lo) ** (i / bins) for i in range(bins + 1)]
        else:
            edges = [lo + (hi - lo) * i / bins for i in range(bins + 1)]
        self.bins = _Deck(rng, [(round(edges[i]), round(edges[i + 1])) for i in range(bins)])
        self.seen, self.seen_set = [], set()

    def draw(self):
        """(level, whether it was drawn before); once every level in range
        has been drawn, all draws are repeats."""
        if self.reuse.draw() and self.seen:
            return self.rng.choice(self.seen), True
        for _ in range(64):
            a, b = self.bins.draw()
            n = self.rng.randint(a, b)
            if n not in self.seen_set:
                self.seen.append(n)
                self.seen_set.add(n)
                return n, False
        return n, True


def _levels(seed, count):
    rng = random.Random(seed)
    levels = _Levels(rng, 64, 768, bins=8, reuse=5)
    kinds = _Deck(rng, ["eval"] * 3 + ["mq"] * 3 + ["hseries"] * 2 + ["power-sum"] * 2)
    eval_formulas = _Deck(rng, [
        ("mul", (("energy",), ("prod", "1 - t + 2*t^2", 1))),
        ("mul", (("prod", "1 + z*t - 3*t^3", 1),)),
        ("mul", (("add", (("pow", ("p", 1), 2), ("mul", (("z",), ("p", 2))))), ("prod", "1 - t", 1))),
        ("mul", (("p", 2), ("prod", "1 + 4*t", 2))),
    ])
    mq_polys = _Deck(rng, list(QPOLYS))
    ops = []
    for _ in range(count):
        kind = kinds.draw()
        n, reused = levels.draw()
        size = {"n": n, "reused": reused}
        if kind == "eval":
            f = _formula(eval_formulas.draw())
            op = {"argv": ["eval", "--n", str(n), "--formula", f["text"]], "tree": f["tree"]}
            size.update(d=f["d"], q=q_degree(f["tree"]))
        elif kind == "mq":
            q = mq_polys.draw()
            op = {"argv": ["mq", "--n", str(n), "--formula", q], "tree": ("prod", q, 1)}
            size.update(q=len(QPOLYS[q]) - 1)
        elif kind == "hseries":
            order = min(n, 256)
            op = {"argv": ["hseries", "--n", str(n), "--order", str(order)]}
            size.update(r=order)
        else:
            h = rng.randint(1, 32)
            op = {"argv": ["power-sum", "--n", str(n), "--h", str(h)], "tree": ("p", h)}
            size.update(r=h)
        op.update(kind=kind, size=size)
        ops.append(op)
    return ops


def _explicit(rng, d):
    """A p-polynomial of weighted degree d with distinct monomials.  Half
    of them use only z and p1, whose values are exact at every level, so
    that a true conjecture also passes below the threshold."""
    only_p1 = rng.random() < 0.5
    monos = set()
    terms = []
    target = rng.randint(1, 3)
    while len(terms) < target:
        w = d if not terms else rng.randint(1, d)
        parts = []
        if only_p1:
            parts.append(("pow", ("p", 1), w))
        else:
            rest = w
            while rest:
                h = rng.randint(1, rest)
                parts.append(("p", h))
                rest -= h
        zk = rng.randint(0, 2)
        key = (zk, tuple(sorted(repr(p) for p in parts)))
        if key in monos:
            continue
        monos.add(key)
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.choice([1, 1, 2, 3]))
        factors = [("c", c)] if c != 1 else []
        factors += [("z",)] * zk + parts
        terms.append(("mul", tuple(factors)))
    return ("add", tuple(terms)) if len(terms) > 1 else terms[0]


def _identity_formula(rng, family, d):
    if family == "h":
        return ("h", d)
    if family == "e":
        return ("e", d)
    if family == "mixed":
        a = rng.randint(1, d - 1)
        return ("mixed", a, d - a)
    if family == "p1p2z":
        return ("pow", ("add", (("p", 1), ("p", 2), ("z",))), max(2, d // 2))
    if family == "energy":
        return ("pow", ("energy",), max(2, d // 2))
    return _explicit(rng, d)


IDENTITY_FAMILIES = ["h", "e", "mixed", "p1p2z", "energy", "explicit"]
IDENTITY_DEGREES = range(4, 19)
# New formulas come in cycles of one per (family, degree, kind).  Op cost
# grows about exponentially with d, so an uneven mix would move
# op_p90_ms from seed to seed.
IDENTITY_CYCLE = len(IDENTITY_FAMILIES) * len(IDENTITY_DEGREES) * 2


def _identities(seed, count):
    """Cycles of IDENTITY_CYCLE new formulas and half as many repeats.
    Of each (family, degree)'s two new formulas in a cycle, one comes back
    once, 3 to 40 ops later or at the end of the cycle, as the other kind
    of op: a verify op for even d, an eventual op for odd d.  So 1 op in 3
    is a repeat, and every cycle has the same mix of families, degrees
    and kinds."""
    rng = random.Random(seed)
    slots = _Deck(rng, [(family, d, kind) for family in IDENTITY_FAMILIES
                        for d in IDENTITY_DEGREES for kind in ("eventual", "verify")])
    perturb = _Deck(rng, [True, False])
    due = []  # (op index, formula number, kind) of scheduled repeats
    formulas = []
    ops = []
    for i in range(count):
        # A cycle's pending repeats all run before the next cycle starts.
        cycle_done = formulas and len(formulas) % IDENTITY_CYCLE == 0
        repeat = bool(due) and (due[0][0] <= i or cycle_done)
        if repeat:
            _, number, kind = heapq.heappop(due)
            f = formulas[number]
        else:
            family, d, kind = slots.draw()
            f = _formula(_identity_formula(rng, family, d))
            f["R"] = eventual(f["tree"])
            formulas.append(f)
            comes_back_as = ("verify", "eventual")[d % 2]
            if kind != comes_back_as:
                heapq.heappush(due, (i + rng.randint(3, 40), len(formulas) - 1, comes_back_as))
        size = {"d": f["d"], "repeat": repeat}
        if kind == "eventual":
            op = {"kind": "eventual", "argv": ["eventual", "--formula", f["text"]]}
        else:
            conj = f["R"]
            perturbed = perturb.draw()
            if perturbed:
                c = Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), rng.choice([1, 2, 3]))
                k = rng.randint(0, len(conj))
                conj = padd(conj, [Fraction(0)] * k + [c])
            op = {"kind": "verify", "perturbed": perturbed, "conjecture": conj,
                  "argv": ["verify", "--formula", f["text"], f"--conjecture={pstr(conj)}",
                           "--below-threshold"]}
        op.update(tree=f["tree"], d=f["d"], R=f["R"], size=size)
        ops.append(op)
    return ops


def _crosscheck(seed, count):
    rng = random.Random(seed)
    levels = _Levels(rng, 16, 320, bins=8, reuse=3, geometric=True)
    formulas = _Deck(rng, [
        ("mul", (("prod", "1 + 4*t", 1),)),
        ("mul", (("prod", "1 - t + 2*t^2", 1),)),
        ("mul", (("energy",), ("prod", "1 - t + 2*t^2", 1))),
        ("mul", (("prod", "1 + z*t - 3*t^3", 1),)),
        ("mul", (("p", 2), ("prod", "1 - t", 2))),
        ("add", (("h", 6), ("mul", (("z",), ("p", 3))))),
        ("e", 5),
        ("mixed", 2, 3),
        ("pow", ("energy",), 2),
        ("add", (("mul", (("z",), ("p", 1), ("p", 17))), ("mul", (("c", Fraction(-1)), ("pow", ("p", 9), 2))))),
        ("add", (("mul", (("pow", ("p", 1), 2), ("p", 20))), ("p", 11))),
    ])
    ops = []
    for _ in range(count):
        f = _formula(formulas.draw())
        n, reused = levels.draw()
        ops.append({
            "kind": "oracle", "tree": f["tree"],
            "argv": ["oracle", "--n", str(n), "--formula", f["text"]],
            "size": {"n": n, "d": f["d"], "q": q_degree(f["tree"]), "reused": reused},
        })
    return ops


WORKLOADS = {"levels": _levels, "identities": _identities, "crosscheck": _crosscheck}


def generate(workload, seed, count):
    """The first `count` ops of the workload for this seed; a longer
    sequence for the same seed starts with the same ops."""
    return WORKLOADS[workload](seed, count)
