"""Span recorder for the traced benchmark run.

It times cyclosum's public functions from outside: each one is replaced
by a wrapper in every cyclosum module namespace that binds it (modules
bind each other's functions through `from .x import f`), and methods are
replaced on their class.  Spans stay in memory as
[id, parent id, name, start ns, end ns] and are handed back at the end.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# (span name, defining module, attribute); several attributes may share a name.
LAYERS = [
    ("cli.main", "cli", "main"),
    ("dsl.parse", "dsl", "parse_formula"),
    ("dsl.parse", "dsl", "parse_conjecture"),
    ("dsl.parse", "dsl", "parse_qpoly"),
    ("symfunc.newton", "symfunc", "e_to_powersum"),
    ("symfunc.newton", "symfunc", "h_to_powersum"),
    ("symfunc.substitute", "symfunc", "PowerSumExpr.substitute"),
    ("catalan.extract", "catalan", "extract_coefficient_family"),
    ("catalan.hseries", "catalan", "h_global_series"),
    ("rigidity.eval", "rigidity", "stable_eval"),
    ("rigidity.eval", "rigidity", "general_eval"),
    ("rigidity.eventual", "rigidity", "eventual_polynomial"),
    ("rigidity.verify", "rigidity", "verify_identity"),
    ("invariants.powersum", "invariants", "punctured_power_sum"),
    ("invariants.chebyshev", "invariants", "chebyshev_T"),
    ("invariants.minpoly", "invariants", "punctured_min_poly"),
    ("invariants.mq", "invariants", "multiplicative_invariant"),
    ("exactcore.divrem", "exactcore", "poly_divrem"),
    ("exactcore.resultant", "exactcore", "resultant"),
    ("exactcore.series", "exactcore", "series_inv"),
    ("exactcore.series", "exactcore", "series_mul"),
    ("oracle.cross_check", "oracle", "cross_check"),
    ("oracle.float_eval", "oracle", "float_eval"),
    ("oracle.points", "oracle", "cosine_points"),
]

LAYER_NAMES = list(dict.fromkeys(name for name, _mod, _attr in LAYERS))


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.levels = set()  # distinct n passed to punctured_min_poly
        self.counters = {"invariants.minpoly.new_levels": 0, "invariants.mq.result_bits": 0}
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, perf_counter_ns(), 0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter_ns()
                stack.pop()
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name, args, result):
        if name == "invariants.minpoly" and args[0] not in self.levels:
            self.levels.add(args[0])
            self.counters["invariants.minpoly.new_levels"] += 1
        elif name == "invariants.mq":
            bits = result.numerator.bit_length() + result.denominator.bit_length()
            self.counters["invariants.mq.result_bits"] += bits

    def install(self):
        """Wrap every layer function of the already imported cyclosum.
        Layers it no longer has are listed in self.missing."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cyclosum" or key.startswith("cyclosum."))]
        for name, mod_name, attr in LAYERS:
            owner_name, _, method = attr.partition(".")
            owner = getattr(sys.modules.get(f"cyclosum.{mod_name}"), owner_name, None)
            fn = getattr(owner, method, None) if method else owner
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, fn)
            if method:
                setattr(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

def self_times(spans):
    """Per span name: (calls, self time in ns), where self time is the
    span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for sid, parent, _name, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for sid, _parent, name, t0, t1 in spans:
        calls, ns = out.get(name, (0, 0))
        out[name] = (calls + 1, ns + (t1 - t0) - child[sid])
    return out
