"""Timed process of the benchmark: one closed-loop client.

Reads {"ops": [argv, ...], "trace": bool} as JSON on stdin, runs every
op in-process through cyclosum.cli.main with stdout and stderr
captured, and writes the results and the process's peak RSS as one
JSON object on stdout.  Run it with cyclosum importable (PYTHONPATH=src).

Between ops, every KERNEL_EVERY_S, it also times a fixed reference
kernel that uses no cyclosum code, so the parent can tell how fast the
machine was at each moment of the run.  The machine's speed can change
within a second, so the kernel is short and timed often.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter

KERNEL_EVERY_S = 0.15


def kernel():
    """A few milliseconds of exact Fraction arithmetic of the kind the
    library does: synthetic division of a polynomial with rational
    coefficients by a cubic."""
    r = [Fraction(3 ** (i % 40) + i, 2 ** (i % 50) + 1) for i in range(100)]
    b = [Fraction(1), Fraction(-2, 3), Fraction(5, 7)]
    for k in range(len(r) - 3, -1, -1):
        f = r[k + 2] / b[2]
        for j in range(3):
            r[k + j] -= f * b[j]
    return r


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_kernel(start):
    t0 = perf_counter()
    kernel()
    return [t0 - start, (perf_counter() - t0) * 1000.0]


def main():
    job = json.load(sys.stdin)
    from cyclosum import cli

    recorder = None
    if job["trace"]:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    results, op_spans, kernels = [], [], []
    start = perf_counter()
    next_kernel = start
    for argv in job["ops"]:
        if perf_counter() >= next_kernel:
            kernels.append(timed_kernel(start))
            next_kernel = perf_counter() + KERNEL_EVERY_S
        out, err = io.StringIO(), io.StringIO()
        first = len(recorder.spans) if recorder else 0
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a broken run
            rc = None
            err.write(traceback.format_exc())
        t1 = perf_counter()
        results.append([rc, (t1 - t0) * 1000.0, out.getvalue(), err.getvalue()[-2000:],
                        t0 - start])
        if recorder:
            op_spans.append([first, len(recorder.spans)])
    wall = perf_counter() - start
    kernels.append(timed_kernel(start))
    payload = {
        "results": results,
        "kernels": kernels,
        "wall_s": wall,
        "peak_rss_mb": max_rss_mb(),
    }
    if recorder:
        payload.update(spans=recorder.spans, op_spans=op_spans,
                       counters=recorder.counters, missing=recorder.missing)
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
