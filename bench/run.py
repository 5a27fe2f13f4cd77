"""cyclosum benchmark: seeded closed-loop workloads over the CLI.

Run from the repository root:

    python3 bench/run.py --workload levels --seed 1 --seconds 30 --trace 0

--trace 0 times the workload and prints the end-to-end metrics, with
times scaled to a reference speed; --trace 1 runs a fixed prefix of it
untraced, traced and untraced again, and prints the per-layer metrics.
Either way every op is checked by bench/check.py and the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import mpmath

from check import check
from spans import LAYER_NAMES, self_times
from workloads import IDENTITY_CYCLE, WORKLOADS, generate
from worker import timed_kernel

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_STARTS = 11
# Reference speed for reported op times, as the time of worker.kernel.
REF_KERNEL_MS = 3.0
# An op is scaled by the kernel runs from KERNEL_PAD_S before it starts
# to KERNEL_PAD_S after it ends, and at least KERNEL_MIN of them.
KERNEL_PAD_S = 0.3
KERNEL_MIN = 3
# Ops in one episode of the timed run: a fresh process that runs a fixed
# list of ops, a few seconds' work on the seed.  The run starts episodes
# until --seconds have passed, at most MAX_EPISODES of them.
EPISODE_OPS = {"levels": 80, "identities": IDENTITY_CYCLE * 3 // 2, "crosscheck": 300}
MAX_EPISODES = 40
# Ops in the traced run, fixed per workload so that per-layer calls repeat.
TRACE_OPS = {"levels": 160, "identities": IDENTITY_CYCLE * 3 // 2, "crosscheck": 600}


def child_env():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def setup_seconds(env):
    """Median time of fresh interpreters importing cyclosum.cli, after
    one start that may write bytecode caches: scaled to reference speed
    by reference-kernel runs just before and after each start, and raw."""
    def kernel_ms():
        return statistics.median(timed_kernel(0)[1] for _ in range(3))

    subprocess.run([sys.executable, "-c", "import cyclosum.cli"], env=env, check=True)
    kernels = [kernel_ms()]
    raw, scaled = [], []
    for _ in range(SETUP_STARTS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import cyclosum.cli"], env=env, check=True)
        raw.append(perf_counter() - t0)
        kernels.append(kernel_ms())
        scaled.append(raw[-1] * REF_KERNEL_MS * 2 / (kernels[-2] + kernels[-1]))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(env, argvs, trace, timeout):
    job = json.dumps({"ops": argvs, "trace": trace})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=job,
                          capture_output=True, text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        sys.exit(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout)


def scaled_ms(run):
    """Each op's latency at reference speed: multiplied by REF_KERNEL_MS
    over the median time of the reference-kernel runs around the op."""
    kernels = run["kernels"]
    starts = [k[0] for k in kernels]
    out = []
    for r in run["results"]:
        lo = bisect.bisect_left(starts, r[4] - KERNEL_PAD_S)
        hi = bisect.bisect_right(starts, r[4] + r[1] / 1000.0 + KERNEL_PAD_S)
        while hi - lo < min(KERNEL_MIN, len(kernels)):
            lo, hi = max(0, lo - 1), min(len(kernels), hi + 1)
        out.append(r[1] * REF_KERNEL_MS / statistics.median(k[1] for k in kernels[lo:hi]))
    return out


def tail_percentile(count):
    """90, or the highest percentile with at least ten samples above it."""
    return max(1, min(90, (100 * (count - 10)) // count)) if count > 10 else None


FAILED = ("failed", "wrong")


def report_problems(ops, outcomes):
    bad = [(i, oc) for i, oc in enumerate(outcomes) if oc.status in FAILED]
    for i, oc in bad[:5]:
        print(f"op {i} {oc.status}: {oc.why}: {' '.join(ops[i]['argv'])[:160]}", file=sys.stderr)
    if len(bad) > 5:
        print(f"... {len(bad) - 5} more", file=sys.stderr)


def episode_seed(seed, episode):
    return seed * 1000 + episode


def timed(args, env, header):
    setup, setup_raw = setup_seconds(env)
    size = EPISODE_OPS[args.workload]
    ops, runs = [], []
    start = perf_counter()
    while perf_counter() - start < args.seconds and len(runs) < MAX_EPISODES:
        episode = generate(args.workload, episode_seed(args.seed, len(runs)), size)
        runs.append(run_worker(env, [op["argv"] for op in episode], False, timeout=90))
        ops += episode
    timed_s = perf_counter() - start
    results = [r for run in runs for r in run["results"]]
    outcomes = check(ops, results)
    report_problems(ops, outcomes)
    failed = sum(oc.status in FAILED for oc in outcomes)
    false_fails = sum(oc.status == "false_fail" for oc in outcomes)
    count = len(results)
    pct = tail_percentile(count)

    def latency(episodes):
        times = [t for ep in episodes for t in ep]
        tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1] if pct else max(times)
        return {"ops_per_s": statistics.median(size * 1000.0 / sum(ep) for ep in episodes),
                "op_p50_ms": statistics.median(times), "op_p90_ms": tail}

    scaled = latency([scaled_ms(run) for run in runs])
    unscaled = dict(latency([[r[1] for r in run["results"]] for run in runs]), setup_s=setup_raw)
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_p90_ms": (scaled["op_p90_ms"], "ms"),
        "peak_rss_mb": (statistics.median(run["peak_rss_mb"] for run in runs), "MB"),
        "setup_s": (setup, "s"),
        "checked_ok_frac": (sum(oc.status == "ok" for oc in outcomes) / count, "fraction"),
    }
    print(f"{header} ops={count} episodes={len(runs)} wall_s={timed_s:.3f}")
    print(f"  {'metric':15s} {'value':>12s} {'unscaled':>12s}  unit")
    for name, (value, unit) in metrics.items():
        plain = f"{unscaled[name]:12.4f}" if name in unscaled else " " * 12
        print(f"  {name:15s} {value:12.4f} {plain}  {unit}")
    print(f"  {'failed_frac':15s} {(failed + false_fails) / count:12.4f} {'':12s}  fraction "
          f"({failed} failed and {false_fails} false oracle FAILs of {count} ops)")
    kernel_ms = statistics.median(k[1] for run in runs for k in run["kernels"])
    print(f"  times scaled to a {REF_KERNEL_MS} ms reference kernel (median here {kernel_ms:.3f} ms); "
          f"ops_per_s is the median over {len(runs)} episodes of {size} ops; "
          f"op_p90_ms is p{pct or 100} of {count} ops; setup_s is the median of "
          f"{SETUP_STARTS} interpreter starts")
    return outcomes, count, failed, metrics


def traced(args, env, header):
    ops = generate(args.workload, args.seed, TRACE_OPS[args.workload])
    argvs = [op["argv"] for op in ops]
    # Untraced runs before and after the traced one, all timed at
    # reference speed, so that drift in machine speed cancels.
    plain = run_worker(env, argvs, False, timeout=50)
    run = run_worker(env, argvs, True, timeout=50)
    plain2 = run_worker(env, argvs, False, timeout=50)
    traced_ms = sum(scaled_ms(run))
    plain_ms = (sum(scaled_ms(plain)) + sum(scaled_ms(plain2))) / 2
    results = run["results"]
    outcomes = check(ops, results)
    for oc, a, b in zip(outcomes, plain["results"], results):
        if a[:3:2] != b[:3:2]:  # exit code and stdout
            oc.wrong("traced and untraced runs printed different outputs")
    report_problems(ops, outcomes)
    spans = run["spans"]
    per_name = self_times(spans)
    op_ms = sum(r[1] for r in results)
    metrics = {}
    for name in LAYER_NAMES:
        calls, ns = per_name.get(name, (0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (ns / 1e6, "ms")
    metrics["invariants.minpoly.new_levels"] = (run["counters"]["invariants.minpoly.new_levels"], "count")
    metrics["invariants.mq.result_bits"] = (run["counters"]["invariants.mq.result_bits"], "bits")
    metrics["trace.op_ms"] = (op_ms, "ms")
    metrics["trace.overhead_frac"] = (traced_ms / plain_ms - 1, "fraction")
    exact_ms = sum(metrics[f"{n}.self_ms"][0] for n in LAYER_NAMES
                   if n.startswith(("invariants.", "exactcore.")))
    oracle_ms = sum(metrics[f"{n}.self_ms"][0] for n in LAYER_NAMES if n.startswith("oracle."))
    print(f"{header} traced_ops={len(results)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    print(f"  invariants.* + exactcore.* self time: {exact_ms / op_ms:.3f} of op time; "
          f"oracle.*: {oracle_ms / op_ms:.3f}")
    if run["missing"]:
        print(f"  not found, reported as 0: {', '.join(run['missing'])}")
    os.makedirs(".bench_out", exist_ok=True)
    path = os.path.join(".bench_out", f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "header": header,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "ops": [{"argv": op["argv"], "size": op["size"], "ms": r[1], "status": oc.status,
                     "spans": spans[a:b]}
                    for op, r, oc, (a, b) in zip(ops, results, outcomes, run["op_spans"])],
        }, fh)
    print(f"  spans written to {path}")
    failed = sum(oc.status in FAILED for oc in outcomes)
    return outcomes, len(results), failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "cyclosum", "cli.py")):
        sys.exit("error: run from the root of a cyclosum checkout (src/cyclosum/cli.py not found)")
    env = child_env()
    header = (f"workload={args.workload} seed={args.seed} trace={args.trace} "
              f"python={platform.python_version()} mpmath={mpmath.__version__} PYTHONHASHSEED=0")
    outcomes, attempted, failed, metrics = (traced if args.trace else timed)(args, env, header)
    print(json.dumps({
        "correct": all(oc.status != "wrong" for oc in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
