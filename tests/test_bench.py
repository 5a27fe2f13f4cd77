"""Tests of the benchmark harness: one short seeded run must finish and
report a correct result, and every traced layer but the eight pinned as
gone must name a function that cyclosum has.  No timing is asserted."""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_crosscheck_smoke_run():
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crosscheck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    # the oracle's verdict accepts every correct value
    assert summary["metrics"]["checked_ok_frac"]["value"] == 1.0


# The traced run's order (bench/worker.py): import the CLI, then wrap the
# layers that are imported by then, then run ops.
SPANS_SCRIPT = """
import json
from cyclosum import cli
import spans
recorder = spans.Recorder()
recorder.install()
rc = cli.main(["oracle", "--formula", "p1*prod(1 + 4*t)", "--n", "7"])
print(json.dumps({"rc": rc, "names": sorted({span[2] for span in recorder.spans})}))
"""


def test_traced_layers_are_imported_with_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "bench"]))
    res = subprocess.run([sys.executable, "-c", SPANS_SCRIPT], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    assert {"cli.main", "oracle.cross_check", "oracle.float_eval", "oracle.points",
            "invariants.mq"} <= set(result["names"])


# Layers of bench/spans.py whose functions have left cyclosum; a span
# that names them records nothing.
GONE = {
    ("symfunc", "e_to_powersum"), ("symfunc", "h_to_powersum"),
    ("rigidity", "stable_eval"), ("rigidity", "general_eval"),
    ("invariants", "chebyshev_T"), ("exactcore", "poly_divrem"),
    ("exactcore", "series_inv"), ("exactcore", "series_mul"),
}


def test_traced_layer_names_resolve():
    # A rename in cyclosum fails here instead of silently zeroing a layer.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = set()
    for _name, mod_name, attr in spans.LAYERS:
        owner = importlib.import_module(f"cyclosum.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add((mod_name, attr))
    assert missing == GONE
