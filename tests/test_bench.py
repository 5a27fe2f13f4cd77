"""Smoke test of the benchmark harness: one short seeded run must finish
and report a correct result.  No timing is asserted."""

import json
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
