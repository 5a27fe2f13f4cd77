import contextlib
import io
import json
import resource
import subprocess
import sys

import pytest

from cyclosum import cli
from cyclosum.rigidity import AdmissibleFormula

from conftest import src_env


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cyclosum", *argv],
        capture_output=True,
        text=True,
        env=src_env(),
        **kwargs,
    )


class TestScalarCommands:
    def test_power_sum(self):
        res = run_cli("power-sum", "--n", "10", "--h", "4")
        assert res.returncode == 0
        assert res.stdout.strip() == "44"

    def test_cos_sum_rational_output(self):
        res = run_cli("cos-sum", "--n", "3", "--h", "2")
        assert res.returncode == 0
        assert res.stdout.strip() == "3/2"

    def test_sin_sum(self):
        res = run_cli("sin-sum", "--n", "4", "--h", "2")
        assert res.returncode == 0
        assert res.stdout.strip() == "2"

    def test_minpoly(self):
        res = run_cli("minpoly", "--n", "3")
        assert res.returncode == 0
        assert res.stdout.strip() == "1*t^2 + 1*t + 1/4"

    def test_mq(self):
        res = run_cli("mq", "--formula", "1 - t", "--n", "5")
        assert res.returncode == 0
        assert res.stdout.strip() == "25/16"

    def test_catalan_a(self):
        res = run_cli("catalan-a", "--n", "9", "--r", "2")
        assert res.returncode == 0
        assert res.stdout.strip() == "27/8"


class TestEvalAndEventual:
    def test_eval_energy(self):
        res = run_cli("eval", "--formula", "energy", "--n", "5")
        assert res.returncode == 0
        assert "value: 5" in res.stdout
        assert "mode: stable" in res.stdout

    def test_eval_below_threshold_is_usage_error(self):
        res = run_cli("eval", "--formula", "energy", "--n", "3")
        assert res.returncode == 2
        assert "below stable threshold" in res.stderr
        assert "oracle_eval" not in res.stderr
        assert "cyclosum oracle" in res.stderr

    def test_eventual(self):
        res = run_cli("eventual", "--formula", "energy")
        assert res.returncode == 0
        assert res.stdout.strip() == "1/2*n^2 - 3/2*n"

    def test_eventual_product_case_refused(self):
        res = run_cli("eventual", "--formula", "p1 * prod(1 - t)")
        assert res.returncode == 2
        assert "polynomial case" in res.stderr

    def test_leading_zero_index_matches_energy(self):
        res = run_cli("eventual", "--formula", "z*p02 - p1*p01")
        assert res.returncode == 0
        assert res.stdout == run_cli("eventual", "--formula", "energy").stdout

    def test_extract(self):
        res = run_cli("extract", "--formula", "1 + t", "--r", "2")
        assert res.returncode == 0
        assert res.stdout.strip() == "1/2*p1^2 - 1/2*p2"

    def test_file_input(self, tmp_path):
        path = tmp_path / "family.txt"
        path.write_text("# pair energy\nenergy\n", encoding="utf-8")
        res = run_cli("eval", "--file", str(path), "--n", "10")
        assert res.returncode == 0
        assert "value: 35" in res.stdout


class TestVerify:
    def test_pass(self):
        res = run_cli(
            "verify", "--formula", "energy", "--conjecture", "(n^2 - 3*n)/2"
        )
        assert res.returncode == 0
        assert "symbolic (all n >= 4): PASS" in res.stdout

    def test_below_threshold_mismatch(self):
        res = run_cli(
            "verify",
            "--formula",
            "energy",
            "--conjecture",
            "(n^2 - 3*n)/2",
            "--below-threshold",
        )
        assert res.returncode == 1
        assert "symbolic (all n >= 4): PASS" in res.stdout
        assert "n=2: expected -1, got 0 -> MISMATCH" in res.stdout
        assert "n=3: expected 0, got 0 -> pass" in res.stdout

    def test_symbolic_fail_shows_difference(self):
        res = run_cli("verify", "--formula", "energy", "--conjecture", "n^2")
        assert res.returncode == 1
        assert "FAIL" in res.stdout
        assert "difference:" in res.stdout

    def test_json_report(self):
        res = run_cli(
            "verify",
            "--formula",
            "energy",
            "--conjecture",
            "(n^2 - 3*n)/2",
            "--below-threshold",
            "--format",
            "json",
        )
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        assert payload["symbolic_match"] is True
        assert payload["pass"] is False
        assert payload["per_level"][0]["n"] == 2


class TestFormulaIsRenderedOnlyWhenPrinted:
    """Text output of eventual and verify prints no formula, so it renders
    none; json and tsv print every key, the formula among them."""

    CALLS = [["eventual", "--formula", "h(6)"],
             ["verify", "--formula", "energy", "--conjecture", "(n^2 - 3*n)/2"]]

    @staticmethod
    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        return rc, out.getvalue()

    @pytest.mark.parametrize("argv", CALLS)
    def test_text_renders_no_formula(self, argv, monkeypatch):
        def refuse(self):
            raise RuntimeError("formula rendered for text output")
        monkeypatch.setattr(AdmissibleFormula, "__str__", refuse)
        rc, out = self.run(argv)
        assert rc == 0
        assert out.strip()

    @pytest.mark.parametrize("fmt,line", [("json", '  "formula": "RENDERED",'),
                                          ("tsv", "formula\tRENDERED")])
    @pytest.mark.parametrize("argv", CALLS)
    def test_json_and_tsv_print_the_formula(self, argv, fmt, line, monkeypatch):
        monkeypatch.setattr(AdmissibleFormula, "__str__", lambda self: "RENDERED")
        rc, out = self.run([*argv, "--format", fmt])
        assert rc == 0
        assert line in out.splitlines()


class TestSeriesAndOracle:
    def test_hseries_json(self):
        res = run_cli("hseries", "--n", "9", "--order", "7", "--format", "json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["coefficients"][0] == "1"
        assert payload["coefficients"][7] == "-273/64"

    def test_hseries_tsv(self):
        res = run_cli("hseries", "--n", "4", "--order", "3", "--format", "tsv")
        assert res.returncode == 0
        lines = dict(line.split("\t") for line in res.stdout.strip().splitlines())
        assert lines["n"] == "4"
        assert json.loads(lines["coefficients"]) == ["1", "-1", "1", "-1"]

    def test_tsv_prints_json_literals(self):
        res = run_cli("verify", "--formula", "energy", "--conjecture", "(n^2-3*n)/2",
                      "--format", "tsv")
        assert res.returncode == 0
        lines = dict(line.split("\t") for line in res.stdout.strip().splitlines())
        assert (lines["symbolic_match"], lines["difference"], lines["pass"]) == (
            "true", "null", "true")
        # text keeps Python's spelling
        res = run_cli("oracle", "--formula", "h(6)", "--n", "9")
        assert "pass: True" in res.stdout.splitlines()

    def test_oracle(self):
        res = run_cli("oracle", "--formula", "h(6)", "--n", "9", "--format", "json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["exact"] == "273/64"
        assert payload["pass"] is True

    def test_oracle_custom_precision(self):
        res = run_cli(
            "oracle",
            "--formula",
            "energy",
            "--n",
            "12",
            "--precision",
            "128",
            "--tolerance",
            "1/1000000000000",
        )
        assert res.returncode == 0
        assert "tolerance: 1.0e-12" in res.stdout.splitlines()

    def test_oracle_tolerance_in_use_is_printed(self):
        # no --tolerance: the float route's own bound, far below 1e-20 here
        res = run_cli("oracle", "--formula", "h(6)", "--n", "9", "--format", "json")
        tolerance = float(json.loads(res.stdout)["tolerance"])
        assert 0 < tolerance < 1e-60
        # an explicit tolerance is absolute and printed as given
        res = run_cli("oracle", "--formula", "prod(1 + 4*t)", "--n", "300",
                      "--tolerance", "1/100000000000000000000")
        assert res.returncode == 1
        assert "tolerance: 1.0e-20" in res.stdout.splitlines()
        assert "pass: False" in res.stdout.splitlines()


class TestBadInputs:
    def test_malformed_tolerance_is_exit_2(self):
        for text in ("1/0", "abc"):
            res = run_cli("oracle", "--formula", "p1", "--n", "7", "--tolerance", text)
            assert res.returncode == 2
            assert res.stdout == ""
            assert res.stderr == (
                f"error: --tolerance expects a rational such as 1/1000000, got '{text}'\n"
            )

    def test_negative_tolerance_is_exit_2(self):
        res = run_cli("oracle", "--formula", "p1", "--n", "7", "--tolerance", "-1")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: tolerance must be nonnegative, got -1\n"

    def test_zero_tolerance_demands_an_exact_match(self):
        res = run_cli("oracle", "--formula", "p1", "--n", "7", "--tolerance", "0")
        assert res.returncode == 0
        assert "tolerance: 0.0" in res.stdout.splitlines()
        assert "residual: 0.0" in res.stdout.splitlines()

    def test_tolerance_exponent_too_long_for_int_is_refused(self):
        res = run_cli("oracle", "--formula", "p1", "--n", "7",
                      "--tolerance", "1e-" + "9" * 10_000)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: --tolerance exponent exceeds 100000 in magnitude\n"

    def test_huge_level_is_refused_at_once_under_a_memory_cap(self):
        # 2^62: M_(1+t) is 0 there, but the level is refused before any
        # work, in well under a second and within 3 GB of address space
        code = ("import sys, time\n"
                "from cyclosum import cli\n"
                "start = time.perf_counter()\n"
                "rc = cli.main(['mq', '--formula', '1 + t', '--n', '4611686018427387904'])\n"
                "print(time.perf_counter() - start)\n"
                "sys.exit(rc)\n")

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=src_env(), preexec_fn=cap, timeout=60)
        assert res.returncode == 2
        assert res.stderr == "error: out of memory\n"
        assert float(res.stdout) < 1.0

    def test_verify_refuses_product_formula(self):
        res = run_cli("verify", "--formula", "prod(1-t)", "--conjecture", "n")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "polynomial case" in res.stderr
        assert "cyclosum oracle" in res.stderr
        assert "sweep" not in res.stderr

    def test_deep_nesting_is_exit_2(self):
        for depth in (260, 10_000):
            text = "(" * depth + "p1" + ")" * depth
            res = run_cli("eventual", "--formula", text)
            assert res.returncode == 2
            assert res.stderr.startswith("error: groups nest deeper")
            assert "Traceback" not in res.stderr


class TestErrors:
    def test_unknown_command(self):
        res = run_cli("frobnicate")
        assert res.returncode == 2

    def test_missing_required_flag(self):
        res = run_cli("power-sum", "--n", "5")
        assert res.returncode == 2

    def test_parse_error_is_exit_2(self):
        res = run_cli("eval", "--formula", "p1 +", "--n", "5")
        assert res.returncode == 2
        assert "error:" in res.stderr
        assert "column" in res.stderr

    def test_mixed_zero_argument_is_exit_2(self):
        res = run_cli("eventual", "--formula", "mixed(0, 2)")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "error:" in res.stderr

    def test_missing_formula_source(self):
        res = run_cli("eval", "--n", "5")
        assert res.returncode == 2
        assert "missing --formula or --file" in res.stderr
