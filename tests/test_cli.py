"""End-to-end CLI contract: byte-stable reports, schemas, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kedge.cli import MAX_M, main
from kedge.ratmath import format_rat, rat
from kedge.tvariety import SupportFunction, legendre_dual
from kedge.verdict import InconsistencyError
from kedge.verify import SUITES, SuiteResult
from kedge.volumes import IrrationalThreshold
from kedge.zariski import DecompositionError

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

DELTA_ARGS = ["delta", "--n", "0", "--m", "2", "--beta1", "1/2", "--beta2", "1/2"]
CURVE_ARGS = [
    "volume-curve", "--n", "0", "--m", "2",
    "--beta1", "1/2", "--beta2", "1/2", "--curve", "E1",
]
# The largest m, with a support of m + 1 curves in the last chamber.
CURVE_ARGS_M200 = [
    "volume-curve", "--n", "0", "--m", "200",
    "--beta1", "1/2", "--beta2", "1/10000", "--curve", "E1",
]
VERIFY_ARGS = ["verify", "--samples", "3", "--seed", "7"]
SCAN_ARGS = [
    "scan", "--n", "1", "--m", "0",
    "--beta1-grid", "1/2:2:1/4", "--beta2-grid", "1/4:1:1/4",
]
# Large coprime denominators: every one of the 16 terms in a long fraction.
DELTA_ARGS_COPRIME = [
    "delta", "--n", "1", "--m", "6",
    "--beta1", "765433/999983", "--beta2", "345679/999979",
]
# A grid through the condition point (63/128, 21/32) of (0, 2).
SCAN_ARGS_CONDITION = [
    "scan", "--n", "0", "--m", "2",
    "--beta1-grid", "61/128:65/128:1/128", "--beta2-grid", "5/8:11/16:1/32",
]


def run_cli(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    return excinfo.value.code, out, err


def assert_exit_contract(code, err):
    """Exit 0, 1 or 2; a non-zero exit prints exactly one stderr line."""
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code:
        assert err.startswith({1: "error: ", 2: "inconsistency: "}[code])
        assert err.count("\n") == 1 and err.endswith("\n")


def assert_one_line_inconsistency(code, out, err):
    assert code == 2
    assert out == ""
    assert_exit_contract(code, err)


def doubled_dual(h):
    """The true dual with vol doubled, through its integer 6 L^2 vol:
    breaks the halving suite's check."""
    dual = legendre_dual(h)
    return dataclasses.replace(dual, VOL=2 * dual.VOL)


def load_schema(name):
    text = (resources.files("kedge.schemas") / name).read_text(encoding="utf-8")
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return schema


class TestGoldens:
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (DELTA_ARGS, "delta_f0_blow2_half.json"),
            (CURVE_ARGS, "volume_curve_e1.json"),
            (VERIFY_ARGS, "verify_small.json"),
            (SCAN_ARGS, "scan_m0.csv"),
            (CURVE_ARGS_M200, "volume_curve_m200_e1.json"),
            (DELTA_ARGS_COPRIME, "delta_f1_blow6_coprime.json"),
            (SCAN_ARGS_CONDITION, "scan_m2_condition.csv"),
        ],
    )
    def test_byte_identical(self, capsys, argv, golden):
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_scan_determinism(self, capsys):
        first = run_cli(capsys, SCAN_ARGS)
        second = run_cli(capsys, SCAN_ARGS)
        assert first == second


class TestSchemas:
    def test_delta_schema(self, capsys):
        schema = load_schema("delta_report.schema.json")
        for extra in ([], ["--approx"]):
            _, out, _ = run_cli(capsys, DELTA_ARGS + extra)
            jsonschema.validate(json.loads(out), schema)

    def test_volume_curve_schema(self, capsys):
        schema = load_schema("volume_curve_report.schema.json")
        for extra in ([], ["--approx"]):
            _, out, _ = run_cli(capsys, CURVE_ARGS + extra)
            jsonschema.validate(json.loads(out), schema)

    def test_verify_schema(self, capsys):
        schema = load_schema("verify_report.schema.json")
        _, out, _ = run_cli(capsys, VERIFY_ARGS)
        jsonschema.validate(json.loads(out), schema)

    def test_schema_rejects_lossy_rational(self):
        schema = load_schema("delta_report.schema.json")
        report = json.loads((GOLDEN / "delta_f0_blow2_half.json").read_text())
        report["delta"] = 0.9130434782608695
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)


class TestApprox:
    def test_delta_approx_fields(self, capsys):
        code, out, _ = run_cli(capsys, DELTA_ARGS + ["--approx"])
        assert code == 0
        report = json.loads(out)
        assert report["delta"] == "21/23"
        assert report["delta_approx"] == pytest.approx(21 / 23)
        assert report["per_divisor"]["C2tilde"]["ratio_approx"] == pytest.approx(21 / 23)

    def test_volume_curve_approx_fields(self, capsys):
        code, out, _ = run_cli(capsys, CURVE_ARGS + ["--approx"])
        assert code == 0
        report = json.loads(out)
        assert report["tau_approx"] == pytest.approx(2.5)
        assert report["S_approx"] == pytest.approx(22 / 21)

    def test_scan_approx_columns(self, capsys):
        code, out, _ = run_cli(capsys, SCAN_ARGS + ["--approx"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "beta1,beta2,condition_sign,delta,status,"
            "beta1_approx,beta2_approx,delta_approx"
        )
        first = lines[1].split(",")
        assert first[5] == "0.5"
        assert float(first[7]) == pytest.approx(5 / 7)


class TestInputHandling:
    def test_decimal_rejected_by_default(self, capsys):
        code, _, err = run_cli(
            capsys, ["delta", "--n", "0", "--m", "2", "--beta1", "0.5", "--beta2", "1/2"]
        )
        assert code == 1
        assert "decimal" in err

    def test_decimal_accepted_with_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["delta", "--n", "0", "--m", "2", "--beta1", "0.5", "--beta2", "0.5",
             "--accept-decimal"],
        )
        assert code == 0
        assert out == (GOLDEN / "delta_f0_blow2_half.json").read_text(encoding="utf-8")

    def test_outside_ample_range(self, capsys):
        code, _, err = run_cli(
            capsys, ["delta", "--n", "2", "--m", "0", "--beta1", "1/1", "--beta2", "1/2"]
        )
        assert code == 1
        assert "outside the ample range" in err

    def test_bad_surface_params(self, capsys):
        code, _, err = run_cli(
            capsys, ["delta", "--n", "-1", "--m", "2", "--beta1", "1/2", "--beta2", "1/2"]
        )
        assert code == 1

    def test_unknown_curve_label(self, capsys):
        code, _, err = run_cli(capsys, CURVE_ARGS[:-1] + ["Q7"])
        assert code == 1

    def test_curve_index_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, CURVE_ARGS[:-1] + ["E3"])
        assert code == 1
        assert "m=2" in err

    def test_pullback_section_refused_before_sweeping(self, capsys, monkeypatch):
        def sweep(E, params, angles):
            raise AssertionError("swept a curve that has no log discrepancy")

        monkeypatch.setattr("kedge.cli.volume_curve", sweep)
        code, out, err = run_cli(capsys, CURVE_ARGS[:-1] + ["PullbackC2"])
        assert (code, out) == (1, "")
        assert err == "error: PullbackC2 is not a prime divisor once points are blown up\n"

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, ["delta", "--n", "0", "--m", "2", "--beta1", "1/2"])
        assert code == 1

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--suite", "nope"])
        assert code == 1

    def test_nonpositive_samples(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--samples", "0"])
        assert code == 1

    def test_samples_bound(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--samples", "10001"])
        assert (code, out) == (1, "")
        assert err == "error: --samples must lie in 1..10000, got 10001\n"

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("1:2", "expected start:stop:step"),
            ("1/2:2:0", "step must be positive"),
            ("0:2:1/4", "angles must be positive"),
            ("x:2:1/4", "malformed"),
            ("1/10000:2:1/10000", "too large"),
        ],
    )
    def test_bad_grids(self, capsys, grid, message):
        code, _, err = run_cli(capsys, SCAN_ARGS[:-3] + [grid, "--beta2-grid", "1/4:1:1/4"])
        assert code == 1
        assert message in err

    @pytest.mark.parametrize("beta1", ["1e-5000", "1e-999999"])
    def test_oversized_angle_is_one_line_user_error(self, beta1):
        # Run as a process: a traceback would only show on a real stderr.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["delta", "--n", "0", "--m", "2", "--beta1", beta1, "--beta2", "1/2",
                "--accept-decimal"]
        proc = subprocess.run(
            [sys.executable, "-m", "kedge.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "too large" in proc.stderr

    @pytest.mark.parametrize("beta1", ["1e-1_0000", "1_0/20", "1/2_0", "\u0661/\u0662", "1/ 2"])
    def test_non_ascii_literal_is_one_line_user_error(self, capsys, beta1):
        # int() and Fraction() take underscores, inner blanks and non-ASCII
        # digits; "1e-1_0000" once slipped past the exponent bound.
        argv = ["delta", "--n", "0", "--m", "2", "--beta1", beta1, "--beta2", "1/2",
                "--accept-decimal"]
        code, out, err = run_cli(capsys, argv)
        assert_exit_contract(code, err)
        assert (code, out) == (1, "")
        assert "malformed" in err

    @pytest.mark.parametrize("label", ["E01", "F02tilde", "F\u0663tilde"])
    def test_curve_label_is_written_as_label_writes_it(self, capsys, label):
        code, out, err = run_cli(capsys, CURVE_ARGS[:-1] + [label])
        assert_exit_contract(code, err)
        assert (code, out) == (1, "")
        assert err == f"error: unknown curve label {label!r}\n"

    @pytest.mark.parametrize("label", ["E" + "9" * 5000, "F" + "9" * 5000 + "tilde"],
                             ids=["E-5000-digits", "F-5000-digits"])
    def test_long_curve_index_is_an_unknown_label(self, capsys, label):
        # No index above MAX_M names a curve; a long one once reached int()
        # and ended in Python's own digit-limit message.
        code, out, err = run_cli(capsys, CURVE_ARGS[:-1] + [label])
        assert_exit_contract(code, err)
        assert (code, out) == (1, "")
        assert err == f"error: unknown curve label {label!r}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--suite", "nope"], "Invalid value for '--suite'"),
            (["delta", "--n", "x"], "Invalid value for '--n'"),
            (["delta", "--m", "2", "--beta1", "1/2", "--beta2", "1/2"], "Missing option '--n'"),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, argv)
        assert_exit_contract(code, err)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["delta", "--beta1", "1/2", "--beta2", "1/2"],
            ["volume-curve", "--beta1", "1/2", "--beta2", "1/2", "--curve", "E1"],
            ["scan", "--beta1-grid", "1/2:1:1/2", "--beta2-grid", "1/4:1:1/4"],
        ],
        ids=["delta", "volume-curve", "scan"],
    )
    def test_m_above_bound_is_user_error(self, capsys, monkeypatch, argv):
        # Refused while parsing, before anything is computed.
        def computed(*args):
            raise AssertionError("m above the bound reached the computation")

        monkeypatch.setattr("kedge.cli.k_polystable", computed)
        monkeypatch.setattr("kedge.cli.volume_curve", computed)
        code, out, err = run_cli(capsys, argv + ["--n", "0", "--m", str(MAX_M + 1)])
        assert_exit_contract(code, err)
        assert code == 1 and out == ""
        assert err == f"error: m must be at most {MAX_M}, got {MAX_M + 1}\n"

    def test_empty_grid_header_only(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["scan", "--n", "1", "--m", "0",
             "--beta1-grid", "2:1:1/2", "--beta2-grid", "1/4:1:1/4"],
        )
        assert code == 0
        assert out == "beta1,beta2,condition_sign,delta,status\n"


    @pytest.mark.parametrize(
        "beta1_grid, points",
        [("1:10000:1", 10000), ("1:10001:1", 10001),
         ("1/3:10000/3:1/3", 10000), ("1/3:10001/3:1/3", 10001)],
    )
    def test_grid_bound_counts_points(self, capsys, beta1_grid, points):
        # The empty second axis leaves nothing to compute, so only the bound decides.
        code, out, err = run_cli(
            capsys,
            ["scan", "--n", "1", "--m", "0",
             "--beta1-grid", beta1_grid, "--beta2-grid", "2:1:1"],
        )
        assert_exit_contract(code, err)
        if points <= 10_000:
            assert (code, out, err) == (0, "beta1,beta2,condition_sign,delta,status\n", "")
        else:
            assert code == 1 and out == ""
            assert err == "error: beta1 grid too large (over 10000 points)\n"


class TestInconsistencyExit:
    def test_delta_inconsistency_is_exit_2(self, capsys, monkeypatch):
        def boom(params, angles):
            raise InconsistencyError("routes disagree (synthetic)")

        monkeypatch.setattr("kedge.cli.k_polystable", boom)
        code, _, err = run_cli(capsys, DELTA_ARGS)
        assert code == 2
        assert "inconsistency" in err

    def test_scan_inconsistency_is_exit_2(self, capsys, monkeypatch):
        def boom(params, angles):
            raise InconsistencyError("routes disagree (synthetic)")

        monkeypatch.setattr("kedge.cli.k_polystable", boom)
        code, _, err = run_cli(capsys, SCAN_ARGS)
        assert code == 2

    def test_volume_curve_decomposition_error_is_exit_2(self, capsys, monkeypatch):
        def boom(E, params, angles):
            raise DecompositionError("support Gram matrix not negative definite (synthetic)")

        monkeypatch.setattr("kedge.cli.volume_curve", boom)
        code, out, err = run_cli(capsys, CURVE_ARGS)
        assert code == 2
        assert out == ""
        assert err.startswith("inconsistency:")
        assert "Traceback" not in err

    @staticmethod
    def irrational(E, params, angles):
        raise IrrationalThreshold("threshold is an irrational root (synthetic)")

    def test_volume_curve_irrational_threshold_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("kedge.cli.volume_curve", self.irrational)
        assert_one_line_inconsistency(*run_cli(capsys, CURVE_ARGS))

    def test_verify_irrational_threshold_is_exit_2(self, capsys, monkeypatch):
        # Raised inside a suite, below the CLI layer: the suite records it
        # as its counterexample, and the report is still printed.
        monkeypatch.setattr("kedge.verify.volume_curve", self.irrational)
        argv = ["verify", "--suite", "lemmas", "--samples", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert_exit_contract(code, err)
        assert err == "inconsistency: counterexample found by lemmas\n"
        report = json.loads(out)
        jsonschema.validate(report, load_schema("verify_report.schema.json"))
        (suite,) = report["suites"]
        assert (report["ok"], suite["passed"], suite["checks"]) == (False, False, 1)
        counterexample = suite["counterexample"]
        assert {"n", "m", "beta1", "beta2", "case", "curve"} <= set(counterexample)
        assert counterexample["detail"] == (
            "IrrationalThreshold: threshold is an irrational root (synthetic)"
        )

    @staticmethod
    def assert_certificate_is_exit_2(capsys, monkeypatch, argv):
        # Each request certifies its own surface model: a request on the
        # same (n, m) certified earlier in the process does not excuse it.
        assert run_cli(capsys, argv)[0] == 0
        monkeypatch.setattr(
            "kedge.tvariety.SupportFunction.divisor_class", lambda self, model: model.zero()
        )
        code, out, err = run_cli(capsys, argv)
        assert_one_line_inconsistency(code, out, err)
        assert "support function does not encode" in err

    def test_delta_support_function_certificate_is_exit_2(self, capsys, monkeypatch):
        self.assert_certificate_is_exit_2(capsys, monkeypatch, DELTA_ARGS)

    def test_scan_support_function_certificate_is_exit_2(self, capsys, monkeypatch):
        self.assert_certificate_is_exit_2(capsys, monkeypatch, SCAN_ARGS_CONDITION)

    @pytest.mark.parametrize("beta2_grid", ["5/8:3/4:1/32", "1/8:7/8:1/8"])
    def test_scan_certifies_once_per_request(self, capsys, monkeypatch, beta2_grid):
        # Three round trips per request (see anticanonical_support_function),
        # however many grid points: 5 x 5 and 5 x 7 here.
        calls = []
        original = SupportFunction.divisor_class

        def counting(self, model):
            calls.append(self.angles)
            return original(self, model)

        monkeypatch.setattr(SupportFunction, "divisor_class", counting)
        argv = ["scan", "--n", "0", "--m", "2",
                "--beta1-grid", "61/128:65/128:1/128", "--beta2-grid", beta2_grid]
        assert run_cli(capsys, argv)[0] == 0
        assert len(calls) == 3

    def test_failing_suite_is_exit_2(self, capsys, monkeypatch):
        failing = SuiteResult(
            suite="halving", samples=1, checks=1, passed=False,
            counterexample={"n": 1},
        )
        monkeypatch.setattr("kedge.cli.run_suites", lambda *a: [failing])
        code, out, err = run_cli(capsys, ["verify", "--suite", "halving"])
        assert code == 2
        assert json.loads(out)["ok"] is False
        assert err == "inconsistency: counterexample found by halving\n"

    def test_broken_suite_reports_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr("kedge.verify.legendre_dual", doubled_dual)
        code, out, _ = run_cli(capsys, ["verify", "--suite", "halving", "--samples", "1"])
        assert code == 2
        report = json.loads(out)
        jsonschema.validate(report, load_schema("verify_report.schema.json"))
        assert report["ok"] is False
        assert report["suites"][0]["counterexample"]["detail"].startswith("2 vol(Psi)")


class TestConfigAndOutput:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "kedge.cfg"
        cfg.write_text(
            "# surface under study\nn = 0\nm = 2\nbeta1 = 1/2\nbeta2 = 1/2\n"
        )
        code, out, _ = run_cli(capsys, ["--config", str(cfg), "delta"])
        assert code == 0
        assert out == (GOLDEN / "delta_f0_blow2_half.json").read_text(encoding="utf-8")

    def test_cli_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "kedge.cfg"
        cfg.write_text("n = 0\nm = 2\nbeta1 = 1/2\nbeta2 = 1/2\n")
        code, out, _ = run_cli(
            capsys, ["--config", str(cfg), "delta", "--beta2", "2/3"]
        )
        assert code == 0
        assert json.loads(out)["beta2"] == "2/3"

    def test_config_reaches_other_subcommands(self, capsys, tmp_path):
        cfg = tmp_path / "kedge.cfg"
        cfg.write_text("n = 0\nm = 2\nbeta1 = 1/2\nbeta2 = 1/2\ncurve = E1\n")
        code, out, _ = run_cli(capsys, ["--config", str(cfg), "volume-curve"])
        assert code == 0
        assert out == (GOLDEN / "volume_curve_e1.json").read_text(encoding="utf-8")

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "kedge.cfg"
        cfg.write_text("n 0\n")
        code, _, err = run_cli(capsys, ["--config", str(cfg), "delta"])
        assert code == 1
        assert "config line 1" in err

    def test_unreadable_config(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["--config", str(tmp_path / "absent.cfg"), "delta"])
        assert code == 1
        assert "cannot read config file" in err

    def test_non_utf8_config(self, capsys, tmp_path):
        cfg = tmp_path / "kedge.cfg"
        cfg.write_bytes(b"\xff\xfe\x00")
        code, out, err = run_cli(capsys, ["--config", str(cfg), "delta"])
        assert (code, out) == (1, "")
        assert_exit_contract(code, err)
        assert "cannot read config file" in err

    def test_output_under_a_regular_file(self, capsys, tmp_path):
        blocker = tmp_path / "F"
        blocker.write_text("")
        code, out, err = run_cli(capsys, DELTA_ARGS + ["-o", str(blocker / "x.json")])
        assert (code, out) == (1, "")
        assert_exit_contract(code, err)
        assert "cannot write output file" in err

    def test_output_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, SCAN_ARGS + ["-o", str(tmp_path)])
        assert (code, out) == (1, "")
        assert_exit_contract(code, err)
        assert "cannot write output file" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, DELTA_ARGS + ["-o", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == (
            GOLDEN / "delta_f0_blow2_half.json"
        ).read_text(encoding="utf-8")

    def test_output_dir_env_prefixes_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KEDGE_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, SCAN_ARGS + ["-o", "sub/scan.csv"])
        assert code == 0
        written = tmp_path / "sub" / "scan.csv"
        assert written.read_text(encoding="utf-8") == (
            GOLDEN / "scan_m0.csv"
        ).read_text(encoding="utf-8")

    def test_output_dir_env_ignores_absolute_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KEDGE_OUTPUT_DIR", str(tmp_path / "unused"))
        target = tmp_path / "direct.json"
        code, _, _ = run_cli(capsys, DELTA_ARGS + ["-o", str(target)])
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "unused").exists()


class TestScanContent:
    def test_condition_locus_row(self, capsys):
        # (2/1, 1/1) sits on the condition locus but on the ample
        # boundary: sign 0, empty delta cell, OutsideAmpleRange.
        _, out, _ = run_cli(capsys, SCAN_ARGS)
        rows = out.splitlines()
        assert rows[-1] == "2/1,1/1,0,,OutsideAmpleRange"

    def test_toric_diagonal_locus(self, capsys):
        # For n = m = 0 the polystable locus is exactly the diagonal.
        code, out, _ = run_cli(
            capsys,
            ["scan", "--n", "0", "--m", "0",
             "--beta1-grid", "1/4:1:1/4", "--beta2-grid", "1/4:1:1/4"],
        )
        assert code == 0
        for row in out.splitlines()[1:]:
            beta1, beta2, cs, delta, status = row.split(",")
            on_diagonal = beta1 == beta2
            assert (status == "KPolystable") is on_diagonal
            assert (cs == "0") is on_diagonal
            assert (delta == "1/1") is on_diagonal

    def test_scan_against_direct_evaluation(self, capsys):
        from kedge.verdict import k_polystable
        from kedge.picard import Angles

        _, out, _ = run_cli(capsys, SCAN_ARGS)
        row = out.splitlines()[1].split(",")
        v = k_polystable((1, 0), Angles(rat(1, 2), rat(1, 4)))
        assert row[2] == str(v.condition_sign)
        assert row[3] == "5/7" and v.delta == rat(5, 7)
        assert row[4] == v.status


# Numerals as the literal grammar reads them, and as int() and Fraction()
# would also read them: leading zeros, underscores, inner blanks, non-ASCII
# digits, and digit counts at and beyond the 100-digit bound.
NUMERALS = st.one_of(
    st.integers(0, 10**4).map(str),
    st.sampled_from(["007", "1_0", "1 0", "\u0661", "\u0662\u0663", "\uff11", "9" * 100,
                     "9" * 101, "9" * 5000]),
)
ANGLE_LITERALS = st.one_of(
    st.builds("{}/{}".format, st.integers(1, 5), st.integers(1, 10)),
    st.sampled_from(
        ["1", "0", "-1/2", "1/0", "0.5", "1e-3", "1e-5000", "x", "", "1/2/3", " 2/3", "nan"]
    ),
    # sign, numeral, separator, numeral, exponent at and beyond the bound of 100.
    st.builds(
        "{}{}{}{}{}".format,
        st.sampled_from(["", "+", "-", "+-", " -"]),
        NUMERALS,
        st.sampled_from(["/", ".", "", "/ ", " /", "/-", "/_"]),
        NUMERALS,
        st.sampled_from(["", "e100", "e-100", "e101", "E-101", "e+100", "e1_0", "e-1_0000",
                         "e" + "9" * 5000]),
    ),
)
# Indices of 1 to 3 digits name a curve, or an out-of-range one; 4 and 5000
# digits, leading zeros, underscores, blanks and non-ASCII digits name none.
INDICES = st.one_of(
    st.integers(0, 8).map(str),
    st.sampled_from(["01", "1_0", " 1", "1 ", "\u0663", "100", "200", "999", "1000", "9999",
                     "9" * 5000]),
)
CURVE_LABELS = st.one_of(
    st.sampled_from(
        ["C1tilde", "C2tilde", "GenericFiber", "PullbackC2", "E1", "E3", "E6", "F1tilde",
         "F4tilde", "E0", "E7", "F0tilde", "Q7", "e1", "Ftilde", ""]
    ),
    st.builds("E{}".format, INDICES),
    st.builds("F{}tilde".format, INDICES),
)
REPORT_SCHEMAS = {
    "delta": "delta_report.schema.json",
    "volume-curve": "volume_curve_report.schema.json",
}


def _small_grid(start, step, points):
    """A valid ``start:stop:step`` spec of 1 to 3 points, with its point count."""
    stop = start + (points - 1) * step
    return f"{format_rat(start)}:{format_rat(stop)}:{format_rat(step)}", points


# (spec, number of points), with None for specs the CLI must refuse.
GRID_SPECS = st.one_of(
    st.builds(
        _small_grid,
        st.builds(Fraction, st.integers(1, 8), st.integers(1, 8)),
        st.builds(Fraction, st.integers(1, 4), st.integers(1, 8)),
        st.integers(1, 3),
    ),
    st.sampled_from(
        [("2:1:1/2", 0), ("1:2", None), ("1:2:1/2:1", None), ("1/2:2:0", None),
         ("1/2:2:-1/4", None), ("0:2:1/4", None), ("-1/2:2:1/4", None), ("x:2:1/4", None),
         ("0.5:1:1/4", None), ("", None), ("1/10000:2:1/10000", None),
         ("1:100000:1/1000", None)]
    ),
)


class TestExitCodeContract:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(sorted(REPORT_SCHEMAS)),
        n=st.integers(-1, 6),
        m=st.integers(-1, 6),
        beta1=ANGLE_LITERALS,
        beta2=ANGLE_LITERALS,
        curve=CURVE_LABELS,
        accept_decimal=st.booleans(),
    )
    def test_any_argv_exits_0_1_or_2(
        self, capsys, command, n, m, beta1, beta2, curve, accept_decimal
    ):
        argv = [command, "--n", str(n), "--m", str(m), "--beta1", beta1, "--beta2", beta2]
        if command == "volume-curve":
            argv += ["--curve", curve]
        if accept_decimal:
            argv.append("--accept-decimal")
        code, out, err = run_cli(capsys, argv)
        assert_exit_contract(code, err)
        if code == 0:
            jsonschema.validate(json.loads(out), load_schema(REPORT_SCHEMAS[command]))

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(n=st.integers(-1, 6), m=st.integers(-1, 6), grid1=GRID_SPECS, grid2=GRID_SPECS)
    def test_any_scan_argv_exits_0_1_or_2(self, capsys, n, m, grid1, grid2):
        (spec1, points1), (spec2, points2) = grid1, grid2
        argv = ["scan", "--n", str(n), "--m", str(m), "--beta1-grid", spec1,
                "--beta2-grid", spec2]
        code, out, err = run_cli(capsys, argv)
        assert_exit_contract(code, err)
        if code == 0:
            lines = out.splitlines()
            assert lines[0] == "beta1,beta2,condition_sign,delta,status"
            assert len(lines) == 1 + points1 * points2

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        samples=st.integers(-1, 1),
        suite=st.sampled_from(sorted(SUITES) + ["all", "nope"]),
        seed=st.integers(),
    )
    def test_any_verify_argv_exits_0_1_or_2(self, capsys, samples, suite, seed):
        argv = ["verify", "--suite", suite, "--samples", str(samples), "--seed", str(seed)]
        code, out, err = run_cli(capsys, argv)
        assert_exit_contract(code, err)
        if code == 0:
            jsonschema.validate(json.loads(out), load_schema("verify_report.schema.json"))
