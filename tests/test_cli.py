"""End-to-end CLI contract: byte-stable reports, schemas, exit codes."""

import collections
import csv
import gc
import io
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from conftest import (clear_per_surface_caches, count_builds, dual, rat, tampered_minimum,
                      with_delta, with_fm, with_vol, zero_class)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import kedge.picard
import kedge.tvariety
import kedge.verdict
from kedge import cli
from kedge.cli import COMMANDS, GROUP, HELP, MAX_CONFIG_CHARS, MAX_M, MAX_SCAN_POINTS, main
from kedge.picard import Angles, SurfaceModel
from kedge.ratmath import format_rat
from kedge.verdict import InconsistencyError, k_polystable, rational_condition_point
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
# A condition point with n > 0 and m >= 3, where every orbit but C~1 and C~2 has A > S.
DELTA_ARGS_CONDITION = ["delta", "--n", "1", "--m", "3", "--beta1", "15/23", "--beta2", "45/46"]
# A grid through the condition point (63/128, 21/32) of (0, 2).
SCAN_ARGS_CONDITION = [
    "scan", "--n", "0", "--m", "2",
    "--beta1-grid", "61/128:65/128:1/128", "--beta2-grid", "5/8:11/16:1/32",
]

CONFIG = "<config file>"
BIG = "9" * 5000  # past int()'s digit limit
DECIMAL_CONFIG = ["n = 0", "m = 2", "beta1 = 0.5", "beta2 = 1/2"]
# (argv, config lines, exit code, exact stderr) of the command line's own
# parsing: the wording of every usage error, and spellings that parse.
USAGE_CASES = [
    pytest.param(argv, config, code, err, id=case_id)
    for case_id, argv, config, code, err in [
        ("missing-command", [], [], 1, "error: Missing command.\n"),
        ("no-such-command", ["x"], [], 1, "error: No such command 'x'.\n"),
        ("command-suggestion", ["volume"], [], 1,
         "error: No such command 'volume'. Did you mean 'volume-curve'?\n"),
        ("config-without-value", ["--config"], [], 1,
         "error: Option '--config' requires an argument.\n"),
        ("config-after-command", ["delta", "--config", CONFIG], [], 1,
         "error: No such option '--config'.\n"),
        ("option-after-double-dash", ["--", "--n", "0"], [], 1,
         "error: No such option '--n'.\n"),
        ("group-option-unknown", ["--n", "0", "delta"], [], 1,
         "error: No such option '--n'.\n"),
        ("group-option-suggestion", ["--confg", CONFIG, "delta"], [], 1,
         "error: No such option '--confg'. Did you mean '--config'?\n"),
        ("missing-option", ["delta", "--m", "2", "--beta1", "1/2", "--beta2", "1/2"], [], 1,
         "error: Missing option '--n'.\n"),
        ("option-without-value", DELTA_ARGS + ["--n"], [], 1,
         "error: Option '--n' requires an argument.\n"),
        ("short-option-last", DELTA_ARGS + ["-o"], [], 1,
         "error: Option '-o' requires an argument.\n"),
        ("not-an-integer", ["delta", "--n", "x"], [], 1,
         "error: Invalid value for '--n': 'x' is not a valid integer.\n"),
        ("option-as-value", ["delta", "--n", "--m", "2"], [], 1,
         "error: Invalid value for '--n': '--m' is not a valid integer.\n"),
        ("given-before-missing", ["delta", "--beta1", "1/2", "--m", "x"], [], 1,
         "error: Invalid value for '--m': 'x' is not a valid integer.\n"),
        ("5000-digit-n", ["delta", "--n", BIG, "--m", "2", "--beta1", "1/2", "--beta2", "1/2"],
         [], 1, f"error: Invalid value for '--n': '{BIG}' is not a valid integer.\n"),
        ("5000-digit-seed", ["verify", "--seed", BIG], [], 1,
         f"error: Invalid value for '--seed': '{BIG}' is not a valid integer.\n"),
        ("option-suggestion", ["delta", "--nn", "0"], [], 1,
         "error: No such option '--nn'. Did you mean '--n'?\n"),
        ("option-suggestions", ["delta", "--beta", "1/2"], [], 1,
         "error: No such option '--beta'. (Did you mean one of: '--beta1', '--beta2'?)\n"),
        ("no-such-option", ["delta", "--foo"], [], 1, "error: No such option '--foo'.\n"),
        ("no-such-short-option", ["delta", "-n", "0"], [], 1,
         "error: No such option '-n'.\n"),
        ("extra-argument", DELTA_ARGS + ["x"], [], 1,
         "error: Got unexpected extra argument (x)\n"),
        ("extra-arguments", DELTA_ARGS + ["--", "x", "--n"], [], 1,
         "error: Got unexpected extra arguments (x --n)\n"),
        ("flag-with-value", DELTA_ARGS + ["--approx=1"], [], 1,
         "error: Option '--approx' does not take a value.\n"),
        ("unknown-suite", ["verify", "--suite", "nope"], [], 1,
         "error: Invalid value for '--suite': 'nope' is not one of 'halving', 'lemmas', "
         "'route-agreement', 'zariski-oracle', 'all'.\n"),
        ("equals-spelling", ["delta", "--n=0", "--m", "2", "--beta1=1/2", "--beta2", "1/2"],
         [], 0, ""),
        ("repeated-option", ["delta", "--n", "5", *DELTA_ARGS[1:]], [], 0, ""),
        ("blanks-around-integer",
         ["delta", "--n", " 0 ", "--m", "2", "--beta1", "1/2", "--beta2", "1/2"], [], 0, ""),
        ("attached-short-value", [*DELTA_ARGS, "-o", "unwritten.json", "-o."], [], 1,
         "error: cannot write output file: [Errno 21] Is a directory: '.'\n"),
        ("config-flag-true", ["--config", CONFIG, "delta"],
         DECIMAL_CONFIG + ["accept-decimal = true"], 0, ""),
        ("config-flag-false", ["--config", CONFIG, "delta"],
         DECIMAL_CONFIG + ["accept-decimal = false"], 1,
         "error: '0.5' looks like a decimal; pass an exact rational 'p/q' or enable the "
         "lossy decimal flag\n"),
        ("config-flag-invalid", ["--config", CONFIG, "delta"],
         DECIMAL_CONFIG + ["accept-decimal = maybe"], 1,
         "error: Invalid value for '--accept-decimal': 'maybe' is not a valid boolean. "
         "Recognized values: , 0, 1, f, false, n, no, off, on, t, true, y, yes\n"),
        ("config-value-invalid", ["--config", CONFIG, "delta"], ["n = x"], 1,
         "error: Invalid value for '--n': 'x' is not a valid integer.\n"),
        ("flag-overrides-config", ["--config", CONFIG, *DELTA_ARGS], ["n = x"], 0, ""),
        ("empty-config-path", ["--config", "", *DELTA_ARGS], [], 0, ""),
        ("nul-in-config-path", ["--config", "a\0b", "delta"], [], 1,
         "error: cannot read config file: embedded null byte\n"),
        ("nul-in-output-path", ["--config", CONFIG, *DELTA_ARGS], ["output = a\0b"], 1,
         "error: cannot write output file: embedded null byte\n"),
    ]
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


def doubled_dual(model, angles):
    """The true dual with vol doubled, through its integer 6 L^2 vol:
    breaks the halving suite's check."""
    d = dual(model, angles)
    return d._replace(VOL=2 * d.VOL)


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
            (DELTA_ARGS_CONDITION, "delta_f1_blow3_condition.json"),
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


def write_json(value) -> str:
    out = []
    cli._json(value, "", out)
    return "".join(out)


# Reports as the CLI builds them: str keys, every str drawn from all of
# Unicode, so non-ASCII and control characters are in range, and exact
# rationals nested anywhere.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.fractions(),
    lambda children: st.lists(children) | st.tuples(children, children)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


class TestJsonWriter:
    """``_dump`` writes ``json.dumps(report, indent=2, default=format_rat)``
    byte for byte."""

    @pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_goldens(self, golden):
        text = (GOLDEN / golden).read_text(encoding="utf-8")
        report = json.loads(text)
        assert write_json(report) == json.dumps(report, indent=2) == text[:-1]

    @given(json_values)
    @example({})
    @example([])
    @example({"a": {}, "b": [[], [{}]], "c": [[1, [2.5, None]], True, False]})
    @example({"\u00e9\x00\x1f\u2028": "tab\there \"quoted\" \\ \ud83d\ude00"})
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 21 / 23])
    @example({"r": (Fraction(-1, 21), [Fraction(3)]), "i": 10**30})
    @example("caf\u00e9")  # top-level scalars: a str, an int, None and a Rat
    @example(7)
    @example(None)
    @example(Fraction(1, 2))
    def test_matches_json_dumps(self, value):
        assert write_json(value) == json.dumps(value, indent=2, default=format_rat)

    @pytest.mark.parametrize("argv", [DELTA_ARGS, CURVE_ARGS, DELTA_ARGS_CONDITION],
                             ids=["delta", "volume-curve", "delta-condition"])
    def test_approx_reports(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv + ["--approx"])
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_unsupported_value_is_refused_like_json_dumps(self):
        for value in (1j, {"x": [1j]}):
            with pytest.raises(TypeError, match="Object of type complex is not JSON serializable"):
                write_json(value)


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
        # Refused by name before the angles are checked (beta2 = 5 is
        # outside every ample range).
        for m, label, beta2 in [("2", "E3", "1/2"), ("3", "E7", "1/2"), ("3", "F4tilde", "5")]:
            argv = CURVE_ARGS[:-1] + [label]
            argv[argv.index("--m") + 1], argv[argv.index("--beta2") + 1] = m, beta2
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (1, "")
            assert err == f"error: curve {label} does not exist on a surface with m={m}\n"

    def test_pullback_section_refused_before_sweeping(self, capsys, monkeypatch):
        def sweep(E, params, angles):
            raise AssertionError("swept a curve that has no log discrepancy")

        monkeypatch.setattr("kedge.volumes.volume_curve", sweep)
        code, out, err = run_cli(capsys, CURVE_ARGS[:-1] + ["PullbackC2"])
        assert (code, out) == (1, "")
        assert err == "error: PullbackC2 is not a prime divisor once points are blown up\n"

    @pytest.mark.parametrize("name", ["volume_curve", "expected_vanishing_order"])
    def test_internal_value_error_is_not_a_user_error(self, capsys, monkeypatch, name):
        # Past the handler's own checks, a ValueError from the sweep or from
        # S is a fault of the program: exit 2, not a user error's exit 1.
        def fault(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(f"kedge.volumes.{name}", fault)
        assert run_cli(capsys, CURVE_ARGS) == (2, "", "internal error: ValueError: internal fault\n")

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

    @pytest.mark.parametrize("argv, config, code, err", USAGE_CASES)
    def test_usage_error_is_one_line(
        self, capsys, tmp_path, monkeypatch, argv, config, code, err
    ):
        # Each case's exact stderr; a case that exits 0 prints the delta golden.
        # CONFIG in argv stands for a file holding the case's config lines.
        monkeypatch.delenv("KEDGE_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "kedge.cfg"
        cfg.write_text("".join(f"{line}\n" for line in config), encoding="utf-8")
        argv = [str(cfg) if arg == CONFIG else arg for arg in argv]
        result = run_cli(capsys, argv)
        assert_exit_contract(result[0], result[2])
        golden = (GOLDEN / "delta_f0_blow2_half.json").read_text(encoding="utf-8")
        assert result == (code, golden if code == 0 else "", err)

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
        monkeypatch.setattr("kedge.cli.decide", computed)
        monkeypatch.setattr("kedge.volumes.volume_curve", computed)
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
         ("1/3:10000/3:1/3", 10000), ("1/3:10001/3:1/3", 10001),
         ("1/3:49999/10:1/2", 10000), ("1/3:50004/10:1/2", 10001)],
    )
    def test_grid_bound_counts_points(self, capsys, beta1_grid, points):
        # The empty second axis leaves nothing to compute, so only the bound
        # decides.  The last two stops lie off their grid's lattice, whose
        # start and step have unrelated denominators.
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

    def test_hundred_digit_stop_is_refused_before_any_value(self, capsys, monkeypatch):
        # The count is read off the integers first: no grid value is formed.
        monkeypatch.setattr(cli, "Rat", _fault)
        code, out, err = run_cli(
            capsys,
            ["scan", "--n", "1", "--m", "0",
             "--beta1-grid", "1:" + "9" * 100 + ":1", "--beta2-grid", "1/4:1/4:1"],
        )
        assert (code, out, err) == (1, "", "error: beta1 grid too large (over 10000 points)\n")

    @settings(max_examples=300)
    @given(start=st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
           step=st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
           whole=st.integers(-3, 40),
           part=st.fractions(0, 1, max_denominator=10**6).filter(lambda x: x < 1))
    def test_grid_matches_the_fraction_reference(self, start, step, whole, part):
        # Unrelated denominators, a stop off the lattice (part > 0) and a
        # stop below the start (whole < 0, the empty grid).
        stop = start + (whole + part) * step
        spec = ":".join(map(format_rat, (start, stop, step)))
        grid = cli._parse_grid(spec, "beta1")
        assert grid == [start + i * step for i in range((stop - start) // step + 1)]
        assert all(type(value) is Fraction for value in grid)

    @pytest.mark.parametrize("beta2_grid, points", [("1:1000:1", 1000 * 1000),
                                                    ("1:1001:1", 1000 * 1001)])
    def test_scan_grid_bound_counts_all_points(self, capsys, monkeypatch, beta2_grid, points):
        # A grid within the bound reaches the computation, stopped here at
        # its first point; one past it is refused before anything is computed.
        def stop(*args):
            raise InconsistencyError("reached the computation")

        monkeypatch.setattr("kedge.cli.decide", stop)
        code, out, err = run_cli(
            capsys,
            ["scan", "--n", "0", "--m", "0", "--beta1-grid", "1:1000:1", "--beta2-grid", beta2_grid],
        )
        assert_exit_contract(code, err)
        assert out == ""
        if points <= MAX_SCAN_POINTS:
            assert (code, err) == (2, "inconsistency: reached the computation\n")
        else:
            assert (code, err) == (1, "error: scan grid too large (over 1000000 points)\n")


class TestInconsistencyExit:
    def test_delta_inconsistency_is_exit_2(self, capsys, monkeypatch):
        def boom(params, angles):
            raise InconsistencyError("routes disagree (synthetic)")

        monkeypatch.setattr("kedge.cli.k_polystable", boom)
        code, _, err = run_cli(capsys, DELTA_ARGS)
        assert code == 2
        assert "inconsistency" in err

    def test_scan_inconsistency_is_exit_2(self, capsys, monkeypatch):
        def boom(model, L, p1, p2):
            raise InconsistencyError("routes disagree (synthetic)")

        monkeypatch.setattr("kedge.cli.decide", boom)
        code, _, err = run_cli(capsys, SCAN_ARGS)
        assert code == 2

    def test_volume_curve_decomposition_error_is_exit_2(self, capsys, monkeypatch):
        def boom(E, params, angles):
            raise DecompositionError("support Gram matrix not negative definite (synthetic)")

        monkeypatch.setattr("kedge.volumes.volume_curve", boom)
        code, out, err = run_cli(capsys, CURVE_ARGS)
        assert code == 2
        assert out == ""
        assert err.startswith("inconsistency:")
        assert "Traceback" not in err

    @staticmethod
    def irrational(E, params, angles):
        raise IrrationalThreshold("threshold is an irrational root (synthetic)")

    def test_volume_curve_irrational_threshold_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("kedge.volumes.volume_curve", self.irrational)
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
        # The certificate runs once per surface (n, m) in a process: a
        # request on a surface certified earlier reads the kept result, and
        # a request on a cold cache runs the round trips and exits 2.
        assert run_cli(capsys, argv)[0] == 0
        monkeypatch.setattr(
            "kedge.tvariety._encoded_class", lambda model, angles: zero_class(model)
        )
        assert run_cli(capsys, argv)[0] == 0
        clear_per_surface_caches()
        code, out, err = run_cli(capsys, argv)
        assert_one_line_inconsistency(code, out, err)
        assert "support function does not encode" in err

    def test_delta_support_function_certificate_is_exit_2(self, capsys, monkeypatch):
        self.assert_certificate_is_exit_2(capsys, monkeypatch, DELTA_ARGS)

    def test_scan_support_function_certificate_is_exit_2(self, capsys, monkeypatch):
        self.assert_certificate_is_exit_2(capsys, monkeypatch, SCAN_ARGS_CONDITION)

    @pytest.mark.parametrize("beta2_grid", ["5/8:3/4:1/32", "1/8:7/8:1/8"])
    def test_scan_certifies_once_per_request(self, capsys, monkeypatch, beta2_grid):
        # Three round trips per surface on a cold cache (see legendre_dual),
        # however many grid points: 5 x 5 and 5 x 7 here; one ample check
        # per grid point, on the point's integer form (L, P1, P2).
        clear_per_surface_caches()
        calls = []
        original = kedge.tvariety._encoded_class

        def counting(model, angles):
            calls.append(angles)
            return original(model, angles)

        ample_checks = []
        original_check = SurfaceModel.broken_ample_bound

        def counting_check(self, L, p1, p2):
            ample_checks.append((L, p1, p2))
            return original_check(self, L, p1, p2)

        monkeypatch.setattr(kedge.tvariety, "_encoded_class", counting)
        monkeypatch.setattr(SurfaceModel, "broken_ample_bound", counting_check)
        argv = ["scan", "--n", "0", "--m", "2",
                "--beta1-grid", "61/128:65/128:1/128", "--beta2-grid", beta2_grid]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert len(calls) == 3
        points = [Angles(*row.split(",")[:2]).scaled for row in out.splitlines()[1:]]
        assert ample_checks == points
        # A second request on the surface reads the kept certificate.
        assert run_cli(capsys, argv) == (0, out, "")
        assert len(calls) == 3

    @staticmethod
    def count_scan_work(capsys, monkeypatch, argv) -> tuple:
        """(rows, calls) of a scan: every record, Fraction, name, ample
        check, torus minimum and verdict formed once both grid axes are
        parsed, by name, and the builds of the surface's orbit table, if
        any, as ``orbit_rows builds``."""
        calls = collections.Counter()
        armed = []

        def count(owner, name, wrap=lambda f: f):
            def counting(*args, _original=getattr(owner, name)):
                if True in armed:
                    calls[name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, wrap(counting))

        for owner, name in [(Angles, "__init__"), (kedge.tvariety, "DeltaReport"),
                            (kedge.verdict, "DeltaReport"), (kedge.verdict, "Verdict"),
                            (kedge.tvariety, "Orbit"),
                            (kedge.tvariety, "orbit_names"), (kedge.picard, "orbit_names"),
                            (SurfaceModel, "broken_ample_bound"),
                            (SurfaceModel, "ample_range_violation"),
                            (kedge.verdict, "delta_minimum"), (kedge.tvariety, "scaled_duals"),
                            (kedge.tvariety, "legendre_dual"), (kedge.cli, "k_polystable")]:
            count(owner, name)
        count(Fraction, "__new__", staticmethod)
        parse = cli._parse_grid

        def parse_then_arm(text, what):
            grid = parse(text, what)
            armed.append(what == "beta2")
            return grid

        monkeypatch.setattr(cli, "_parse_grid", parse_then_arm)
        table_builds = count_builds(monkeypatch, SurfaceModel, "orbit_rows")
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and armed == [False, True]
        if table_builds:
            calls["orbit_rows builds"] = len(table_builds)
        return [row.split(",") for row in out.splitlines()[1:]], calls

    def test_scan_off_the_locus_forms_no_orbit_record(self, capsys, monkeypatch):
        # A scan row reads delta, the bracket's sign and the status, all on
        # the point's integers: no point off the condition locus forms an
        # Angles, a DeltaReport, a Verdict, an Orbit record or a Fraction,
        # or spells a name; each runs one ample check and one torus minimum.
        argv = ["scan", "--n", "0", "--m", "2",
                "--beta1-grid", "1/4:3/4:1/8", "--beta2-grid", "1/8:5/8:1/8"]
        rows, calls = self.count_scan_work(capsys, monkeypatch, argv)
        assert len(rows) == 25
        assert all(row[2] != "0" and row[4] == "NotKPolystable" for row in rows)
        assert calls == {"broken_ample_bound": 25, "delta_minimum": 25, "scaled_duals": 25}

    def test_scan_condition_point_forms_no_report(self, capsys, monkeypatch):
        # The one condition point of the grid, (63/128, 21/32), checks every
        # orbit's row on the minimum's integers: no report, no orbit
        # record, no name and no Fraction, as at every other point.  It
        # reads the surface's orbit table, built once on a cold cache.
        rows, calls = self.count_scan_work(capsys, monkeypatch, SCAN_ARGS_CONDITION)
        assert len(rows) == 15
        assert [row[:2] for row in rows if row[4] == "KPolystable"] == [["63/128", "21/32"]]
        assert calls == {"broken_ample_bound": 15, "delta_minimum": 15, "scaled_duals": 15,
                         "orbit_rows builds": 1}

    @pytest.mark.parametrize("cross", [0, -1])
    @pytest.mark.parametrize("argv", [DELTA_ARGS, SCAN_ARGS], ids=["delta", "scan"])
    def test_nonpositive_s_is_exit_2(self, capsys, monkeypatch, argv, cross):
        # Every S is a cross term over 2 L VOL; read as 0 it would divide
        # by zero, and read as negative it would make delta negative.
        monkeypatch.setattr(kedge.tvariety, "cross", lambda W, HS2, psi: cross)
        code, out, err = run_cli(capsys, argv)
        assert_one_line_inconsistency(code, out, err)
        assert "is not positive" in err

    @pytest.mark.parametrize("module, seam, tamper, message", [
        (kedge.verdict, "delta_minimum",
         lambda fn: tampered_minimum(fn, lambda minimum: minimum._replace(FM=-minimum.FM)),
         "torus-side first moment is not 2 (f2 - f1) at bracket sign 1"),
        (kedge.tvariety, "scaled_duals", lambda fn: with_fm(fn, 2),
         "torus-side first moment is not 2 (f2 - f1) at bracket sign 1"),
        (kedge.verdict, "delta_minimum", lambda fn: tampered_minimum(fn, with_delta(rat(3, 2))),
         "delta must be < 1 off the condition locus"),
        (kedge.tvariety, "scaled_duals", lambda fn: with_vol(fn, 0),
         "torus route: vol is not positive"),
        (kedge.tvariety, "scaled_duals", lambda fn: with_vol(fn, -1),
         "torus route: vol is not positive"),
    ], ids=["futaki-sign", "fm-doubled", "delta-above-1", "vol-0", "vol-negative"])
    @pytest.mark.parametrize("argv", [DELTA_ARGS, SCAN_ARGS], ids=["delta", "scan"])
    def test_tampered_torus_integers_are_exit_2(self, capsys, monkeypatch, argv, module, seam,
                                                tamper, message):
        # Both subcommands decide on the same integers: a flipped first
        # moment, a doubled one (which keeps the Futaki sign), delta above
        # 1 and VOL <= 0 each stop the first point in the ample range
        # (bracket sign 1 at both argvs' first one).
        monkeypatch.setattr(module, seam, tamper(getattr(module, seam)))
        code, out, err = run_cli(capsys, argv)
        assert_one_line_inconsistency(code, out, err)
        assert err == f"inconsistency: {message}\n"

    def test_failing_suite_is_exit_2(self, capsys, monkeypatch):
        failing = SuiteResult(
            suite="halving", samples=1, checks=1, passed=False,
            counterexample={"n": 1},
        )
        monkeypatch.setattr("kedge.verify.run_suites", lambda *a: [failing])
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
        # Every subcommand of the group answers from the config alone as it
        # does with the same options spelled on the command line.
        configs = {
            "delta": {"n": "0", "m": "2", "beta1": "1/2", "beta2": "1/2"},
            "volume-curve": {"n": "0", "m": "2", "beta1": "1/2", "beta2": "1/2", "curve": "E1"},
            "verify": {"samples": "1", "seed": "7"},
            "scan": {"n": "1", "m": "0", "beta1-grid": "1/2:2:1/4", "beta2-grid": "1/4:1:1/4"},
        }
        assert set(configs) == set(COMMANDS)
        for command, options in configs.items():
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
            flags = [arg for key, value in options.items() for arg in (f"--{key}", value)]
            from_config = run_cli(capsys, ["--config", str(cfg), command])
            assert from_config[0] == 0
            assert from_config == run_cli(capsys, [command, *flags])

    def test_unknown_config_key(self, capsys, tmp_path):
        # A misspelt key names no option of any subcommand: one error line
        # and exit 1, not a default that is dropped without a word.
        cfg = tmp_path / "kedge.cfg"
        cfg.write_text("samples = 1\nsed = 7\n")
        code, out, err = run_cli(capsys, ["--config", str(cfg), "verify"])
        assert (code, out) == (1, "")
        assert err == "error: config line 2: unknown option 'sed'\n"

    def test_config_key_of_another_subcommand(self, capsys, tmp_path):
        # One file serves every subcommand: keys that name another
        # subcommand's options (seed, curve) are accepted and unused.
        cfg = tmp_path / "kedge.cfg"
        cfg.write_text("n = 0\nm = 2\nbeta1 = 1/2\nbeta2 = 1/2\nseed = 7\ncurve = E1\n")
        code, out, _ = run_cli(capsys, ["--config", str(cfg), "delta"])
        assert code == 0
        assert out == (GOLDEN / "delta_f0_blow2_half.json").read_text(encoding="utf-8")

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

    def test_config_size_bound(self, capsys, tmp_path):
        # A file of MAX_CONFIG_CHARS characters is read; one more and it is
        # refused before its lines are parsed.
        cfg = tmp_path / "kedge.cfg"
        lines = "n = 0\nm = 2\nbeta1 = 1/2\nbeta2 = 1/2\n#"
        cfg.write_text(lines + "x" * (MAX_CONFIG_CHARS - len(lines)), encoding="utf-8")
        code, out, _ = run_cli(capsys, ["--config", str(cfg), "delta"])
        assert code == 0
        assert out == (GOLDEN / "delta_f0_blow2_half.json").read_text(encoding="utf-8")
        cfg.write_text(lines + "x" * (MAX_CONFIG_CHARS + 1 - len(lines)), encoding="utf-8")
        code, out, err = run_cli(capsys, ["--config", str(cfg), "delta"])
        assert (code, out) == (1, "")
        assert err == f"error: config file too large (over {MAX_CONFIG_CHARS} characters)\n"

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


class TestHelpAndImports:
    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_names_every_option(self, capsys, command):
        # One line per option holds all its spellings and its help string;
        # the layout beyond that is free.
        argv = ["--help"] if command is None else [command, "--help"]
        options = [*(GROUP if command is None else COMMANDS[command])[1], HELP]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        for option in options:
            assert any(option.help in line and all(flag in line for flag in option.flags)
                       for line in lines), option
        if command is None:
            assert all(any(line.split()[:1] == [name] for line in lines) for name in COMMANDS)

    def test_cli_imports_only_the_standard_library(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        script = ("import sys, kedge.cli; "
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'click'))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv, extra", [
        (["delta", "--n", "1", "--m", "2", "--beta1", "1/2", "--beta2", "1/3"], ()),
        (["scan", "--n", "0", "--m", "2", "--beta1-grid", "1/2:1:1/2",
          "--beta2-grid", "1/3:2/3:1/3"], ()),
        (["volume-curve", "--n", "1", "--m", "2", "--curve", "E1", "--beta1", "1/2",
          "--beta2", "1/3"], ("linalg", "volumes", "zariski")),
        (["verify", "--suite", "halving", "--samples", "1"],
         tuple(path.stem for path in (SRC / "kedge").glob("*.py") if path.stem != "__init__")),
    ])
    def test_subcommand_loads_only_the_modules_it_runs(self, argv, extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        script = ("import contextlib, io, sys\n"
                  "from kedge.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    try:\n"
                  "        main(sys.argv[1:])\n"
                  "    except SystemExit as exc:\n"
                  "        code = exc.code\n"
                  "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'kedge'),\n"
                  "      [m for m in ('dataclasses', 'inspect') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                              text=True, env=env, timeout=60)
        torus = ("cli", "picard", "ratmath", "tvariety", "verdict")
        loaded = sorted(["kedge", *(f"kedge.{name}" for name in {*torus, *extra})])
        # No subcommand pays for dataclasses or the inspect module it loads.
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"0 {loaded} []\n", "")

    def test_suite_names_are_the_registry_names(self):
        assert cli.SUITE_NAMES == tuple(sorted(SUITES))


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
        v = k_polystable(SurfaceModel(1, 0), Angles(rat(1, 2), rat(1, 4)))
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
    @given(
        command=st.sampled_from(sorted(REPORT_SCHEMAS)),
        n=st.integers(-1, 6),
        m=st.integers(-1, 6),
        beta1=ANGLE_LITERALS,
        beta2=ANGLE_LITERALS,
        curve=CURVE_LABELS,
        accept_decimal=st.booleans(),
    )
    def test_any_config_exits_0_1_or_2(
        self, capsys, tmp_path, command, n, m, beta1, beta2, curve, accept_decimal
    ):
        # The same values as --config lines, read by the config file's own
        # parser (which strips blanks around a value) as every option.
        lines = [f"n = {n}", f"m = {m}", f"beta1 = {beta1}", f"beta2 = {beta2}",
                 f"curve = {curve}", f"accept-decimal = {accept_decimal}"]
        cfg = tmp_path / "kedge.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, ["--config", str(cfg), command])
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


def reference_scan(n, m, grid1, grid2, approx):
    """The scan CSV with every cell formatted at its own point."""
    model = SurfaceModel(n, m)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["beta1", "beta2", "condition_sign", "delta", "status"]
    if approx:
        header += ["beta1_approx", "beta2_approx", "delta_approx"]
    writer.writerow(header)
    for b1 in grid1:
        for b2 in grid2:
            verdict = k_polystable(model, Angles(b1, b2))
            row = [format_rat(b1), format_rat(b2), str(verdict.condition_sign),
                   "" if verdict.delta is None else format_rat(verdict.delta), verdict.status]
            if approx:
                row += [repr(float(b1)), repr(float(b2)),
                        "" if verdict.delta is None else repr(float(verdict.delta))]
            writer.writerow(row)
    return buffer.getvalue()


# A grid axis (start, step, points) over (0, 3]: at n, m <= 4 it often
# crosses beta1 = 2/n or beta2 = 2/(m - n), so OutsideAmpleRange rows appear.
GRID_AXES = st.tuples(
    st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)).filter(lambda x: x <= 3),
    st.builds(Fraction, st.integers(1, 6), st.integers(1, 12)),
    st.integers(1, 4),
)


# An axis whose values span 10**-14 to 10**20, so that the --approx cells
# print as "1e-07" and "1.5e+20" too: the scan joins its cells with commas,
# and csv.writer, which the reference uses, would quote a cell that held a
# comma, a quote, CR or LF.
WIDE_AXES = st.tuples(
    st.builds(lambda p, e: Fraction(p) * Fraction(10) ** e, st.integers(1, 99),
              st.integers(-14, 18)),
    st.builds(lambda p, e: Fraction(p) * Fraction(10) ** e, st.integers(1, 99),
              st.integers(-16, 18)),
    st.integers(1, 3),
)


def _fault(*args, **kwargs):
    raise RuntimeError("injected fault")


def kedge_functions_called(capsys, argv) -> list:
    """Every function of ``src/kedge`` that a cold run of ``argv`` calls,
    as the function objects that hold its code, less ``main`` (which holds
    the handler), the functions made anew on each call (lambdas,
    comprehensions and nested functions: a ``<`` in the qualified name) and
    closures (whose code cannot be swapped for one with no free
    variables)."""
    package = os.path.dirname(cli.__file__)
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            codes.add(frame.f_code)

    clear_per_surface_caches()
    sys.setprofile(profile)
    try:
        assert run_cli(capsys, argv)[0] == 0
    finally:
        sys.setprofile(None)
    found = {f for f in gc.get_objects() if isinstance(f, types.FunctionType)
             and f.__code__ in codes and "<" not in f.__qualname__
             and not f.__code__.co_freevars and f is not main}
    return sorted(found, key=lambda f: (f.__module__, f.__qualname__))


class TestInternalFault:
    @pytest.mark.parametrize("argv", [DELTA_ARGS, SCAN_ARGS, CURVE_ARGS,
                                      ["verify", "--samples", "1"]], ids=lambda a: a[0])
    def test_every_called_function_that_fails_gives_one_line_and_exit_2(self, capsys, argv):
        # Each function the request calls raises in turn, under every binding
        # of it at once (its code is swapped); nothing in src catches a
        # RuntimeError, so each run is one internal fault.
        functions = kedge_functions_called(capsys, argv)
        assert len(functions) >= 10
        for function in functions:
            code = function.__code__
            function.__code__ = _fault.__code__
            try:
                clear_per_surface_caches()
                result = run_cli(capsys, argv)
            finally:
                function.__code__ = code
            assert result == (2, "", "internal error: RuntimeError: injected fault\n"), \
                function.__qualname__

    @pytest.mark.parametrize("argv, late", [
        (DELTA_ARGS, "_json"), (SCAN_ARGS, "format_rat"), (CURVE_ARGS, "_json"),
        (["verify", "--samples", "1"], "_json"),
    ], ids=lambda a: a[0] if isinstance(a, list) else a)
    def test_a_fault_leaves_no_output_file(self, capsys, monkeypatch, tmp_path, argv, late):
        # The fault comes late, while the report's text is formed: every
        # subcommand writes its report in one call at the end, so --output
        # gets no file, not even its directory.
        monkeypatch.setattr(f"kedge.cli.{late}", _fault)
        output = tmp_path / "out" / "report"
        result = run_cli(capsys, [*argv, "-o", str(output)])
        assert result == (2, "", "internal error: RuntimeError: injected fault\n")
        assert not output.parent.exists()

    def test_an_interrupt_is_no_internal_fault(self, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("kedge.cli._run", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(DELTA_ARGS)


class TestScanAgainstPerPointReference:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(0, 4), m=st.integers(0, 4), axis1=st.one_of(GRID_AXES, WIDE_AXES),
           axis2=st.one_of(GRID_AXES, WIDE_AXES), approx=st.booleans())
    def test_scan_matches_the_reference_byte_for_byte(self, capsys, n, m, axis1, axis2, approx):
        (spec1, _), (spec2, _) = _small_grid(*axis1), _small_grid(*axis2)
        grid1, grid2 = ([start + i * step for i in range(points)]
                        for start, step, points in (axis1, axis2))
        argv = ["scan", "--n", str(n), "--m", str(m), "--beta1-grid", spec1,
                "--beta2-grid", spec2] + ["--approx"] * approx
        assert run_cli(capsys, argv) == (0, reference_scan(n, m, grid1, grid2, approx), "")

    @pytest.mark.parametrize("approx", [False, True])
    @pytest.mark.parametrize("n, m, axis", [(0, 0, "1/4:1:1/4"), (1, 2, "1/4:7/4:1/4"),
                                            (2, 4, "1/8:7/8:1/8"), (3, 6, "1/8:5/8:1/8")],
                             ids=["toric", "m2", "m4", "m6"])
    def test_diagonal_condition_points_match_the_reference(self, capsys, n, m, axis, approx):
        # At m = 2n the condition locus holds the diagonal: every diagonal
        # point of these grids is KPolystable, on the toric, m = 2 and
        # m >= 3 branches, and every other point is not.
        argv = ["scan", "--n", str(n), "--m", str(m), "--beta1-grid", axis,
                "--beta2-grid", axis] + ["--approx"] * approx
        code, out, err = run_cli(capsys, argv)
        grid = cli._parse_grid(axis, "beta1")
        assert (code, out, err) == (0, reference_scan(n, m, grid, grid, approx), "")
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [row[:2] for row in rows if row[4] == "KPolystable"] == [
            [format_rat(b), format_rat(b)] for b in grid]
        assert all(row[3] == "1/1" for row in rows if row[4] == "KPolystable")

    @pytest.mark.parametrize("approx", [False, True])
    @pytest.mark.parametrize("n, s", [(0, rat(3, 5)), (1, rat(4, 3)), (2, rat(3, 2)),
                                      (3, rat(4, 3))])
    def test_m1_condition_point_matches_the_reference(self, capsys, n, s, approx):
        # The m = 1 exclusion: a one-point grid on the condition locus is
        # NotKPolystable with condition sign 0 and delta < 1.
        angles = rational_condition_point(SurfaceModel(n, 1), s)
        b1, b2 = format_rat(angles.beta1), format_rat(angles.beta2)
        argv = ["scan", "--n", str(n), "--m", "1", "--beta1-grid", f"{b1}:{b1}:1",
                "--beta2-grid", f"{b2}:{b2}:1"] + ["--approx"] * approx
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (0, reference_scan(n, 1, [angles.beta1], [angles.beta2],
                                                      approx), "")
        (row,) = (line.split(",") for line in out.splitlines()[1:])
        assert row[2] == "0" and row[4] == "NotKPolystable" and Fraction(row[3]) < 1

    @pytest.mark.parametrize("approx", [False, True])
    @pytest.mark.parametrize("n, m, axis", [(3, 0, "beta1"), (1, 4, "beta2")])
    def test_ample_bound_is_refused_and_just_below_it_accepted(self, capsys, n, m, axis, approx):
        # 2/3 is beta1's bound at n = 3 and beta2's at m - n = 3; 1999/3000
        # lies just below it.
        spec = "1999/3000:2/3:1/3000"
        other = "1/4:1/4:1"
        grids = (spec, other) if axis == "beta1" else (other, spec)
        argv = ["scan", "--n", str(n), "--m", str(m), "--beta1-grid", grids[0],
                "--beta2-grid", grids[1]] + ["--approx"] * approx
        code, out, err = run_cli(capsys, argv)
        values = [Fraction(1999, 3000), Fraction(2, 3)]
        grid1, grid2 = (values, [Fraction(1, 4)]) if axis == "beta1" else ([Fraction(1, 4)], values)
        assert (code, out, err) == (0, reference_scan(n, m, grid1, grid2, approx), "")
        below, bound = (row.split(",") for row in out.splitlines()[1:])
        assert below[4] != "OutsideAmpleRange" and below[3] != ""
        assert bound[3:5] == ["", "OutsideAmpleRange"]
