"""Correctness checks on every output, valid for any seed.

Each check returns ``(passed, items, reason)``: ``items`` is the request's
unit of work (grid points for ``scan``, one curve for ``sweep``, suite checks
for ``verify``) and counts only when the request passed.  These run in the
parent process after the workload process has ended, so they are never
timed, never traced and add nothing to the workload's peak RSS.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from workloads import condition_sign, fmt, grid_values, in_ample_range

ROOT = Path(__file__).resolve().parent.parent
SCAN_HEADER = ["beta1", "beta2", "condition_sign", "delta", "status"]
PINNED_DELTA = "21/23"  # README quick start: delta at n=0, m=2, beta = (1/2, 1/2)


@lru_cache(maxsize=None)
def _validator(name: str):
    import jsonschema

    path = ROOT / "src" / "kedge" / "schemas" / f"{name}.schema.json"
    schema = json.loads(path.read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def _json_report(result: dict, schema: str):
    """The parsed report, or a reason string when it is not valid."""
    if result["code"] != 0:
        tail = result["stderr"].strip().splitlines()[-1:] or [""]
        return None, f"exit code {result['code']}: {tail[0]}"
    try:
        report = json.loads(result["stdout"])
    except json.JSONDecodeError as exc:
        return None, f"not JSON: {exc}"
    error = next(iter(_validator(schema).iter_errors(report)), None)
    if error is not None:
        return None, f"schema {schema}: {error.message}"
    return report, None


def digest(argv, result: dict) -> str:
    """Hash of one request's argv, exit code and exact output bytes."""
    blob = json.dumps([list(argv), result["code"], result["stdout"]])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_pinned(result: dict):
    report, reason = _json_report(result, "delta_report")
    if reason:
        return False, 0, reason
    if report["delta"] != PINNED_DELTA:
        return False, 0, f"pinned delta {report['delta']} != {PINNED_DELTA}"
    return True, 1, None


def _grids(spec: dict):
    argv = spec["argv"]
    return (grid_values(argv[argv.index("--beta1-grid") + 1]),
            grid_values(argv[argv.index("--beta2-grid") + 1]))


def check_scan(spec: dict, result: dict):
    if result["code"] != 0:
        return False, 0, f"exit code {result['code']}"
    n, m = spec["n"], spec["m"]
    grid1, grid2 = _grids(spec)
    rows = list(csv.reader(io.StringIO(result["stdout"])))
    if not rows or rows[0] != SCAN_HEADER:
        return False, 0, "bad CSV header"
    rows = rows[1:]
    if len(rows) != len(grid1) * len(grid2):
        return False, 0, f"{len(rows)} rows for a {len(grid1)}x{len(grid2)} grid"
    points = ((b1, b2) for b1 in grid1 for b2 in grid2)
    for row, (b1, b2) in zip(rows, points):
        if len(row) != 5 or row[0] != fmt(b1) or row[1] != fmt(b2):
            return False, 0, f"row {row} is not grid point ({fmt(b1)}, {fmt(b2)})"
        _, _, sign_cell, delta_cell, status = row
        if sign_cell != str(condition_sign(n, m, b1, b2)):
            return False, 0, f"condition_sign {sign_cell} wrong at {row[:2]}"
        if not in_ample_range(n, m, b1, b2):
            if status != "OutsideAmpleRange" or delta_cell:
                return False, 0, f"point {row[:2]} is outside the ample range: {row}"
            continue
        if status not in ("KPolystable", "NotKPolystable") or "/" not in delta_cell:
            return False, 0, f"bad verdict row {row}"
        delta = Fraction(delta_cell)
        polystable = sign_cell == "0" and m != 1
        if (status == "KPolystable") != polystable:
            return False, 0, f"status {status} contradicts the condition at {row[:2]}"
        if delta > 1 or (delta == 1) != polystable:
            return False, 0, f"delta {delta_cell} breaks delta <= 1, = 1 iff polystable"
    return True, len(rows), None


def grid_points(spec: dict) -> tuple[int, int]:
    """(points outside the ample range, all points) of a scan request."""
    grid1, grid2 = _grids(spec)
    outside = sum(not in_ample_range(spec["n"], spec["m"], b1, b2) for b1 in grid1 for b2 in grid2)
    return outside, len(grid1) * len(grid2)


def _torus_term(n: int, m: int, beta1: str, beta2: str, curve: str):
    from kedge.picard import Angles, SurfaceParams
    from kedge.ratmath import format_rat, parse_rat
    from kedge.tvariety import delta_tvariety

    report = delta_tvariety(SurfaceParams(n, m), Angles(parse_rat(beta1), parse_rat(beta2)))
    term = report.term(curve)
    return format_rat(term.A), format_rat(term.S)


def check_sweep(spec: dict, result: dict):
    report, reason = _json_report(result, "volume_curve_report")
    if reason:
        return False, 0, reason
    argv = spec["argv"]
    beta1, beta2 = argv[argv.index("--beta1") + 1], argv[argv.index("--beta2") + 1]
    echoed = (report["n"], report["m"], report["curve"], report["beta1"], report["beta2"])
    if echoed != (spec["n"], spec["m"], spec["curve"], beta1, beta2):
        return False, 0, f"report echoes {echoed}"
    a_torus, s_torus = _torus_term(spec["n"], spec["m"], beta1, beta2, spec["curve"])
    if (report["A"], report["S"]) != (a_torus, s_torus):
        return False, 0, (f"sweep (A,S)=({report['A']},{report['S']}) vs torus "
                          f"({a_torus},{s_torus})")
    return True, 1, None


def check_verify(spec: dict, result: dict):
    report, reason = _json_report(result, "verify_report")
    if reason:
        return False, 0, reason
    if report["seed"] != spec["seed"] or report["samples"] != 1:
        return False, 0, f"report is for seed {report['seed']}, samples {report['samples']}"
    if report["ok"] is not True or not all(s["passed"] for s in report["suites"]):
        return False, 0, f"verify not ok: {report['suites']}"
    return True, sum(s["checks"] for s in report["suites"]), None


CHECKS = {"scan": check_scan, "sweep": check_sweep, "verify": check_verify}


def max_output_bits(stdout: str) -> int:
    """Largest numerator or denominator bit length among the output's p/q values."""
    best = 0
    for token in stdout.replace(",", " ").replace('"', " ").split():
        num, slash, den = token.partition("/")
        if slash and num.lstrip("-").isdigit() and den.isdigit():
            best = max(best, int(num).bit_length(), int(den).bit_length())
    return best
