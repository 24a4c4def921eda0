"""Command-line surface: single evaluations, verification suites, scans.

Exit-code contract: 0 success, 1 user/input error, 2 mathematical
inconsistency (a cross-route disagreement or a failed certificate — the
loudest alarm; ``main`` maps every ``InconsistencyError`` to it).  All
rationals are read and written as exact ``"p/q"`` strings; ``--approx``
adds decimal fields (suffixed ``_approx``) that are lossy and for human
reading only.  Reports are JSON (schemas ship under ``kedge/schemas/``)
except for ``scan``, which emits CSV.  Identical flags + seed produce
byte-identical output.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

import click

from .picard import Angles, SurfaceModel, parse_curve_id
from .ratmath import RatParseError, format_rat, parse_rat
from .verdict import OUTSIDE_AMPLE_RANGE, InconsistencyError, k_polystable
from .verify import SUITES, run_suites
from .volumes import log_discrepancy, volume_curve

# Largest accepted m: the lattice has rank m + 2, and the candidate set,
# every pairing vector and the sweep's solves grow with m.
MAX_M = 200
# Largest accepted --samples, and points per scan grid axis.
MAX_POINTS = 10_000


def _user_error(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _emit(text: str, output: str | None):
    """Write to stdout, or to --output (under $KEDGE_OUTPUT_DIR if relative)."""
    if output is None:
        click.echo(text, nl=False)
        return
    path = Path(output)
    base = os.environ.get("KEDGE_OUTPUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        _user_error(f"cannot write output file: {exc}")


def _dump(report: dict, output: str | None):
    _emit(json.dumps(report, indent=2) + "\n", output)


def _parse_angles(beta1: str, beta2: str, accept_decimal: bool) -> Angles:
    try:
        return Angles(
            parse_rat(beta1, accept_decimal=accept_decimal),
            parse_rat(beta2, accept_decimal=accept_decimal),
        )
    except (RatParseError, ValueError) as exc:
        _user_error(str(exc))


def _parse_surface(n: int, m: int) -> SurfaceModel:
    if m > MAX_M:
        _user_error(f"m must be at most {MAX_M}, got {m}")
    try:
        return SurfaceModel(n, m)
    except ValueError as exc:
        _user_error(str(exc))


def _load_config(ctx, param, value):
    """--config file of ``key = value`` lines, used as defaults everywhere;
    a key that names no option of any subcommand is a user error."""
    if not value:
        return
    defaults = {}
    options = {p.name for command in ctx.command.commands.values() for p in command.params}
    try:
        lines = Path(value).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        _user_error(f"cannot read config file: {exc}")
    for line_no, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, val = stripped.partition("=")
        if not eq:
            _user_error(f"config line {line_no}: expected 'key = value'")
        name = key.strip().replace("-", "_")
        if name not in options:
            _user_error(f"config line {line_no}: unknown option {key.strip()!r}")
        defaults[name] = val.strip()
    ctx.default_map = {name: dict(defaults) for name in ctx.command.commands}


@click.group(no_args_is_help=False)
@click.option(
    "--config",
    type=click.Path(),
    callback=_load_config,
    is_eager=True,
    expose_value=False,
    help="Key-value file supplying default option values.",
)
def cli():
    """Exact K-polystability computations for the blown-up ruled surfaces."""


def _surface_options(fn):
    fn = click.option("--beta2", required=True, help="Second cone angle as p/q.")(fn)
    fn = click.option("--beta1", required=True, help="First cone angle as p/q.")(fn)
    fn = click.option("--m", "m", type=int, required=True, help="Number of blown-up points.")(fn)
    fn = click.option("--n", "n", type=int, required=True, help="Ruled-surface twisting degree.")(fn)
    return fn


def _common_options(fn):
    fn = click.option("--output", "-o", default=None, help="Write the report to this file.")(fn)
    fn = click.option(
        "--accept-decimal",
        is_flag=True,
        help="Allow decimal angle literals (converted exactly in base 10).",
    )(fn)
    fn = click.option(
        "--approx",
        is_flag=True,
        help="Add lossy decimal fields (suffixed _approx) for human reading.",
    )(fn)
    return fn


@cli.command("delta")
@_surface_options
@_common_options
def cmd_delta(n, m, beta1, beta2, approx, accept_decimal, output):
    """Stability threshold, witnesses and verdict at one angle pair."""
    model = _parse_surface(n, m)
    angles = _parse_angles(beta1, beta2, accept_decimal)
    verdict = k_polystable(model, angles)
    if verdict.status == OUTSIDE_AMPLE_RANGE:
        _user_error(f"outside the ample range: {verdict.notes[0]}")
    report = {
        "n": n,
        "m": m,
        "beta1": format_rat(angles.beta1),
        "beta2": format_rat(angles.beta2),
        "delta": format_rat(verdict.delta),
    }
    if approx:
        report["delta_approx"] = float(verdict.delta)
    report.update(
        {
            "witness": verdict.witness,
            "witnesses": list(verdict.witnesses),
            "condition_sign": verdict.condition_sign,
            "futaki_zero": verdict.condition_sign == 0,
            "status": verdict.status,
            "notes": list(verdict.notes),
            "per_divisor": {},
        }
    )
    for term in verdict.report.terms:
        entry = {
            "A": format_rat(term.A),
            "S": format_rat(term.S),
            "ratio": format_rat(term.ratio),
        }
        if approx:
            entry["ratio_approx"] = float(term.ratio)
        report["per_divisor"][term.name] = entry
    _dump(report, output)


@cli.command("volume-curve")
@_surface_options
@click.option("--curve", required=True, help="Curve label, e.g. C1tilde, E1, F2tilde.")
@_common_options
def cmd_volume_curve(n, m, curve, beta1, beta2, approx, accept_decimal, output):
    """Piecewise-quadratic volume curve x -> vol(-K - x C) for one curve."""
    model = _parse_surface(n, m)
    angles = _parse_angles(beta1, beta2, accept_decimal)
    try:
        cid = parse_curve_id(curve)
    except ValueError as exc:
        _user_error(str(exc))
    if cid.index is not None and not 1 <= cid.index <= m:
        _user_error(f"curve {cid.label} does not exist on a surface with m={m}")
    violation = model.ample_range_violation(angles)
    if violation is not None:
        _user_error(f"outside the ample range: {violation}")
    try:
        a_value = log_discrepancy(cid, model, angles)
        pq = volume_curve(cid, model, angles)
        s_value = pq.expected_vanishing_order()
    except ValueError as exc:
        _user_error(str(exc))
    report = {
        "n": n,
        "m": m,
        "beta1": format_rat(angles.beta1),
        "beta2": format_rat(angles.beta2),
        "curve": cid.label,
        "tau": format_rat(pq.tau),
        "A": format_rat(a_value),
        "S": format_rat(s_value),
    }
    if approx:
        report["tau_approx"] = float(pq.tau)
        report["S_approx"] = float(s_value)
    report["pieces"] = [
        {
            "x_lo": format_rat(piece.x_lo),
            "x_hi": format_rat(piece.x_hi),
            "q0": format_rat(piece.q0),
            "q1": format_rat(piece.q1),
            "q2": format_rat(piece.q2),
            "negative_support": [c.label for c in piece.negative_support],
        }
        for piece in pq.pieces
    ]
    _dump(report, output)


@cli.command("verify")
@click.option(
    "--suite",
    type=click.Choice(sorted(SUITES) + ["all"]),
    default="all",
    show_default=True,
    help="Which cross-checking suite to run.",
)
@click.option("--samples", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "-o", default=None, help="Write the report to this file.")
def cmd_verify(suite, samples, seed, output):
    """Run oracle suites; any failure is an inconsistency (exit 2)."""
    if not 0 < samples <= MAX_POINTS:
        _user_error(f"--samples must lie in 1..{MAX_POINTS}, got {samples}")
    names = sorted(SUITES) if suite == "all" else [suite]
    results = run_suites(names, samples, seed)
    ok = all(r.passed for r in results)
    report = {
        "samples": samples,
        "seed": seed,
        "ok": ok,
        "suites": [dataclasses.asdict(r) for r in results],
    }
    _dump(report, output)
    if not ok:
        failed = ", ".join(r.suite for r in results if not r.passed)
        click.echo(f"inconsistency: counterexample found by {failed}", err=True)
        sys.exit(2)


def _parse_grid(text: str, what: str):
    parts = text.split(":")
    if len(parts) != 3:
        _user_error(f"malformed {what} grid {text!r}: expected start:stop:step")
    try:
        start, stop, step = (parse_rat(p) for p in parts)
    except RatParseError as exc:
        _user_error(f"malformed {what} grid: {exc}")
    if step <= 0:
        _user_error(f"malformed {what} grid: step must be positive")
    if start <= 0:
        _user_error(f"malformed {what} grid: angles must be positive")
    count = (stop - start) // step + 1
    if count > MAX_POINTS:
        _user_error(f"{what} grid too large (over {MAX_POINTS} points)")
    return [start + i * step for i in range(count)]


@cli.command("scan")
@click.option("--n", "n", type=int, required=True, help="Ruled-surface twisting degree.")
@click.option("--m", "m", type=int, required=True, help="Number of blown-up points.")
@click.option("--beta1-grid", required=True, help="start:stop:step in rationals p/q.")
@click.option("--beta2-grid", required=True, help="start:stop:step in rationals p/q.")
@click.option("--approx", is_flag=True, help="Add lossy decimal columns.")
@click.option("--output", "-o", default=None, help="Write the CSV to this file.")
def cmd_scan(n, m, beta1_grid, beta2_grid, approx, output):
    """Verdicts over a rational angle grid, as CSV (beta1 outer loop)."""
    model = _parse_surface(n, m)
    grid1 = _parse_grid(beta1_grid, "beta1")
    grid2 = _parse_grid(beta2_grid, "beta2")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = ["beta1", "beta2", "condition_sign", "delta", "status"]
    if approx:
        header += ["beta1_approx", "beta2_approx", "delta_approx"]
    writer.writerow(header)
    for b1 in grid1:
        for b2 in grid2:
            verdict = k_polystable(model, Angles(b1, b2))
            delta_cell = "" if verdict.delta is None else format_rat(verdict.delta)
            row = [
                format_rat(b1),
                format_rat(b2),
                str(verdict.condition_sign),
                delta_cell,
                verdict.status,
            ]
            if approx:
                row += [
                    repr(float(b1)),
                    repr(float(b2)),
                    "" if verdict.delta is None else repr(float(verdict.delta)),
                ]
            writer.writerow(row)
    _emit(buffer.getvalue(), output)


def main(argv=None):
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        raise SystemExit(exc.exit_code)
    except click.Abort:
        raise SystemExit(1)
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        raise SystemExit(1)
    except InconsistencyError as exc:
        click.echo(f"inconsistency: {exc}", err=True)
        raise SystemExit(2)
    raise SystemExit(0)


if __name__ == "__main__":
    main()
