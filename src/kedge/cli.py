"""Command-line surface: single evaluations, verification suites, scans.

Exit-code contract: 0 success, 1 user/input error, 2 mathematical
inconsistency (a cross-route disagreement or a failed certificate — the
loudest alarm; ``main`` maps every ``InconsistencyError`` to it) or an
internal fault (any other exception, one ``internal error:`` line).  All
rationals are read and written as exact ``"p/q"`` strings; ``--approx``
adds decimal fields (suffixed ``_approx``) that are lossy and for human
reading only.  Reports are JSON (schemas ship under ``kedge/schemas/``)
except for ``scan``, which emits CSV.  Identical flags + seed produce
byte-identical output.

Each subcommand declares its options in one table, built at import; a small
loop matches ``argv`` against it with click's syntax and click's messages.
``volume-curve`` and ``verify`` import the modules only they run when they
run, so that ``delta`` and ``scan`` load the torus route alone.
"""

from __future__ import annotations

import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Callable, NamedTuple

from .picard import Angles, InconsistencyError, SurfaceModel, parse_curve_id, point_header
from .ratmath import Rat, RatParseError, format_rat, parse_rat
from .verdict import decide, k_polystable

# Largest accepted m: the lattice has rank m + 2, and the candidate set,
# every pairing vector and the sweep's solves grow with m.
MAX_M = 200
# Largest accepted --samples, and points per scan grid axis.
MAX_POINTS = 10_000
# Most points in one scan grid: every row is buffered before it is written.
MAX_SCAN_POINTS = 1_000_000
# Most characters read from a --config file.
MAX_CONFIG_CHARS = 1_000_000
# The names of ``verify.SUITES``, sorted, spelled here so that building the
# option table does not import the suites.
SUITE_NAMES = ("halving", "lemmas", "route-agreement", "zariski-oracle")


def _user_error(message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(1)


def _emit(text: str, output: str | None):
    """Write to stdout, or to --output (under $KEDGE_OUTPUT_DIR if relative)."""
    if output is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    path = Path(output)
    base = os.environ.get("KEDGE_OUTPUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:
        _user_error(f"cannot write output file: {exc}")


def _json(value, indent: str, out: list):
    """Append the text of ``json.dumps(value, indent=2)`` to ``out``, for the
    values a report holds: dicts with str keys, lists and tuples, str, int,
    float, bool and None.  Nested lines start with ``indent`` plus two
    spaces per level."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if math.isfinite(value) else json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out += (sep, _encode_str(key), ": ")
            _json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump(report: dict, output: str | None):
    """Write ``json.dumps(report, indent=2)`` and a newline, byte for byte,
    without the standard library's pure-Python indenting encoder."""
    out: list = []
    _json(report, "", out)
    out.append("\n")
    _emit("".join(out), output)


def _read(read, *args):
    """``read(*args)``, a reader of the caller's input: its ValueError is
    the caller's error (exit 1), and any other exception propagates."""
    try:
        return read(*args)
    except ValueError as exc:
        _user_error(str(exc))


def _parse_angles(beta1: str, beta2: str, accept_decimal: bool) -> Angles:
    return _read(Angles, _read(parse_rat, beta1, accept_decimal),
                 _read(parse_rat, beta2, accept_decimal))


def _parse_surface(n: int, m: int) -> SurfaceModel:
    if m > MAX_M:
        _user_error(f"m must be at most {MAX_M}, got {m}")
    return _read(SurfaceModel, n, m)


def _ensure_ample(model: SurfaceModel, angles: Angles):
    violation = model.ample_range_violation(angles)
    if violation is not None:
        _user_error(f"outside the ample range: {violation}")


def cmd_delta(n, m, beta1, beta2, approx, accept_decimal, output):
    """Stability threshold, witnesses and verdict at one angle pair."""
    model = _parse_surface(n, m)
    angles = _parse_angles(beta1, beta2, accept_decimal)
    _ensure_ample(model, angles)
    verdict = k_polystable(model, angles)
    report = point_header(model, angles, delta=format_rat(verdict.delta))
    if approx:
        report["delta_approx"] = float(verdict.delta)
    report.update(
        {
            "witness": verdict.witness,
            "witnesses": list(verdict.witnesses),
            "condition_sign": verdict.condition_sign,
            "futaki_zero": verdict.report.FM == 0,
            "status": verdict.status,
            "notes": list(verdict.notes),
            "per_divisor": {},
        }
    )
    # One entry per S_m orbit, formatted once and listed under each name.
    for orbit in verdict.report.orbits:
        ratio = orbit.ratio
        entry = {"A": format_rat(orbit.A), "S": format_rat(orbit.S), "ratio": format_rat(ratio)}
        if approx:
            entry["ratio_approx"] = float(ratio)
        for name in orbit.names():
            report["per_divisor"][name] = entry
    _dump(report, output)


def cmd_volume_curve(n, m, curve, beta1, beta2, approx, accept_decimal, output):
    """Piecewise-quadratic volume curve x -> vol(-K - x C) for one curve."""
    from .volumes import expected_vanishing_order, log_discrepancy, volume_curve

    model = _parse_surface(n, m)
    angles = _parse_angles(beta1, beta2, accept_decimal)
    curve = _read(parse_curve_id, curve)
    try:
        model.class_of(curve)
    except ValueError:
        _user_error(f"curve {curve} does not exist on a surface with m={m}")
    _ensure_ample(model, angles)
    a_value = _read(log_discrepancy, curve, model, angles)  # PullbackC2 at m > 0 is refused
    pieces = volume_curve(curve, model, angles)
    s_value = expected_vanishing_order(pieces)
    tau = pieces[-1].x_hi
    report = point_header(model, angles, curve=curve, tau=format_rat(tau),
                          A=format_rat(a_value), S=format_rat(s_value))
    if approx:
        report["tau_approx"] = float(tau)
        report["S_approx"] = float(s_value)
    report["pieces"] = [
        {
            "x_lo": format_rat(piece.x_lo),
            "x_hi": format_rat(piece.x_hi),
            "q0": format_rat(piece.q0),
            "q1": format_rat(piece.q1),
            "q2": format_rat(piece.q2),
            "negative_support": list(piece.negative_support),
        }
        for piece in pieces
    ]
    _dump(report, output)


def cmd_verify(suite, samples, seed, output):
    """Run oracle suites; any failure is an inconsistency (exit 2)."""
    from .verify import run_suites

    if not 0 < samples <= MAX_POINTS:
        _user_error(f"--samples must lie in 1..{MAX_POINTS}, got {samples}")
    names = SUITE_NAMES if suite == "all" else [suite]
    results = run_suites(names, samples, seed)
    ok = all(r.passed for r in results)
    report = {
        "samples": samples,
        "seed": seed,
        "ok": ok,
        "suites": [r._asdict() for r in results],
    }
    _dump(report, output)
    if not ok:
        failed = ", ".join(r.suite for r in results if not r.passed)
        raise InconsistencyError(f"counterexample found by {failed}")


def _parse_grid(text: str, what: str):
    """The values start, start + step, ... up to stop of ``start:stop:step``,
    on the integers: over D = lcm(den(start), den(step)), start = s / D and
    step = t / D, so the count is floor((stop D - s) / t) + 1, checked
    before any value is formed, and each value is the one Rat (s + i t) / D."""
    parts = text.split(":")
    if len(parts) != 3:
        _user_error(f"malformed {what} grid {text!r}: expected start:stop:step")
    try:
        start, stop, step = (parse_rat(p) for p in parts)
    except RatParseError as exc:
        _user_error(f"malformed {what} grid: {exc}")
    if step.numerator <= 0:
        _user_error(f"malformed {what} grid: step must be positive")
    if start.numerator <= 0:
        _user_error(f"malformed {what} grid: angles must be positive")
    D = math.lcm(start.denominator, step.denominator)
    s = start.numerator * (D // start.denominator)
    t = step.numerator * (D // step.denominator)
    q = stop.denominator  # stop D - s = (p D - s q) / q for stop = p / q
    count = (stop.numerator * D - s * q) // (t * q) + 1
    if count > MAX_POINTS:
        _user_error(f"{what} grid too large (over {MAX_POINTS} points)")
    return [Rat(s + i * t, D) for i in range(count)]


def cmd_scan(n, m, beta1_grid, beta2_grid, approx, output):
    """Verdicts over a rational angle grid, as CSV (beta1 outer loop)."""
    model = _parse_surface(n, m)
    grid1 = _parse_grid(beta1_grid, "beta1")
    grid2 = _parse_grid(beta2_grid, "beta2")
    if len(grid1) * len(grid2) > MAX_SCAN_POINTS:
        _user_error(f"scan grid too large (over {MAX_SCAN_POINTS} points)")
    # No cell holds a comma, a quote, CR or LF: each is a ``format_rat``
    # text, an int, a status constant, empty, or the repr of a finite float.
    # So a row is its cells joined by commas, as ``csv.writer`` writes it.
    header = ["beta1", "beta2", "condition_sign", "delta", "status"]
    if approx:
        header += ["beta1_approx", "beta2_approx", "delta_approx"]
    lines = [",".join(header)]
    # Each grid value as its numerator and denominator with its cells,
    # formatted once per axis: the exact text, and the float under --approx.
    cells1, cells2 = (
        [(b.numerator, b.denominator, format_rat(b), repr(float(b)) if approx else "")
         for b in grid]
        for grid in (grid1, grid2)
    )
    # Each point is decided on the angles' integer form (L, P1, P2), formed
    # as ``Angles.scaled`` forms it, and delta = a_min / s_min is written
    # in lowest terms; Fraction.__float__ is the same division.
    for p1, q1, exact1, approx1 in cells1:
        for p2, q2, exact2, approx2 in cells2:
            L = math.lcm(q1, q2)
            status, csign, _, minimum = decide(model, L, p1 * (L // q1), p2 * (L // q2))
            if minimum is None:
                delta = delta_approx = ""
            else:
                a_min, s_min, _, _, _, _ = minimum
                g = math.gcd(a_min, s_min)
                num, den = a_min // g, s_min // g
                delta = f"{num}/{den}"
                delta_approx = repr(num / den) if approx else ""
            row = [exact1, exact2, str(csign), delta, status]
            if approx:
                row += [approx1, approx2, delta_approx]
            lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", output)


class Option(NamedTuple):
    """One command-line option: its spellings, the handler keyword it fills,
    its converter (``int``, ``str``, a tuple of choices, or ``bool`` for a
    flag that takes no value), whether it is required, its default and its
    help line."""

    flags: tuple[str, ...]
    dest: str
    convert: Callable | tuple[str, ...]
    required: bool = False
    default: object = None
    help: str = ""


HELP = Option(("--help",), "help", bool, default=False, help="Show this message and exit.")
SURFACE = (
    Option(("--n",), "n", int, True, help="Ruled-surface twisting degree."),
    Option(("--m",), "m", int, True, help="Number of blown-up points."),
    Option(("--beta1",), "beta1", str, True, help="First cone angle as p/q."),
    Option(("--beta2",), "beta2", str, True, help="Second cone angle as p/q."),
)
APPROX = Option(("--approx",), "approx", bool, default=False,
                help="Add lossy decimal fields or columns (suffixed _approx) for human reading.")
DECIMAL = Option(("--accept-decimal",), "accept_decimal", bool, default=False,
                 help="Allow decimal angle literals (converted exactly in base 10).")
OUTPUT = Option(("-o", "--output"), "output", str,
                help="Write the report (JSON, or scan's CSV) to this file.")
# click's spellings of a boolean, for flags set from a --config file.
BOOL_STATES = {"1": True, "0": False, "yes": True, "no": False, "true": True, "false": False,
               "on": True, "off": False, "t": True, "f": False, "y": True, "n": False, "": False}


def _command(run, *options):
    """A subcommand's table, or the group's (handler None): its handler, its
    options in declaration order, and the option of each spelling, ``--help``
    included."""
    return run, options, {flag: option for option in (*options, HELP) for flag in option.flags}


GROUP = _command(None, Option(("--config",), "config", str,
                              help="Key-value file supplying default option values."))
COMMANDS = {
    "delta": _command(cmd_delta, *SURFACE, APPROX, DECIMAL, OUTPUT),
    "volume-curve": _command(
        cmd_volume_curve, *SURFACE,
        Option(("--curve",), "curve", str, True, help="Curve label, e.g. C1tilde, E1, F2tilde."),
        APPROX, DECIMAL, OUTPUT,
    ),
    "verify": _command(
        cmd_verify,
        Option(("--suite",), "suite", (*SUITE_NAMES, "all"), default="all",
               help="Which cross-checking suite to run."),
        Option(("--samples",), "samples", int, default=50, help="Inputs drawn per suite."),
        Option(("--seed",), "seed", int, default=0, help="Seed of the drawn inputs."),
        OUTPUT,
    ),
    "scan": _command(
        cmd_scan, *SURFACE[:2],
        Option(("--beta1-grid",), "beta1_grid", str, True,
               help="start:stop:step in rationals p/q."),
        Option(("--beta2-grid",), "beta2_grid", str, True,
               help="start:stop:step in rationals p/q."),
        APPROX, OUTPUT,
    ),
}


def _did_you_mean(word: str, names) -> str:
    from difflib import get_close_matches  # imported here: only usage errors need it

    matches = sorted(get_close_matches(word, names))
    quoted = ", ".join(map(repr, matches))
    if len(matches) > 1:
        return f" (Did you mean one of: {quoted}?)"
    return f" Did you mean {quoted}?" if matches else ""


def _parse(flags: dict[str, Option], argv: list[str], interspersed: bool):
    """Match ``argv`` against a table of spellings, as click's parser does.

    Returns each given option's text (``True`` for a flag) by dest, in the
    order first given, the last spelling winning, and the positional tokens:
    all of them, or, when not ``interspersed``, every token from the first
    positional on.  A value is the attached text (``--opt=value``,
    ``-ovalue``), else the next token, whatever it starts with.
    """
    given, positional = {}, []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":
            return given, positional + argv[i:]
        if token[:1] != "-" or len(token) == 1:
            if not interspersed:
                return given, argv[i - 1:]
            positional.append(token)
            continue
        if token[1] == "-":
            name, attached, value = token.partition("=")
        else:
            name, attached, value = token[:2], token[2:], token[2:]
        option = flags.get(name)
        if option is None:
            long_flags = [flag for flag in flags if flag[1] == "-"]
            hint = _did_you_mean(name, long_flags) if token[1] == "-" else ""
            _user_error(f"No such option {name!r}.{hint}")
        if option.convert is bool:
            if attached:
                _user_error(f"Option {name!r} does not take a value.")
            value = True
        elif not attached:
            if i == len(argv):
                _user_error(f"Option {name!r} requires an argument.")
            value = argv[i]
            i += 1
        given[option.dest] = value
    return given, positional


def _convert(option: Option, text: str):
    convert = option.convert
    if convert is bool:
        value = BOOL_STATES.get(text.strip().lower())
        if value is not None:
            return value
        problem = f"is not a valid boolean. Recognized values: {', '.join(sorted(BOOL_STATES))}"
    elif isinstance(convert, tuple):
        if text in convert:
            return text
        problem = f"is not one of {', '.join(map(repr, convert))}."
    else:
        try:
            return convert(text)
        except ValueError:
            problem = "is not a valid integer."
    _user_error(f"Invalid value for {_hint(option)}: {text!r} {problem}")


def _hint(option: Option) -> str:
    return " / ".join(f"'{flag}'" for flag in option.flags)


def _load_config(path: str) -> dict[str, str]:
    """--config file of ``key = value`` lines, used as defaults everywhere;
    a key that names no option of any subcommand is a user error."""
    if not path:
        return {}
    known = {option.dest for _, options, _ in COMMANDS.values() for option in options}
    defaults = {}
    try:
        with Path(path).open(encoding="utf-8") as handle:
            text = handle.read(MAX_CONFIG_CHARS + 1)
    except (OSError, ValueError) as exc:
        _user_error(f"cannot read config file: {exc}")
    if len(text) > MAX_CONFIG_CHARS:
        _user_error(f"config file too large (over {MAX_CONFIG_CHARS} characters)")
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, val = stripped.partition("=")
        if not eq:
            _user_error(f"config line {line_no}: expected 'key = value'")
        name = key.strip().replace("-", "_")
        if name not in known:
            _user_error(f"config line {line_no}: unknown option {key.strip()!r}")
        defaults[name] = val.strip()
    return defaults


def _help(usage: str, doc: str, options, commands=()):
    """Print the usage line, the description and one line per option and
    subcommand, then exit 0."""
    metavars = {int: " INTEGER", str: " TEXT", bool: ""}
    rows = []
    for option in (*options, HELP):
        convert = option.convert
        metavar = f" [{'|'.join(convert)}]" if isinstance(convert, tuple) else metavars[convert]
        note = ("  [required]" if option.required
                else "" if option.default is None or convert is bool
                else f"  [default: {option.default}]")
        rows.append((", ".join(option.flags) + metavar, option.help + note))
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"Usage: kedge {usage}", "", f"  {doc}", "", "Options:"]
    lines += [f"  {left:<{width}}{text}" for left, text in rows]
    if commands:
        width = max(map(len, commands)) + 2
        lines += ["", "Commands:"]
        lines += [f"  {name:<{width}}{run.__doc__.splitlines()[0]}"
                  for name, (run, _, _) in commands.items()]
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(0)


def _group_options(argv: list[str]):
    """The --config defaults, and the tokens from the subcommand's name on;
    --config and --help act in the order given."""
    _, options, flags = GROUP
    given, rest = _parse(flags, argv, interspersed=False)
    config = {}
    for dest in given:
        if dest == "help":
            _help("[OPTIONS] COMMAND [ARGS]...",
                  "Exact K-polystability computations for the blown-up ruled surfaces.",
                  options, COMMANDS)
        config = _load_config(given["config"])
    return config, rest


def _run(argv: list[str]):
    """Parse the group's options, then the subcommand's, and run it."""
    config, rest = _group_options(argv)
    if not rest:
        _user_error("Missing command.")
    name, *args = rest
    if name not in COMMANDS:
        # As click does, a name after "--" that looks like an option is read as one.
        _group_options(rest)
        _user_error(f"No such command {name!r}.{_did_you_mean(name, COMMANDS)}")
    run, options, flags = COMMANDS[name]
    given, extra = _parse(flags, args, interspersed=True)
    if "help" in given:
        _help(f"{name} [OPTIONS]", run.__doc__, options)
    # Options given on the command line convert first, in the order given.
    first = {dest: i for i, dest in enumerate(given)}
    values = {}
    for option in sorted(options, key=lambda o: first.get(o.dest, len(first))):
        text = given.get(option.dest, config.get(option.dest))
        if text is None:
            if option.required:
                _user_error(f"Missing option {_hint(option)}.")
            text = option.default
        elif text is not True:
            text = _convert(option, text)
        values[option.dest] = text
    if extra:
        plural = "s" if len(extra) > 1 else ""
        _user_error(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
    run(**values)


def main(argv=None):
    """Entry point with the documented exit-code contract."""
    try:
        _run(sys.argv[1:] if argv is None else list(argv))
    except InconsistencyError as exc:
        sys.stderr.write(f"inconsistency: {exc}\n")
        raise SystemExit(2)
    except Exception as exc:  # a fault of the program: no answer can be trusted
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        raise SystemExit(2)
    raise SystemExit(0)


if __name__ == "__main__":
    main()
