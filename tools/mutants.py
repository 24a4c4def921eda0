"""Apply hand mutants to a copy of the repository and run tier-1 on each.

Each mutant replaces one exact text in one module of ``src/kedge``.  The
text must occur exactly once, so a refactor that moves or rewrites it makes
the tool fail loudly before anything runs, instead of passing quietly;
``tests/test_tools.py`` checks the same in tier-1.  Each mutant is applied
alone to a fresh copy in a temporary directory, tier-1 (less that check)
runs there with ``-x``, and the mutant is caught when a test fails.  The
tool prints caught or survived, with the first failing test, and exits 1
when any mutant survives.  A surviving mutant costs a full tier-1 run.

Usage: python tools/mutants.py [NAME ...]   (no name: every mutant)
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module under src/kedge, exact old text, new text)
MUTANTS = (
    ("fiber-p0-s-plus-one", "tvariety.py",
     "d.cross(d.PSI_P0) + 2 * n * FM + 4 * L * VOL)",
     "d.cross(d.PSI_P0) + 2 * n * FM + 6 * L * VOL)"),
    ("zariski-orthogonality-off", "zariski.py",
     "if model.intersect(p, model.class_of(curve)) != 0:",
     "if False:"),
    ("curve-square-off", "volumes.py",
     "if q0.numerator * square.denominator != square.numerator * q0.denominator:",
     "if False:"),
    ("support-function-off", "tvariety.py",
     "if _encoded_class(model, frame) != model.log_anticanonical(frame):",
     "if False:"),
    ("ample-bound-strict", "picard.py",
     "if self.n > 0 and self.n * p1 >= 2 * L:",
     "if self.n > 0 and self.n * p1 > 2 * L:"),
    ("ample-bound2-strict", "picard.py",
     "if self.n < self.m and (self.m - self.n) * p2 >= 2 * L:",
     "if self.n < self.m and (self.m - self.n) * p2 > 2 * L:"),
    ("ray-term-off", "verdict.py",
     '_check(two_vol * orbit.a == orbit.s,\n               "ray term',
     '_check(True,\n               "ray term'),
    ("toric-term-off", "verdict.py",
     '_check(two_vol * orbit.a == orbit.s, "toric case',
     '_check(True, "toric case'),
    ("m2-e-orbit-only", "verdict.py",
     "for orbit in verticals[:2]:",
     "for orbit in verticals[:1]:"),
    ("m3-ratio-at-least-one", "verdict.py",
     '_check(two_vol * orbit.a > orbit.s, "m>=3',
     '_check(two_vol * orbit.a >= orbit.s, "m>=3'),
    ("delta-bound-off", "verdict.py",
     '_check(twice_vol_a <= s_min, "delta = {} > 1',
     '_check(True, "delta = {} > 1'),
    ("off-locus-delta-off", "verdict.py",
     '_check(twice_vol_a < s_min, "delta must be < 1 off',
     '_check(True, "delta must be < 1 off'),
    ("m1-delta-off", "verdict.py",
     '_check(twice_vol_a < s_min, "m=1 exclusion',
     '_check(True, "m=1 exclusion'),
    ("curve-square-numerators-only", "volumes.py",
     "if q0.numerator * square.denominator != square.numerator * q0.denominator:",
     "if q0.numerator != square.numerator:"),
    ("reconstruction-off", "zariski.py",
     "if p + zd.negative_class(model) != d:",
     "if False and p + zd.negative_class(model) != d:"),
    # The sweep's one path and the curve certificate's slope at x = 0.
    ("d1-fiber-term-halved", "volumes.py",
     "- 4 * L * e.num[0]",
     "- 2 * L * e.num[0]"),
    ("curve-slope-off", "volumes.py",
     "if q1.numerator * k_e.denominator != -2 * k_e.numerator * q1.denominator:",
     "if False:"),
    # One per InconsistencyError, DecompositionError or IrrationalThreshold
    # raise (or ``_check`` call) that the mutants above leave uncovered.
    ("root-constant-off", "volumes.py",
     "if c1 == 0:",
     "if False:"),
    ("root-not-beyond-off", "volumes.py",
     "if num * v <= u * den:",
     "if False:"),
    ("root-no-real-off", "volumes.py",
     "if disc < 0:",
     "if False:"),
    ("irrational-threshold-off", "volumes.py",
     "if r is None:",
     "if False:"),
    ("no-root-beyond-off", "volumes.py",
     'raise DecompositionError(f"no volume root beyond {x0} ({context})")',
     "return x0"),
    ("jet-growth-failure-raw", "volumes.py",
     "except NotPseudoeffective as exc:",
     "except ZeroDivisionError as exc:"),
    ("falling-coefficient-off", "volumes.py",
     "if any(a < 0 for a in a1):",
     "if False:"),
    ("curve-start-off", "volumes.py",
     "if not pieces or pieces[0].x_lo != 0:",
     "if not pieces:"),
    ("curve-vanishing-off", "volumes.py",
     "if w_tau != 0:",
     "if False:"),
    ("curve-partition-off", "volumes.py",
     "if left.x_hi != right.x_lo:",
     "if False:"),
    ("curve-continuity-off", "volumes.py",
     "if w * d_next != w_next * d:",
     "if False:"),
    ("curve-support-growth-off", "volumes.py",
     "if not set(left.negative_support) < set(right.negative_support):",
     "if False:"),
    ("curve-monotone-off", "volumes.py",
     "if any(t > 0 for lo, hi in ends for t in (lo[2], hi[2])):",
     "if False:"),
    ("torus-vol-positive-off", "tvariety.py",
     "if VOL <= 0:",
     "if False:"),
    ("torus-s-positive-off", "tvariety.py",
     "if orbit.s <= 0:",
     "if False:"),
    ("condition-delta-one-off", "verdict.py",
     '_check(two_vol * report.a_min == report.s_min,\n           "condition point',
     '_check(True,\n           "condition point'),
    ("m2-term-off", "verdict.py",
     '_check(two_vol * orbit.a == orbit.s, "m=2: curve term',
     '_check(True, "m=2: curve term'),
    ("futaki-sign-off", "verdict.py",
     "_check(report.futaki_sign == csign,",
     "_check(True,"),
    ("condition-point-self-check-off", "verdict.py",
     "if condition_sign(model, angles) != 0:",
     "if False:"),
    ("zariski-nef-off", "zariski.py",
     'if not model.is_nef(p):\n        raise DecompositionError',
     'if False:\n        raise DecompositionError'),
    ("zariski-coefficient-sign-off", "zariski.py",
     "if coeff <= 0:",
     "if False:"),
    ("zariski-definite-off", "zariski.py",
     "if not is_negative_definite(model, zd.support):",
     "if False and not is_negative_definite(model, zd.support):"),
    ("bruteforce-two-decompositions-off", "zariski.py",
     "if found is not None and (found.positive != zd.positive",
     "if False and (found.positive != zd.positive"),
    # The divisor class's one constructor: a positive denominator, and the
    # lowest terms that equality compares.
    ("divisor-den-check-off", "picard.py",
     "if den <= 0:",
     "if False:"),
    ("divisor-lowest-terms-off", "picard.py",
     "if g != 1:",
     "if False:"),
    # The angles' integer form (L, P1, P2), formed once per angle pair.
    ("angles-p2-scale-wrong", "picard.py",
     "b2.numerator * (L // q2)",
     "b2.numerator * (L // q1)"),
    ("angles-positivity-off", "picard.py",
     "if p1 <= 0 or p2 <= 0:",
     "if False:"),
    # A curve is its name: the refusals of a name that is no curve of the
    # surface.
    ("class-of-index-bound-off", "picard.py",
     "if not index_at_most(e or f, m):",
     "if False:"),
    ("cli-curve-existence-off", "cli.py",
     "model.class_of(curve)\n    except ValueError:",
     "pass\n    except ValueError:"),
    ("log-discrepancy-refusal-off", "volumes.py",
     "    model.class_of(E)\n    return Rat(1)",
     "    return Rat(1)"),
    # Inputs of the wrong type: a bool surface parameter, a float slope.
    ("surface-model-bool-accepted", "picard.py",
     "if type(self.n) is not int or type(self.m) is not int:",
     "if not (isinstance(self.n, int) and isinstance(self.m, int)):"),
    # The one reader of a caller's rational: a float read through Rat, a
    # bool read as an int.
    ("condition-point-float-accepted", "ratmath.py",
     "if isinstance(value, float):\n        raise",
     "if isinstance(value, float):\n        return Rat(value)\n        raise"),
    ("reader-bool-accepted", "ratmath.py",
     "if type(value) is int:",
     "if isinstance(value, int):"),
    # The closed-form oracle: each classification boundary, one coefficient
    # of S(F~i) and the k of the C~1 + C~2 chamber.
    ("classify-n0-tie-strict", "closedforms.py",
     "CASE_N_ZERO if p1 + m * p2 <= 2 * L else None",
     "CASE_N_ZERO if p1 + m * p2 < 2 * L else None"),
    ("classify-c1-first-tie-strict", "closedforms.py",
     "if (n - 1) * p1 >= (m - n) * p2:",
     "if (n - 1) * p1 > (m - n) * p2:"),
    ("classify-c2-first-tie-strict", "closedforms.py",
     "CASE_C2_FIRST if p1 + (m - n) * p2 <= 2 * L else None",
     "CASE_C2_FIRST if p1 + (m - n) * p2 < 2 * L else None"),
    ("closed-s-fi-cubic-coefficient", "closedforms.py",
     "+ (n - m + 2) * (n - m) * p2**3",
     "+ (n - m + 1) * (n - m) * p2**3"),
    ("closed-c1-c2-k", "closedforms.py",
     "_square(m - 1, (m - n) * (n - 1), 2 * L, L)",
     "_square(m, (m - n) * (n - 1), 2 * L, L)"),
    # The --config size bound.
    ("config-size-bound-off", "cli.py",
     "if len(text) > MAX_CONFIG_CHARS:",
     "if False:"),
    # The verify battery's inputs and its oracle's family: randint's
    # rejection bound, and a walk that skips the next candidate.
    ("sampler-reject-bound", "sampling.py",
     "while r >= w:",
     "while r > w:"),
    ("oracle-family-start", "zariski.py",
     "yield from extend(subset + (c,), grown, c + 1)",
     "yield from extend(subset + (c,), grown, c + 2)"),
    # S from the volume curve's pieces, and an angle string read by the
    # CLI's literal grammar and bounds.
    ("s-integral-linear-term", "volumes.py",
     "+ 3 * n1 * d0 * d2 * B * (X + Y)",
     "+ 2 * n1 * d0 * d2 * B * (X + Y)"),
    ("angles-string-through-rat", "ratmath.py",
     "return parse_rat(value, accept_decimal=True)",
     "return Rat(value)"),
    ("orbit-term-a-halved", "tvariety.py",
     "ValuationTerm(Rat(orbit.a, L),",
     "ValuationTerm(Rat(orbit.a, 2 * L),"),
)

IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__")
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+)$", re.MULTILINE)


def check_table(mutants) -> list[str]:
    """One message per mutant whose old text does not occur exactly once."""
    problems = []
    for name, module, old, _ in mutants:
        count = (ROOT / "src" / "kedge" / module).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {module}: {old!r}")
    return problems


def run_mutant(module: str, old: str, new: str) -> str | None:
    """The first failing test of tier-1 on a mutated copy, with pytest's
    one-line reason, or None.  ``tests/test_tools.py`` is left out: it
    checks this table's anchors, which the mutant itself rewrites."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        path = copy / "src" / "kedge" / module
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_tools.py", "tests"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if result.returncode == 0:
        return None
    failed = FAILED.search(result.stdout)
    return failed[1] if failed else f"pytest exit {result.returncode}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    problems = check_table(chosen) + [f"unknown mutant {name!r}" for name in sorted(unknown)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    survived = 0
    for name, module, old, new in chosen:
        failing = run_mutant(module, old, new)
        survived += failing is None
        status = "survived" if failing is None else f"caught    {failing[:160]}"
        print(f"{name:<30} {status}", flush=True)
    print(f"{len(chosen) - survived} caught, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
