"""Cross-checking suites: every computed quantity against an independent route.

Four suites, each seed-deterministic:

- ``lemmas``: the piecewise-quadratic volume curve from the Zariski sweep
  against the closed-form chamber data, piece by piece, plus the integrated
  S-values, for all six case families.
- ``zariski-oracle``: the incremental decomposition against brute-force
  enumeration of every negative-definite candidate support (identical
  positive and negative parts, or a consistent not-pseudoeffective report).
- ``route-agreement``: A and S per curve from the torus side against the
  sweep side, for both sections, every exceptional curve and every fiber
  proper transform.
- ``halving``: the moment-interval volume equals half the anticanonical
  self-intersection.

A failing check is an internal inconsistency, the loudest alarm the package
can raise; the CLI maps it to exit code 2.  So is an InconsistencyError
raised inside a sample: the suite records it as its counterexample, with
the sample's input, and the other suites still run.
"""

from __future__ import annotations

import functools
import random
from typing import NamedTuple

from .closedforms import closed_form_S, closed_form_volume_curve
from .picard import InconsistencyError, point_header
from .ratmath import Rat, format_rat
from .sampling import (
    LEMMA_CASES,
    sample_angles,
    sample_case_input,
    sample_divisor_class,
    sample_surface,
)
from .tvariety import delta_tvariety, legendre_dual
from .volumes import expected_vanishing_order, log_discrepancy, volume_curve
from .zariski import NotPseudoeffective, zariski_decompose, zariski_decompose_bruteforce


class SuiteResult(NamedTuple):
    suite: str
    samples: int
    checks: int
    passed: bool
    counterexample: dict | None


def _suite(name: str):
    """Turn a generator of checks into a suite returning one SuiteResult.

    The generator yields, in turn, the context dict of the sample it is
    about to check and the outcome of each check: None when it passed, the
    failure detail when it did not.  The first failure is the suite's
    counterexample, the context plus ``detail``, and ends the suite.  An
    InconsistencyError raised while checking a sample is one too, with
    ``"<ExceptionName>: <message>"`` as the detail, so it is reported
    instead of aborting the other suites.
    """

    def decorate(steps):
        @functools.wraps(steps)
        def suite(samples: int, seed: int) -> SuiteResult:
            checks, context = 0, {}
            try:
                for step in steps(samples, seed):
                    if isinstance(step, dict):
                        context = step
                        continue
                    checks += 1
                    if step is not None:
                        return SuiteResult(name, samples, checks, False,
                                           {**context, "detail": step})
            except InconsistencyError as exc:
                detail = f"{type(exc).__name__}: {exc}"
                return SuiteResult(name, samples, checks + 1, False, {**context, "detail": detail})
            return SuiteResult(name, samples, checks, True, None)

        return suite

    return decorate


@_suite("lemmas")
def verify_lemmas(samples: int, seed: int):
    """Sweep vs closed forms, ``samples`` draws per case family, each on the
    curve drawn with it: the section a section case names, E1 otherwise."""
    rng = random.Random(seed)
    for case in LEMMA_CASES:
        for _ in range(samples):
            model, angles, curve = sample_case_input(rng, case)
            yield point_header(model, angles, case=case, curve=curve)
            expected = closed_form_volume_curve(curve, model, angles)
            got = volume_curve(curve, model, angles)
            yield None if got == expected else "volume curve differs from closed form"
            s_closed = closed_form_S(curve, model, angles)
            s_swept = expected_vanishing_order(got)
            yield None if s_closed == s_swept else (
                f"S mismatch: closed {format_rat(s_closed)} vs swept {format_rat(s_swept)}")


@_suite("zariski-oracle")
def verify_zariski_oracle(samples: int, seed: int):
    """Incremental vs brute-force decomposition on random classes (m <= 4)."""
    rng = random.Random(seed)
    for _ in range(samples):
        model = sample_surface(rng, n_max=4, m_max=4)
        d = sample_divisor_class(rng, model)
        yield {"n": model.n, "m": model.m, "class": repr(d)}
        try:
            fast = zariski_decompose(model, d)
        except NotPseudoeffective:
            fast = None
        try:
            slow = zariski_decompose_bruteforce(model, d)
        except NotPseudoeffective:
            slow = None
        yield None if fast == slow else f"incremental {fast!r} vs brute-force {slow!r}"


@_suite("route-agreement")
def verify_route_agreement(samples: int, seed: int):
    """Torus-side A and S per curve against the sweep side."""
    rng = random.Random(seed)
    for _ in range(samples):
        model = sample_surface(rng, n_max=4, m_max=4)
        angles = sample_angles(rng, model)
        yield point_header(model, angles)
        report = delta_tvariety(model, angles)
        for curve in model.candidates:
            yield point_header(model, angles, curve=curve)
            term = report.term(curve)
            a = log_discrepancy(curve, model, angles)
            s = expected_vanishing_order(volume_curve(curve, model, angles))
            yield None if (term.A, term.S) == (a, s) else (
                f"torus (A,S)=({format_rat(term.A)},{format_rat(term.S)})"
                f" vs sweep ({format_rat(a)},{format_rat(s)})")


@_suite("halving")
def verify_halving(samples: int, seed: int):
    """vol(Psi) = (1/2) (-K)^2 on random ample samples."""
    rng = random.Random(seed)
    for _ in range(samples):
        model = sample_surface(rng)
        angles = sample_angles(rng, model)
        yield point_header(model, angles)
        k = model.log_anticanonical(angles)
        anticanonical_sq = model.intersect(k, k)
        L, _, _, _, _, VOL, _, _ = legendre_dual(model, angles)
        twice_vol = Rat(VOL, 3 * L**2)  # VOL = 6 L^2 vol
        yield None if twice_vol == anticanonical_sq else (
            f"2 vol(Psi) = {format_rat(twice_vol)}"
            f" vs (-K)^2 = {format_rat(anticanonical_sq)}")


SUITES = {
    "lemmas": verify_lemmas,
    "zariski-oracle": verify_zariski_oracle,
    "route-agreement": verify_route_agreement,
    "halving": verify_halving,
}


def run_suites(names, samples: int, seed: int) -> list[SuiteResult]:
    """Run the named suites in the fixed registry order."""
    wanted = set(names)
    unknown = wanted - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    return [fn(samples, seed) for name, fn in SUITES.items() if name in wanted]
