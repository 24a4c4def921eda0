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
can raise; the CLI maps it to exit code 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .closedforms import closed_form_S, closed_form_volume_curve
from .picard import C1TILDE, C2TILDE, Ei, FiTilde, as_model
from .ratmath import format_rat
from .sampling import (
    LEMMA_CASES,
    sample_angles,
    sample_case_input,
    sample_divisor_class,
    sample_surface,
)
from .tvariety import anticanonical_support_function, delta_tvariety, legendre_dual, vol_psi
from .volumes import expected_vanishing_order, log_discrepancy, volume_curve
from .zariski import NotPseudoeffective, zariski_decompose, zariski_decompose_bruteforce


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    samples: int
    checks: int
    passed: bool
    counterexample: dict | None

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "checks": self.checks,
            "passed": self.passed,
            "counterexample": self.counterexample,
        }


def _context(params, angles, **extra) -> dict:
    ctx = {
        "n": params.n,
        "m": params.m,
        "beta1": format_rat(angles.beta1),
        "beta2": format_rat(angles.beta2),
    }
    ctx.update(extra)
    return ctx


def verify_lemmas(samples: int, seed: int) -> SuiteResult:
    """Sweep vs closed forms, ``samples`` draws per case family."""
    rng = random.Random(seed)
    checks = 0
    for case in LEMMA_CASES:
        for _ in range(samples):
            params, angles, index = sample_case_input(rng, case)
            if case == "C1tilde":
                curve = C1TILDE
            elif case == "C2tilde":
                curve = C2TILDE
            else:
                curve = Ei(index)
            expected = closed_form_volume_curve(curve, params, angles)
            got = volume_curve(curve, params, angles)
            checks += 1
            if expected is None or got.pieces != expected.pieces:
                return SuiteResult(
                    "lemmas",
                    samples,
                    checks,
                    False,
                    _context(params, angles, case=case, curve=curve.label,
                             detail="volume curve differs from closed form"),
                )
            s_closed = closed_form_S(curve, params, angles)
            s_swept = got.expected_vanishing_order()
            checks += 1
            if s_closed != s_swept:
                return SuiteResult(
                    "lemmas",
                    samples,
                    checks,
                    False,
                    _context(params, angles, case=case, curve=curve.label,
                             detail=f"S mismatch: closed {format_rat(s_closed)}"
                                    f" vs swept {format_rat(s_swept)}"),
                )
    return SuiteResult("lemmas", samples, checks, True, None)


def verify_zariski_oracle(samples: int, seed: int) -> SuiteResult:
    """Incremental vs brute-force decomposition on random classes (m <= 4)."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(samples):
        model = as_model(sample_surface(rng, n_max=4, m_max=4))
        d = sample_divisor_class(rng, model)
        try:
            fast = zariski_decompose(model, d)
        except NotPseudoeffective:
            fast = None
        try:
            slow = zariski_decompose_bruteforce(model, d)
        except NotPseudoeffective:
            slow = None
        checks += 1
        if fast != slow:
            return SuiteResult(
                "zariski-oracle",
                samples,
                checks,
                False,
                {"n": model.n, "m": model.m, "class": repr(d),
                 "detail": f"incremental {fast!r} vs brute-force {slow!r}"},
            )
    return SuiteResult("zariski-oracle", samples, checks, True, None)


def verify_route_agreement(samples: int, seed: int) -> SuiteResult:
    """Torus-side A and S per curve against the sweep side."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(samples):
        params = sample_surface(rng, n_max=4, m_max=4)
        angles = sample_angles(rng, params)
        report = delta_tvariety(params, angles)
        curves = [C1TILDE, C2TILDE]
        curves += [Ei(i) for i in range(1, params.m + 1)]
        curves += [FiTilde(i) for i in range(1, params.m + 1)]
        for curve in curves:
            term = report.term(curve.label)
            a = log_discrepancy(curve, params, angles)
            s = expected_vanishing_order(curve, params, angles)
            checks += 1
            if term.A != a or term.S != s:
                return SuiteResult(
                    "route-agreement",
                    samples,
                    checks,
                    False,
                    _context(params, angles, curve=curve.label,
                             detail=f"torus (A,S)=({format_rat(term.A)},{format_rat(term.S)})"
                                    f" vs sweep ({format_rat(a)},{format_rat(s)})"),
                )
    return SuiteResult("route-agreement", samples, checks, True, None)


def verify_halving(samples: int, seed: int) -> SuiteResult:
    """vol(Psi) = (1/2) (-K)^2 on random ample samples."""
    rng = random.Random(seed)
    checks = 0
    for _ in range(samples):
        params = sample_surface(rng)
        angles = sample_angles(rng, params)
        model = as_model(params)
        anticanonical_sq = model.self_intersection(model.log_anticanonical(angles))
        dual = legendre_dual(anticanonical_support_function(params, angles))
        checks += 1
        if 2 * vol_psi(dual) != anticanonical_sq:
            return SuiteResult(
                "halving",
                samples,
                checks,
                False,
                _context(params, angles,
                         detail=f"2 vol(Psi) = {format_rat(2 * vol_psi(dual))}"
                                f" vs (-K)^2 = {format_rat(anticanonical_sq)}"),
            )
    return SuiteResult("halving", samples, checks, True, None)


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
