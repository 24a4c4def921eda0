"""Acceptance gate.

Nine headline guarantees, each printed as its own pass/fail line when the
suite runs (``pytest tests/test_acceptance.py -s`` shows them inline; they
are printed regardless via ``capsys.disabled``).  Every check is exact —
there is no tolerance anywhere, and a failure of any line means the
package must not be trusted.
"""

import random
import time

import pytest

from kedge.picard import Angles, SurfaceModel
from kedge.ratmath import sign
from kedge.sampling import sample_angles, sample_divisor_class, sample_surface
from kedge.verdict import (
    KPOLYSTABLE,
    NOT_KPOLYSTABLE,
    NotFound,
    condition_sign,
    k_polystable,
    rational_condition_point,
)
from kedge.verify import (
    verify_halving,
    verify_lemmas,
    verify_route_agreement,
    verify_zariski_oracle,
)
from kedge.zariski import (
    NotPseudoeffective,
    is_negative_definite,
    zariski_decompose,
    zariski_decompose_bruteforce,
)

from conftest import (add_multiple, futaki_vanishes, negative_class, negative_definite_families,
                      rat, small_surfaces)

SEED = 20260823
LEMMA_SAMPLES = 200
ROUTE_SAMPLES = 200
ORACLE_SAMPLES = 100
VERDICT_SAMPLES = 500
LEMMA_TIME_BUDGET = 60.0  # seconds


def announce(capsys, number, title, ok):
    with capsys.disabled():
        print(f"\nacceptance {number}/9 [{'PASS' if ok else 'FAIL'}] {title}")


@pytest.fixture(scope="module")
def chamber_suite_run():
    """One shared run: the chamber check and the S check use the same
    samples by construction (both quantities are compared per draw)."""
    start = time.perf_counter()
    result = verify_lemmas(samples=LEMMA_SAMPLES, seed=SEED)
    return result, time.perf_counter() - start


def test_criterion_1_chamber_regression(capsys, chamber_suite_run):
    result, elapsed = chamber_suite_run
    ok = (
        result.passed
        and result.checks >= 6 * LEMMA_SAMPLES
        and elapsed < LEMMA_TIME_BUDGET
    )
    announce(
        capsys, 1,
        f"volume-curve chambers: sweep vs closed forms, {LEMMA_SAMPLES}/case "
        f"({result.checks} checks, {elapsed:.1f}s)",
        ok,
    )
    assert result.passed, result.counterexample
    assert result.checks >= 6 * LEMMA_SAMPLES
    assert elapsed < LEMMA_TIME_BUDGET


def test_criterion_2_s_value_regression(capsys, chamber_suite_run):
    result, _ = chamber_suite_run
    ok = result.passed
    announce(
        capsys, 2,
        "integrated S-values: sweep vs closed forms on the same samples",
        ok,
    )
    assert ok, result.counterexample


def test_criterion_3_zariski_oracle(capsys):
    result = verify_zariski_oracle(samples=ORACLE_SAMPLES, seed=SEED)
    effective = 0
    failure = None
    rng = random.Random(SEED + 3)
    # Keep drawing until the brute-force oracle has confirmed the
    # incremental route on at least ORACLE_SAMPLES *effective* classes;
    # non-pseudoeffective draws must be rejected identically by both.
    draws = 0
    while effective < ORACLE_SAMPLES and draws < 10 * ORACLE_SAMPLES:
        draws += 1
        model = sample_surface(rng, n_max=4, m_max=4)
        d = sample_divisor_class(rng, model)
        try:
            zd = zariski_decompose(model, d)
        except NotPseudoeffective:
            zd = None
        try:
            oracle = zariski_decompose_bruteforce(model, d)
        except NotPseudoeffective:
            oracle = None
        if zd != oracle and failure is None:
            failure = (model, d, "routes disagree")
        if zd is None:
            continue
        p = zd.positive
        conditions = (
            model.is_nef(p)
            and all(coeff > 0 for _, coeff in zd.negative)
            and all(
                model.intersect(p, model.class_of(cid)) == 0 for cid in zd.support
            )
            and (not zd.support or is_negative_definite(model, zd.support))
            and add_multiple(p, 1, negative_class(model, zd)) == d
        )
        if conditions:
            effective += 1
        elif failure is None:
            failure = (model, d, "certificate failed")
    ok = result.passed and failure is None and effective >= ORACLE_SAMPLES
    announce(
        capsys, 3,
        f"decomposition vs brute-force oracle, certificates on "
        f"{effective} effective classes (of {draws} draws, m <= 4)",
        ok,
    )
    assert result.passed, result.counterexample
    assert failure is None, failure
    assert effective >= ORACLE_SAMPLES


def test_criterion_4_route_agreement(capsys, monkeypatch):
    result = verify_route_agreement(samples=ROUTE_SAMPLES, seed=SEED)

    # A disagreement must surface as exit code 2 at the command line;
    # prove the mapping with a synthetic failing suite.
    import kedge.cli
    from kedge.verify import SuiteResult

    failing = SuiteResult(
        suite="route-agreement", samples=1, checks=1, passed=False,
        counterexample={"synthetic": True},
    )
    monkeypatch.setattr(kedge.verify, "run_suites", lambda *a: [failing])
    with pytest.raises(SystemExit) as excinfo:
        kedge.cli.main(["verify", "--suite", "route-agreement", "--samples", "1"])
    capsys.readouterr()
    mapping_ok = excinfo.value.code == 2
    monkeypatch.undo()

    ok = result.passed and mapping_ok
    announce(
        capsys, 4,
        f"A and S from the torus route vs the sweep route ({ROUTE_SAMPLES} samples); "
        "disagreement exits 2",
        ok,
    )
    assert result.passed, result.counterexample
    assert mapping_ok


def test_criterion_5_halving(capsys):
    result = verify_halving(samples=ROUTE_SAMPLES, seed=SEED)
    ok = result.passed
    announce(
        capsys, 5,
        "moment-interval volume equals half the anticanonical square "
        f"({ROUTE_SAMPLES} samples)",
        ok,
    )
    assert ok, result.counterexample


def test_criterion_6_named_verdicts(capsys):
    expectations = [
        (SurfaceModel(0, 2), Angles(rat(1, 2), rat(1, 2)),
         NOT_KPOLYSTABLE, rat(21, 23), "C2tilde"),
        (SurfaceModel(0, 2), Angles(rat(63, 128), rat(21, 32)),
         KPOLYSTABLE, rat(1), "C1tilde"),
        (SurfaceModel(0, 1), Angles(rat(144, 125), rat(48, 25)),
         NOT_KPOLYSTABLE, rat(175, 202), "E1"),
        (SurfaceModel(0, 2), Angles(rat(63, 128) + rat(1, 1000), rat(21, 32)),
         NOT_KPOLYSTABLE, rat(627718875, 628223387), "C2tilde"),
    ]
    failures = []
    for params, angles, status, delta, witness in expectations:
        v = k_polystable(params, angles)
        if (v.status, v.delta, v.witness) != (status, delta, witness):
            failures.append((params, angles, v.status, v.delta, v.witness))
    ok = not failures
    announce(capsys, 6, "named points: status, delta and witness all pinned", ok)
    assert ok, failures


def test_criterion_7_delta_bounded_by_one(capsys):
    rng = random.Random(SEED)
    failures = []
    for _ in range(VERDICT_SAMPLES):
        params = sample_surface(rng)
        angles = sample_angles(rng, params)
        v = k_polystable(params, angles)
        good = (
            v.status in (KPOLYSTABLE, NOT_KPOLYSTABLE)
            and v.delta <= 1
            and (v.delta < 1 or (v.condition_sign == 0 and params.m != 1))
            and ((v.condition_sign == 0 and params.m != 1) is (v.status == KPOLYSTABLE))
        )
        if not good:
            failures.append((params, angles, v.status, v.delta))
    ok = not failures
    announce(
        capsys, 7,
        f"delta <= 1 on {VERDICT_SAMPLES} ample samples, "
        "equality only on the polystable locus",
        ok,
    )
    assert ok, failures[:3]


def test_criterion_8_negative_definite_families(capsys):
    failures = []
    for number, curves, constraint, violations in negative_definite_families():
        for model in small_surfaces(4, 4):
            if model.m < 1 or not constraint(model.n, model.m):
                continue
            if not is_negative_definite(model, curves(model.n, model.m)):
                failures.append((number, model.n, model.m, "expected definite"))
        for n, m in violations:
            model = SurfaceModel(n, m)
            if is_negative_definite(model, curves(n, m)):
                failures.append((number, n, m, "expected violation"))
    ok = not failures
    announce(
        capsys, 8,
        "seven negative-definite curve families, boundary violations rejected",
        ok,
    )
    assert ok, failures


def test_criterion_9_m0_condition_locus(capsys):
    failures = []
    eps = rat(1, 10**6)
    # Slopes on both sides of 1: below for n = 0, above for m = 0.
    slopes = [rat(p, q) for p, q in
              ((1, 3), (1, 2), (3, 4), (9, 10), (10, 9), (9, 7), (8, 5), (5, 3))]
    for n in (0, 1, 2):
        for m in (0, 1, 2, 3):
            model = SurfaceModel(n, m)
            found = 0
            for s in slopes:
                try:
                    angles = rational_condition_point(model, s)
                except NotFound:
                    continue
                found += 1
                if condition_sign(model, angles) != 0:
                    failures.append((n, m, s, "constructed point missed"))
                up =Angles(angles.beta1 + eps, angles.beta2)
                down = Angles(angles.beta1 - eps, angles.beta2)
                if condition_sign(model, up) != 1 or condition_sign(model, down) != -1:
                    failures.append((n, m, s, "perturbation sign wrong"))
            if not found:
                failures.append((n, m, "no condition point constructed"))
            # Grid sweep: the sign must match the torus-side Futaki sign
            # everywhere, and vanish exactly where the locus equation holds.
            for k in range(1, 14):
                for j in range(1, 18):
                    angles = Angles(rat(k, 7), rat(j, 9))
                    cs = condition_sign(model, angles)
                    b1, b2 = angles.beta1, angles.beta2
                    locus = b1 * b1 - rat(n, 3) * b1**3 - b2 * b2 - rat(n - m, 3) * b2**3
                    if cs != sign(locus):
                        failures.append((n, m, k, j, "sign mismatch with locus equation"))
                    if cs != futaki_vanishes(model, angles):
                        failures.append((n, m, k, j, "sign mismatch with Futaki route"))
    ok = not failures
    announce(
        capsys, 9,
        "condition locus: zero exactly at constructed rational points "
        "(n <= 2, m <= 3)",
        ok,
    )
    assert ok, failures[:5]
