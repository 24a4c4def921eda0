"""Seed-deterministic random sampling of surfaces, angles and classes.

All randomised checks in the package draw from these generators so that a
``(seed, sample-count)`` pair pins the exact inputs byte-for-byte.  Angles
are drawn as exact rationals: denominator uniform in 1..64, numerator
uniform in 1..4*denominator, rejected until the pair lands in the ample
range (and in the extra validity range of a requested closed-form case).
The ample test is ``SurfaceModel.broken_ample_bound`` on the drawn
integers, over the common denominator d1 d2, before any rational exists:
only the accepted pair becomes ``Angles``.  The angle draws are
``rng.randint(1, w)``'s, call for call, made on ``rng.getrandbits`` by
``draw_up_to`` without ``randint``'s argument checks.
"""

from __future__ import annotations

import random

from .closedforms import (
    CASE_C1_FIRST,
    CASE_C2_FIRST,
    CASE_N_GE_M,
    CASE_N_ZERO,
    classify_exceptional_case,
)
from .picard import C1TILDE, C2TILDE, Angles, DivisorClass, Ei, SurfaceModel
from .ratmath import Rat

MAX_DENOMINATOR = 64
MAX_VALUE = 4  # angles are drawn from (0, MAX_VALUE]
MAX_TRIES = 10_000  # rejection-sampling draws before giving up

# Case families for the closed-form regression: the two section sweeps work
# for every (n, m), the exceptional-curve sweep splits into four regimes.
LEMMA_CASES = (C1TILDE, C2TILDE, CASE_N_GE_M, CASE_C1_FIRST, CASE_C2_FIRST, CASE_N_ZERO)


def draw_up_to(getrandbits, w: int) -> int:
    """``rng.randint(1, w)`` for w >= 1 and ``getrandbits = rng.getrandbits``,
    with the same draws and the same state after: CPython draws
    w.bit_length() bits until they fall below w (its
    ``Random._randbelow_with_getrandbits``) and adds 1."""
    k = w.bit_length()
    r = getrandbits(k)
    while r >= w:
        r = getrandbits(k)
    return r + 1


def sample_angles(rng: random.Random, model: SurfaceModel) -> Angles:
    """Rejection-sample an angle pair in the ample range of ``model``.

    Each angle is p / d, d uniform in 1..MAX_DENOMINATOR and p uniform in
    1..MAX_VALUE*d; the pair's integer form over d1 d2 is
    (d1 d2, p1 d2, p2 d1), which ``broken_ample_bound`` reads.
    """
    bits = rng.getrandbits
    for _ in range(MAX_TRIES):
        d1 = draw_up_to(bits, MAX_DENOMINATOR)
        p1 = draw_up_to(bits, MAX_VALUE * d1)
        d2 = draw_up_to(bits, MAX_DENOMINATOR)
        p2 = draw_up_to(bits, MAX_VALUE * d2)
        if not model.broken_ample_bound(d1 * d2, p1 * d2, p2 * d1):
            return Angles(Rat(p1, d1), Rat(p2, d2))
    raise RuntimeError(f"could not sample ample angles for {model}")


def sample_surface(rng: random.Random, n_max: int = 6, m_max: int = 6) -> SurfaceModel:
    return SurfaceModel(rng.randint(0, n_max), rng.randint(0, m_max))


def sample_case_input(rng: random.Random, case: str):
    """(model, angles, curve) in the validity domain of a closed-form case.

    ``curve`` is the curve whose volume curve the case describes: the
    section a section case names, and E1 for the E cases (the marked points
    are interchangeable).
    """
    if case in (C1TILDE, C2TILDE):
        model = sample_surface(rng)
        return model, sample_angles(rng, model), case
    for _ in range(MAX_TRIES):
        if case == CASE_N_GE_M:
            m = rng.randint(1, 6)
            model = SurfaceModel(rng.randint(m, 6), m)
        elif case == CASE_C1_FIRST:
            n = rng.randint(2, 5)
            model = SurfaceModel(n, rng.randint(n + 1, 6))
        elif case == CASE_C2_FIRST:
            n = rng.randint(1, 5)
            model = SurfaceModel(n, rng.randint(n + 1, 6))
        elif case == CASE_N_ZERO:
            model = SurfaceModel(0, rng.randint(1, 6))
        else:
            raise ValueError(f"unknown case {case!r}")
        angles = sample_angles(rng, model)
        if classify_exceptional_case(model, angles) == case:
            return model, angles, Ei(1)
    raise RuntimeError(f"could not sample inputs for case {case!r}")


def sample_divisor_class(rng: random.Random, model: SurfaceModel) -> DivisorClass:
    """A random class, biased toward (but not restricted to) effective ones.

    Half the draws are nonnegative combinations of the candidate curves and
    the two nef generators, hence effective; the other half are raw small
    rational coordinates and may fail to be pseudoeffective, which the
    decomposition routines must report consistently.  Every coefficient is
    p / q with q <= 4, so the class is summed on integers over 12.
    """

    def coeff(lo: int, hi: int) -> int:
        p = rng.randint(lo, hi)
        return p * (12 // rng.randint(1, 4))

    if rng.random() < 0.5:
        num = [coeff(0, 6), coeff(0, 6)] + [0] * model.m
        for row in model.candidate_coordinates:
            t = coeff(0, 3)
            for j, x in row:
                num[j] += t * x
    else:
        num = [coeff(-1, 4), coeff(-2, 6)] + [coeff(-2, 4) for _ in range(model.m)]
    return DivisorClass(num, 12)
