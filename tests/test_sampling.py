"""Seed-deterministic samplers feeding every randomized check."""

import random

import pytest
from conftest import reference_sample_angles, reference_sample_rational

from kedge.closedforms import classify_exceptional_case
from kedge.picard import C1TILDE, C2TILDE, DivisorClass, Ei, SurfaceModel
from kedge.sampling import (
    LEMMA_CASES,
    MAX_DENOMINATOR,
    MAX_VALUE,
    draw_up_to,
    sample_angles,
    sample_case_input,
    sample_divisor_class,
    sample_surface,
)


def test_rational_bounds(rng):
    for _ in range(200):
        x = reference_sample_rational(rng)
        assert 0 < x <= MAX_VALUE
        assert x.denominator <= MAX_DENOMINATOR


def test_draw_is_randint_call_for_call():
    # The angle draws' kernel: if a CPython changes randint's draws, this
    # fails before any golden or pinned digest does.
    for seed in range(20):
        drawn, reference = random.Random(seed), random.Random(seed)
        bits = drawn.getrandbits
        for w in range(1, 257):
            assert draw_up_to(bits, w) == reference.randint(1, w), (seed, w)
            assert drawn.getstate() == reference.getstate(), (seed, w)


@pytest.mark.parametrize("n", range(7))
def test_angles_match_the_rational_reference(n):
    # The integer sampler makes the same randint calls in the same order
    # and accepts the same pairs as the rational rejection loop.
    for m in range(7):
        model = SurfaceModel(n, m)
        for seed in range(20):
            drawn, reference = random.Random(seed), random.Random(seed)
            assert sample_angles(drawn, model) == reference_sample_angles(reference, model)
            assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("case", LEMMA_CASES)
def test_case_inputs_match_the_rational_reference(monkeypatch, case):
    # The reference is sample_case_input over the rational sampler.
    seeds = range(20)
    generators = [random.Random(seed) for seed in seeds]
    drawn = [sample_case_input(rng, case) for rng in generators]
    monkeypatch.setattr("kedge.sampling.sample_angles", reference_sample_angles)
    references = [random.Random(seed) for seed in seeds]
    assert drawn == [sample_case_input(rng, case) for rng in references]
    assert [rng.getstate() for rng in generators] == [rng.getstate() for rng in references]


def test_angles_are_ample(rng):
    for _ in range(50):
        model = sample_surface(rng)
        angles = sample_angles(rng, model)
        assert model.ample_range_violation(angles) is None


def test_surface_ranges(rng):
    seen = set()
    for _ in range(100):
        params = sample_surface(rng, n_max=3, m_max=2)
        assert type(params) is SurfaceModel
        assert 0 <= params.n <= 3
        assert 0 <= params.m <= 2
        seen.add((params.n, params.m))
    assert len(seen) > 4  # actually explores the grid


def test_case_inputs_match_their_case(rng):
    for case in LEMMA_CASES:
        for _ in range(10):
            model, angles, curve = sample_case_input(rng, case)
            assert type(model) is SurfaceModel
            assert model.ample_range_violation(angles) is None
            if case not in (C1TILDE, C2TILDE):
                assert classify_exceptional_case(model, angles) == case
                assert curve == Ei(1) and model.m >= 1
            else:
                assert curve == case


def test_unknown_case_is_refused():
    with pytest.raises(ValueError) as raised:
        sample_case_input(random.Random(0), "nope")
    assert str(raised.value) == "unknown case 'nope'"


def test_exhausted_case_draws_are_refused(monkeypatch):
    # A case that no draw meets runs out of tries, after MAX_TRIES draws.
    monkeypatch.setattr("kedge.sampling.classify_exceptional_case", lambda model, angles: None)
    with pytest.raises(RuntimeError) as raised:
        sample_case_input(random.Random(0), "E-n-ge-m")
    assert str(raised.value) == "could not sample inputs for case 'E-n-ge-m'"


def test_no_ample_draw_is_refused():
    # beta1 < 2/200 needs 200 p1 < 2 d1 with d1 <= 64, which no draw meets.
    with pytest.raises(RuntimeError) as raised:
        sample_angles(random.Random(0), SurfaceModel(200, 0))
    assert str(raised.value) == "could not sample ample angles for SurfaceModel(n=200, m=0)"


def test_divisor_class_shape(rng):
    model = SurfaceModel(2, 3)
    for _ in range(50):
        d = sample_divisor_class(rng, model)
        assert isinstance(d, DivisorClass)
        assert d.m == model.m


def test_seed_determinism():
    def draw(seed):
        r = random.Random(seed)
        out = [reference_sample_rational(r) for _ in range(5)]
        params = sample_surface(r)
        out.append(params)
        out.append(sample_angles(r, params))
        out.append(sample_divisor_class(r, params))
        out.extend(sample_case_input(r, case) for case in LEMMA_CASES)
        return out

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
