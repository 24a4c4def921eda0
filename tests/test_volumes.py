"""Volume curves from the Zariski sweep: chamber structure, S, A, thresholds."""

from dataclasses import replace

import pytest

from kedge.closedforms import (
    angle_bracket,
    classify_exceptional_case,
    closed_form_S,
    closed_form_volume_curve,
    total_volume,
)
from kedge.picard import (
    Angles,
    C1TILDE,
    C2TILDE,
    Ei,
    FiTilde,
    GENERIC_FIBER,
    OutsideAmpleRange,
    PULLBACK_C2,
    SurfaceParams,
    as_model,
)
from kedge.linalg import solve_exact
from kedge.ratmath import rat
from kedge.sampling import LEMMA_CASES, sample_angles, sample_case_input, sample_surface
from kedge.volumes import (
    Affine,
    IrrationalThreshold,
    PiecewiseQuadratic,
    _certify_curve,
    _smallest_root_after,
    expected_vanishing_order,
    log_discrepancy,
    threshold,
    volume_curve,
)
from kedge.zariski import DecompositionError, grow_support, volume, zariski_decompose

HALF = rat(1, 2)


class TestPinnedCurves:
    def test_section_curve_two_pieces(self):
        pq = volume_curve(C1TILDE, SurfaceParams(0, 2), Angles(HALF, HALF))
        assert len(pq.pieces) == 2
        first, second = pq.pieces
        assert (first.x_lo, first.x_hi) == (0, HALF)
        assert (first.q0, first.q1, first.q2) == (rat(7, 2), rat(-4), 0)
        assert first.negative_support == ()
        assert (second.x_lo, second.x_hi) == (HALF, rat(1))
        assert (second.q0, second.q1, second.q2) == (rat(4), rat(-6), rat(2))
        assert second.negative_support == (FiTilde(1), FiTilde(2))
        assert pq.tau == 1

    def test_exceptional_curve_four_pieces_n0(self):
        pq = volume_curve(Ei(1), SurfaceParams(0, 2), Angles(rat(1, 4), HALF))
        assert [p.x_lo for p in pq.pieces] == [0, rat(1, 4), rat(1), rat(2)]
        assert pq.tau == rat(9, 4)
        last = pq.pieces[-1]
        assert last.negative_support == (C2TILDE, Ei(2), FiTilde(1))
        # (2 + beta1 - x)^2 expanded.
        assert (last.q0, last.q1, last.q2) == (rat(81, 16), rat(-9, 2), rat(1))

    def test_thresholds(self):
        assert threshold(C1TILDE, SurfaceParams(1, 2), Angles(HALF, rat(2, 3))) == rat(7, 6)
        assert threshold(C2TILDE, SurfaceParams(1, 2), Angles(HALF, rat(2, 3))) == rat(7, 6)
        # n >= m: tau = 2 + (n-m) beta2.
        assert threshold(Ei(1), SurfaceParams(3, 1), Angles(rat(1, 3), HALF)) == rat(3)
        # n < m with (n-1) beta1 >= (m-n) beta2: tau = 2.
        assert threshold(Ei(1), SurfaceParams(2, 3), Angles(rat(3, 4), rat(1, 4))) == rat(2)

    def test_pinned_S_values(self):
        params = SurfaceParams(0, 2)
        angles = Angles(HALF, HALF)
        assert expected_vanishing_order(C1TILDE, params, angles) == rat(19, 42)
        assert expected_vanishing_order(C2TILDE, params, angles) == rat(23, 42)
        assert expected_vanishing_order(Ei(1), params, angles) == rat(22, 21)
        assert expected_vanishing_order(FiTilde(1), params, angles) == rat(1)
        assert expected_vanishing_order(GENERIC_FIBER, params, angles) == rat(19, 21)

    def test_big_angle_S_value(self):
        # The m=1 condition point has angles above 1; formulas stay exact.
        params = SurfaceParams(0, 1)
        angles = Angles(rat(144, 125), rat(48, 25))
        assert expected_vanishing_order(Ei(1), params, angles) == rat(202, 175)


class TestInvariants:
    @pytest.mark.parametrize("case", LEMMA_CASES)
    def test_piecewise_structure(self, rng, case):
        for _ in range(8):
            params, angles, index = sample_case_input(rng, case)
            curve = {"C1tilde": C1TILDE, "C2tilde": C2TILDE}.get(case) or Ei(index)
            pq = volume_curve(curve, params, angles)
            model = as_model(params)
            vol = model.self_intersection(model.log_anticanonical(angles))
            assert pq.x_lo == 0
            assert pq.value(rat(0)) == vol
            assert pq.value(pq.tau) == 0
            # Derivative at 0+ is -2 (-K . E).
            minus_k = model.log_anticanonical(angles)
            pairing = model.intersect(minus_k, model.class_of(curve))
            assert pq.pieces[0].q1 == -2 * pairing
            for left, right in zip(pq.pieces, pq.pieces[1:]):
                assert left.x_hi == right.x_lo
                assert left.value(left.x_hi) == right.value(right.x_lo)
                assert left.negative_support != right.negative_support or (
                    (left.q0, left.q1, left.q2) != (right.q0, right.q1, right.q2)
                )
            for piece in pq.pieces:
                assert piece.x_lo < piece.x_hi
                # Nonincreasing: the derivative q1 + 2 q2 x at both endpoints.
                assert piece.q1 + 2 * piece.q2 * piece.x_lo <= 0
                assert piece.q1 + 2 * piece.q2 * piece.x_hi <= 0
                for cid in piece.negative_support:
                    assert cid in model.candidate_curves()

    def test_closed_form_regression_sampled(self, rng):
        for case in LEMMA_CASES:
            for _ in range(10):
                params, angles, index = sample_case_input(rng, case)
                curve = {"C1tilde": C1TILDE, "C2tilde": C2TILDE}.get(case) or Ei(index)
                expect = closed_form_volume_curve(curve, params, angles)
                assert expect is not None
                assert volume_curve(curve, params, angles).pieces == expect.pieces
                assert expected_vanishing_order(curve, params, angles) == closed_form_S(
                    curve, params, angles
                )
        # The fiber components have a closed-form S (but no closed-form curve).
        for _ in range(10):
            params = sample_surface(rng, m_min=1)
            angles = sample_angles(rng, params)
            curve = FiTilde(rng.randint(1, params.m))
            assert expected_vanishing_order(curve, params, angles) == closed_form_S(
                curve, params, angles
            )
        assert closed_form_S(GENERIC_FIBER, params, angles) is None

    def test_S_bracket_relation(self, rng):
        # beta1 - S(C1tilde) = S(C2tilde) - beta2 = 2 bracket / vol.
        for _ in range(25):
            params = sample_surface(rng)
            angles = sample_angles(rng, params)
            s1 = expected_vanishing_order(C1TILDE, params, angles)
            s2 = expected_vanishing_order(C2TILDE, params, angles)
            gap = 2 * angle_bracket(params, angles) / total_volume(params, angles)
            assert angles.beta1 - s1 == gap
            assert s2 - angles.beta2 == gap

    def test_exceptional_case_classification(self):
        assert classify_exceptional_case((3, 2), Angles(HALF, HALF)) == "E-n-ge-m"
        assert classify_exceptional_case((2, 4), Angles(rat(3, 4), rat(1, 4))) == "E-c1-first"
        assert classify_exceptional_case((1, 2), Angles(HALF, HALF)) == "E-c2-first"
        assert classify_exceptional_case((0, 2), Angles(rat(1, 4), HALF)) == "E-n0"
        assert classify_exceptional_case((0, 0), Angles(HALF, HALF)) is None
        # Outside the validity inequality of the only applicable regime.
        assert classify_exceptional_case((0, 1), Angles(rat(3, 2), rat(3, 4))) is None


class TestSharedEngine:
    def test_jet_supports_match_rational_decompositions(self, rng):
        # The sweep grows each chamber's support over jets at its left wall;
        # the rational decomposition at the chamber's midpoint must agree.
        for _ in range(60):
            params = sample_surface(rng, n_max=4, m_max=4)
            angles = sample_angles(rng, params)
            model = as_model(params)
            minus_k = model.log_anticanonical(angles)
            for curve in model.candidate_curves():
                for piece in volume_curve(curve, model, angles).pieces:
                    x = (piece.x_lo + piece.x_hi) / 2
                    d = minus_k - model.class_of(curve).scale(x)
                    assert zariski_decompose(model, d).support == piece.negative_support
                    assert volume(model, d) == piece.value(x)

    @pytest.mark.parametrize(
        "curve, params, angles, solves",
        [
            (Ei(1), SurfaceParams(0, 2), Angles(HALF, HALF), 4),
            (C1TILDE, SurfaceParams(1, 2), Angles(HALF, rat(2, 3)), 2),
        ],
    )
    def test_sweep_solve_count(self, monkeypatch, curve, params, angles, solves):
        # Deterministic work: one solve per chamber, so any re-solve fails here.
        calls = []

        def counting(*args):
            calls.append(args)
            return solve_exact(*args)

        monkeypatch.setattr("kedge.zariski.solve_exact", counting)
        volume_curve(curve, params, angles)
        assert len(calls) == solves

    @pytest.mark.parametrize(
        "left, right",
        [((), ()), ((FiTilde(1),), ()), ((FiTilde(1),), (FiTilde(2),))],
    )
    def test_certificate_requires_growing_support(self, left, right):
        # The negative part only grows along the ray, so a wall whose
        # support does not grow strictly is an internal failure.
        model = as_model(SurfaceParams(0, 2))
        angles = Angles(HALF, HALF)
        first, second = volume_curve(C1TILDE, model, angles).pieces
        _certify_curve(model, angles, PiecewiseQuadratic((first, second)))
        broken = (replace(first, negative_support=left), replace(second, negative_support=right))
        with pytest.raises(DecompositionError, match="grow strictly"):
            _certify_curve(model, angles, PiecewiseQuadratic(broken))

    def test_falling_coefficient_is_refused(self, monkeypatch):
        # No coefficient of the negative part falls along the ray, so the
        # sweep looks for no such wall; it refuses a chamber that has one.
        def falling(model, pairings, zero, start=()):
            support, coeffs, residual = grow_support(model, pairings, zero, start)
            return support, [Affine(a.c0 + 1, -1) for a in coeffs], residual

        monkeypatch.setattr("kedge.volumes.grow_support", falling)
        with pytest.raises(DecompositionError, match="coefficient falls"):
            volume_curve(C1TILDE, SurfaceParams(0, 2), Angles(HALF, HALF))


class TestScalars:
    def test_log_discrepancy(self):
        params = SurfaceParams(1, 2)
        angles = Angles(rat(1, 3), rat(2, 3))
        assert log_discrepancy(C1TILDE, params, angles) == rat(1, 3)
        assert log_discrepancy(C2TILDE, params, angles) == rat(2, 3)
        assert log_discrepancy(Ei(2), params, angles) == 1
        assert log_discrepancy(FiTilde(1), params, angles) == 1
        assert log_discrepancy(GENERIC_FIBER, params, angles) == 1
        with pytest.raises(ValueError):
            log_discrepancy(PULLBACK_C2, params, angles)
        # With no blown-up points the pullback is the boundary curve itself.
        assert log_discrepancy(PULLBACK_C2, SurfaceParams(1, 0), angles) == rat(2, 3)

    def test_outside_ample_range(self):
        with pytest.raises(OutsideAmpleRange):
            volume_curve(C1TILDE, SurfaceParams(2, 0), Angles(rat(1), HALF))
        with pytest.raises(OutsideAmpleRange):
            expected_vanishing_order(Ei(1), SurfaceParams(0, 4), Angles(HALF, HALF))

    def test_irrational_root_refused(self):
        # 2 - x^2 first vanishes at sqrt(2): must refuse, never approximate.
        with pytest.raises(IrrationalThreshold):
            _smallest_root_after(rat(2), rat(0), rat(-1), rat(0), "synthetic")
        assert _smallest_root_after(rat(4), rat(0), rat(-1), rat(0), "synthetic") == 2
        assert _smallest_root_after(rat(4), rat(-4), rat(0), rat(0), "synthetic") == 1
