"""Volume curves from the Zariski sweep: chamber structure, S, A, thresholds."""

from dataclasses import dataclass, replace

import pytest
from conftest import reference_factorize, reference_solve
from hypothesis import given, settings
from hypothesis import strategies as st

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
    SurfaceModel,
    SurfaceParams,
    as_model,
)
from kedge.ratmath import Rat, common_denominator, rat
from kedge.sampling import LEMMA_CASES, sample_angles, sample_case_input, sample_surface
from kedge.volumes import (
    IrrationalThreshold,
    PiecewiseQuadratic,
    QuadraticPiece,
    _certify_curve,
    _smallest_root_after,
    expected_vanishing_order,
    log_discrepancy,
    volume_curve,
    volume_sweep,
)
from kedge.zariski import (
    DecompositionError,
    NotPseudoeffective,
    _support_factor,
    grow_support,
    volume,
    zariski_decompose,
)

HALF = rat(1, 2)


def threshold(E, params, angles):
    """Pseudoeffective threshold tau: sup{x : -K_Delta - x E is big}."""
    return volume_curve(E, params, angles).tau


@dataclass(frozen=True)
class Affine:
    """c0 + c1*t; as a first-order jet it orders lexicographically by
    (c0, c1), the sign of c0 + c1*epsilon for an infinitesimal epsilon > 0."""

    c0: object
    c1: object

    def __sub__(self, other):
        return Affine(self.c0 - other.c0, self.c1 - other.c1)

    def __mul__(self, t):
        return Affine(t * self.c0, t * self.c1)

    __rmul__ = __mul__

    def __truediv__(self, t):
        return Affine(self.c0 / t, self.c1 / t)

    def __lt__(self, other):
        return (self.c0, self.c1) < (other.c0, other.c1)


AFFINE_ZERO = Affine(Rat(0), Rat(0))


def reference_grow_support(model, pairings, zero, start=()):
    """Bauer's support growth over jets, every pairing read pointwise
    through ``intersect`` of the curves' classes: a fresh dense Gram
    matrix and solve each round on the rational reference kernel,
    residuals over every (support, candidate) pair."""
    candidates = model.candidate_curves()
    classes = {c: model.class_of(c) for c in candidates}
    support = list(start)
    while True:
        support.sort(key=lambda c: c.kind in ("C1tilde", "C2tilde"))
        coeffs = reference_solve(
            reference_factorize(model.gram_matrix([classes[c] for c in support])),
            [pairings[c] for c in support],
        )
        if any(x < zero for x in coeffs):
            raise NotPseudoeffective("orthogonality forces a negative coefficient")
        residual = {}
        for c in candidates:
            r = pairings[c]
            for cid, x in zip(support, coeffs):
                g = model.intersect(classes[cid], classes[c])
                if g:
                    r = r - x * g
            residual[c] = r
        violated = [c for c in candidates if c not in support and residual[c] < zero]
        if not violated:
            return support, coeffs, residual
        support.extend(violated)


def reference_volume_sweep(E, model, angles):
    """The chamber sweep with pairing jets as ``Affine`` objects in dicts
    keyed by curve, on ``reference_grow_support``."""
    minus_k, minus_e = model.log_anticanonical(angles), -model.class_of(E)
    candidates = model.candidate_curves()
    r0 = {c: model.intersect(minus_k, model.class_of(c)) for c in candidates}
    r1 = {c: model.intersect(minus_e, model.class_of(c)) for c in candidates}
    d0 = model.self_intersection(minus_k)
    d1 = 2 * model.intersect(minus_k, minus_e)
    d2 = model.self_intersection(minus_e)
    context = f"E={E.label}, n={model.n}, m={model.m}"
    pieces, x0, start = [], Rat(0), []
    while True:
        jets = {c: Affine(r0[c] + x0 * r1[c], r1[c]) for c in candidates}
        support, coeffs, residual = reference_grow_support(model, jets, AFFINE_ZERO, start)
        assert all(a.c1 >= 0 for a in coeffs)
        q0, q1, q2 = d0, d1, d2
        for c, a in zip(support, coeffs):
            const = a.c0 - x0 * a.c1
            q0 = q0 - const * r0[c]
            q1 = q1 - const * r1[c] - a.c1 * r0[c]
            q2 = q2 - a.c1 * r1[c]
        roots = {c: x0 - f.c0 / f.c1 for c, f in residual.items()
                 if c not in support and f.c1 < 0}
        wall = min(roots.values(), default=None)
        named = tuple(sorted((c for c, a in zip(support, coeffs) if a != AFFINE_ZERO),
                             key=candidates.index))
        if wall is not None and q0 + q1 * wall + q2 * wall * wall > 0:
            pieces.append(QuadraticPiece(x0, wall, q0, q1, q2, named))
            start = support + [c for c in candidates if roots.get(c) == wall]
            x0 = wall
            continue
        tau = _smallest_root_after(q0, q1, q2, x0, context)
        pieces.append(QuadraticPiece(x0, tau, q0, q1, q2, named))
        return tuple(pieces)


@st.composite
def sweep_inputs(draw):
    """(curve, model, angles) with n, m <= 6 and angles in the ample range,
    over every candidate curve, the generic fiber and, at m = 0, the
    pulled-back section.  Half the angles are small fractions; the other
    half have denominators up to 10^6: drawn apart, consecutive (so
    coprime), equal, or with a common factor."""
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    model = as_model((n, m))
    if draw(st.booleans()):
        angle = st.builds(Rat, st.integers(1, 24), st.integers(1, 12))
        angles = draw(st.builds(Angles, angle, angle).filter(
            lambda angles: model.ample_range_violation(angles) is None))
    else:
        low = max(n, m - n, 1)
        q1 = draw(st.integers(low, 10**6))
        q2 = draw(st.one_of(st.integers(low, 10**6), st.just(q1 + 1), st.just(q1)))
        if draw(st.booleans()):
            g = draw(st.integers(2, 1000))
            q1, q2 = g * draw(st.integers(low, 1000)), g * draw(st.integers(low, 1000))

        def angle(q, k):
            top = (2 * q - 1) // k if k > 0 else 3 * q  # p / q < 2 / k
            return Rat(draw(st.integers(1, top)), q)

        angles = Angles(angle(q1, n), angle(q2, m - n))
    curves = model.candidate_curves() + [GENERIC_FIBER] + [PULLBACK_C2] * (m == 0)
    return draw(st.sampled_from(curves)), model, angles


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
        # At the m = 2 condition point A/S = 1 on both sections and every E_i.
        condition = Angles(rat(63, 128), rat(21, 32))
        for curve in (C1TILDE, C2TILDE, Ei(1), Ei(2)):
            a = log_discrepancy(curve, params, condition)
            assert expected_vanishing_order(curve, params, condition) == a

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
        # Deterministic work: one factorisation per chamber, solved for both
        # columns, so any re-factorisation fails here.
        calls = []

        def counting(*args):
            calls.append(args)
            return _support_factor(*args)

        monkeypatch.setattr("kedge.zariski._support_factor", counting)
        volume_curve(curve, params, angles)
        assert len(calls) == solves

    def test_sweep_and_decomposition_read_only_the_table(self, monkeypatch):
        # Support growth pairs through the candidate table alone: classes
        # and the generic intersect are refused while it runs.
        def refuse(*args):
            raise AssertionError("pairing read outside the candidate table")

        rounds = []

        def guarded(*args):
            rounds.append(args)
            with pytest.MonkeyPatch.context() as lattice:
                lattice.setattr(SurfaceModel, "intersect", refuse)
                lattice.setattr(SurfaceModel, "class_of", refuse)
                return grow_support(*args)

        monkeypatch.setattr("kedge.volumes.grow_support", guarded)
        monkeypatch.setattr("kedge.zariski.grow_support", guarded)
        model = as_model((0, 2))
        angles = Angles(HALF, HALF)
        for curve in model.candidate_curves() + [GENERIC_FIBER]:
            rounds.clear()
            assert len(volume_curve(curve, model, angles).pieces) == len(rounds)
        d = model.log_anticanonical(angles) - model.class_of(Ei(1)).scale(rat(3, 2))
        rounds.clear()
        assert zariski_decompose(model, d).support
        assert len(rounds) == 1

    @settings(deadline=None)
    @given(sweep_inputs())
    def test_sweep_matches_pointwise_reference(self, inputs):
        curve, model, angles = inputs
        assert volume_sweep(curve, model, angles) == reference_volume_sweep(curve, model, angles)

    @pytest.mark.parametrize(
        "curve, params, angles, wall, reach",
        [
            # An S_6 orbit: every F~i falls to 0 at x = 1/2 with the same residuals.
            (C1TILDE, (0, 6), Angles(HALF, rat(1, 4)), HALF, [FiTilde(i) for i in range(1, 7)]),
            # Two curves, two scales: E2 at 2/1 and F~1 at 4/2, tied by
            # cross-multiplication.
            (Ei(1), (0, 2), Angles(rat(2), HALF), rat(2), [Ei(2), FiTilde(1)]),
        ],
    )
    def test_curves_that_reach_one_wall_start_the_next_chamber(
        self, monkeypatch, curve, params, angles, wall, reach
    ):
        rounds = []

        def spy(model, columns, start=()):
            grown = grow_support(model, columns, start)
            rounds.append((list(start), grown[0]))
            return grown

        monkeypatch.setattr("kedge.volumes.grow_support", spy)
        model = as_model(params)
        pieces = volume_sweep(curve, model, angles)
        index = [p.x_lo for p in pieces].index(wall)
        (start, _), (_, support) = rounds[index], rounds[index - 1]
        assert start == support + [model.candidate_curves().index(c) for c in reach]
        assert set(reach) <= set(pieces[index].negative_support)
        assert pieces == reference_volume_sweep(curve, model, angles)

    @pytest.mark.parametrize("params, angles", [((0, 2), Angles(HALF, HALF)),
                                                ((1, 2), Angles(HALF, rat(2, 3)))])
    def test_intersect_count(self, monkeypatch, params, angles):
        # A candidate's sweep reads D(x)^2 and the slope column off the
        # pairings: the generic intersect runs once, in the certificate.
        # The generic fiber, no candidate, pairs -E twice more.
        intersect, calls = SurfaceModel.intersect, []

        def counting(self, d1, d2):
            calls.append((d1, d2))
            return intersect(self, d1, d2)

        monkeypatch.setattr(SurfaceModel, "intersect", counting)
        model = as_model(params)
        for curve in model.candidate_curves() + [GENERIC_FIBER]:
            calls.clear()
            volume_curve(curve, model, angles)
            assert len(calls) == (3 if curve == GENERIC_FIBER else 1)

    def test_certificate_checks_the_volume_at_zero(self):
        # The first piece's q0 is d0's closed form; the certificate compares
        # it with (-K_Delta)^2 from the generic intersect.
        model, angles = as_model((0, 2)), Angles(HALF, HALF)
        first, second = volume_curve(C1TILDE, model, angles).pieces
        broken = (replace(first, q0=first.q0 + 1), second)
        with pytest.raises(DecompositionError, match=r"must equal \(-K_Delta\)\^2"):
            _certify_curve(model, angles, PiecewiseQuadratic(broken))

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
        def falling(model, columns, start=()):
            support, scale, (values, slopes), residuals = grow_support(model, columns, start)
            return support, scale, ([a + 1 for a in values], [-1] * len(slopes)), residuals

        monkeypatch.setattr("kedge.volumes.grow_support", falling)
        with pytest.raises(DecompositionError, match="coefficient falls"):
            volume_curve(C1TILDE, SurfaceParams(0, 2), Angles(HALF, HALF))


class TestClosedForms:
    def test_sweep_input_matches_the_generic_lattice(self, monkeypatch, rng):
        # The sweep's first columns are L r0 and r1 in integers, L the angles'
        # common denominator, and its first chamber has an empty support
        # (-K_Delta is ample), so that piece is D(x)^2 itself.
        columns = []

        def spy(model, cols, start=()):
            columns.append(cols)
            return grow_support(model, cols, start)

        monkeypatch.setattr("kedge.volumes.grow_support", spy)
        for n in range(7):
            for m in range(7):
                model = as_model((n, m))
                angles = sample_angles(rng, model.params)
                minus_k = model.log_anticanonical(angles)
                curves = model.candidate_curves()
                for curve in curves + [GENERIC_FIBER] + [PULLBACK_C2] * (m == 0):
                    columns.clear()
                    first = volume_sweep(curve, model, angles)[0]
                    minus_e = -model.class_of(curve)
                    assert first.negative_support == ()
                    assert (first.q0, first.q1, first.q2) == (
                        model.intersect(minus_k, minus_k),
                        2 * model.intersect(minus_k, minus_e),
                        model.intersect(minus_e, minus_e),
                    )
                    r0, r1 = columns[0]
                    L = common_denominator(angles.beta1, angles.beta2)[0]
                    assert r0 == [L * model.intersect(minus_k, model.class_of(c)) for c in curves]
                    assert r1 == [model.intersect(minus_e, model.class_of(c)) for c in curves]
                    assert all(type(x) is int for x in r0 + r1)

    @settings(deadline=None)
    @given(st.lists(st.fractions(max_denominator=50).map(Rat), min_size=5, max_size=5))
    def test_piece_integral_matches_an_antiderivative(self, numbers):
        lo, hi, q0, q1, q2 = numbers
        piece = QuadraticPiece(lo, hi, q0, q1, q2, ())
        anti = lambda x: q0 * x + q1 * x * x / 2 + q2 * x * x * x / 3
        assert piece.integral() == anti(hi) - anti(lo)
        assert piece.value(hi) == q0 + q1 * hi + q2 * hi * hi


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
