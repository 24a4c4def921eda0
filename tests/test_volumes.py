"""Volume curves from the Zariski sweep: chamber structure, S, A, thresholds."""

import random
from dataclasses import dataclass

import pytest
from conftest import (add_multiple, angle_bracket, clear_per_surface_caches, common_denominator,
                      count_builds, gram, rat, reference_factorize, reference_smallest_root_after,
                      reference_solve, total_volume, volume, zero_class)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kedge import closedforms, linalg, volumes, zariski
from kedge.closedforms import (
    classify_exceptional_case,
    closed_form_S,
    closed_form_volume_curve,
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
)
from kedge.linalg import border
from kedge.ratmath import Rat
from kedge.sampling import LEMMA_CASES, sample_angles, sample_case_input, sample_surface
from kedge.volumes import (
    IrrationalThreshold,
    QuadraticPiece,
    _certify_curve,
    _piece_integral,
    _smallest_root_after,
    expected_vanishing_order,
    log_discrepancy,
    volume_curve,
    volume_sweep,
)
from kedge.zariski import (
    DecompositionError,
    NotPseudoeffective,
    grow_support,
    zariski_decompose,
)

HALF = rat(1, 2)


def piece_value(piece, x):
    return piece.q0 + x * (piece.q1 + x * piece.q2)


def threshold(E, params, angles):
    """Pseudoeffective threshold tau: sup{x : -K_Delta - x E is big}."""
    return volume_curve(E, params, angles)[-1].x_hi


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
    candidates = model.candidates
    classes = {c: model.class_of(c) for c in candidates}
    support = list(start)
    while True:
        support.sort(key=lambda c: c in (C1TILDE, C2TILDE))
        coeffs = reference_solve(
            reference_factorize(gram(model, [classes[c] for c in support])),
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
    minus_k = model.log_anticanonical(angles)
    minus_e = add_multiple(zero_class(model), -1, model.class_of(E))
    candidates = model.candidates
    r0 = {c: model.intersect(minus_k, model.class_of(c)) for c in candidates}
    r1 = {c: model.intersect(minus_e, model.class_of(c)) for c in candidates}
    d0 = model.intersect(minus_k, minus_k)
    d1 = 2 * model.intersect(minus_k, minus_e)
    d2 = model.intersect(minus_e, minus_e)
    context = f"E={E}, n={model.n}, m={model.m}"
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
        tau = reference_smallest_root_after(q0, q1, q2, x0, context)
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
    model = SurfaceModel(n, m)
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
    curves = [*model.candidates, GENERIC_FIBER] + [PULLBACK_C2] * (m == 0)
    return draw(st.sampled_from(curves)), model, angles


class TestPinnedCurves:
    def test_section_curve_two_pieces(self):
        pieces = volume_curve(C1TILDE, SurfaceModel(0, 2), Angles(HALF, HALF))
        assert len(pieces) == 2
        first, second = pieces
        assert (first.x_lo, first.x_hi) == (0, HALF)
        assert (first.q0, first.q1, first.q2) == (rat(7, 2), rat(-4), 0)
        assert first.negative_support == ()
        assert (second.x_lo, second.x_hi) == (HALF, rat(1))
        assert (second.q0, second.q1, second.q2) == (rat(4), rat(-6), rat(2))
        assert second.negative_support == (FiTilde(1), FiTilde(2))
        assert pieces[-1].x_hi == 1

    def test_exceptional_curve_four_pieces_n0(self):
        pieces = volume_curve(Ei(1), SurfaceModel(0, 2), Angles(rat(1, 4), HALF))
        assert [p.x_lo for p in pieces] == [0, rat(1, 4), rat(1), rat(2)]
        last = pieces[-1]
        assert last.x_hi == rat(9, 4)
        assert last.negative_support == (C2TILDE, Ei(2), FiTilde(1))
        # (2 + beta1 - x)^2 expanded.
        assert (last.q0, last.q1, last.q2) == (rat(81, 16), rat(-9, 2), rat(1))

    def test_thresholds(self):
        assert threshold(C1TILDE, SurfaceModel(1, 2), Angles(HALF, rat(2, 3))) == rat(7, 6)
        assert threshold(C2TILDE, SurfaceModel(1, 2), Angles(HALF, rat(2, 3))) == rat(7, 6)
        # n >= m: tau = 2 + (n-m) beta2.
        assert threshold(Ei(1), SurfaceModel(3, 1), Angles(rat(1, 3), HALF)) == rat(3)
        # n < m with (n-1) beta1 >= (m-n) beta2: tau = 2.
        assert threshold(Ei(1), SurfaceModel(2, 3), Angles(rat(3, 4), rat(1, 4))) == rat(2)

    def test_pinned_S_values(self):
        params = SurfaceModel(0, 2)
        angles = Angles(HALF, HALF)
        assert expected_vanishing_order(volume_curve(C1TILDE, params, angles)) == rat(19, 42)
        assert expected_vanishing_order(volume_curve(C2TILDE, params, angles)) == rat(23, 42)
        assert expected_vanishing_order(volume_curve(Ei(1), params, angles)) == rat(22, 21)
        assert expected_vanishing_order(volume_curve(FiTilde(1), params, angles)) == rat(1)
        s_generic = expected_vanishing_order(volume_curve(GENERIC_FIBER, params, angles))
        assert s_generic == rat(19, 21)
        # At the m = 2 condition point A/S = 1 on both sections and every E_i.
        condition = Angles(rat(63, 128), rat(21, 32))
        for curve in (C1TILDE, C2TILDE, Ei(1), Ei(2)):
            a = log_discrepancy(curve, params, condition)
            assert expected_vanishing_order(volume_curve(curve, params, condition)) == a

    def test_big_angle_S_value(self):
        # The m=1 condition point has angles above 1; formulas stay exact.
        params = SurfaceModel(0, 1)
        angles = Angles(rat(144, 125), rat(48, 25))
        assert expected_vanishing_order(volume_curve(Ei(1), params, angles)) == rat(202, 175)


class TestInvariants:
    @pytest.mark.parametrize("case", LEMMA_CASES)
    def test_piecewise_structure(self, rng, case):
        for _ in range(8):
            model, angles, curve = sample_case_input(rng, case)
            pieces = volume_curve(curve, model, angles)
            minus_k = model.log_anticanonical(angles)
            vol = model.intersect(minus_k, minus_k)
            assert pieces[0].x_lo == 0
            assert piece_value(pieces[0], rat(0)) == vol
            assert piece_value(pieces[-1], pieces[-1].x_hi) == 0
            # Derivative at 0+ is -2 (-K . E).
            pairing = model.intersect(minus_k, model.class_of(curve))
            assert pieces[0].q1 == -2 * pairing
            for left, right in zip(pieces, pieces[1:]):
                assert left.x_hi == right.x_lo
                assert piece_value(left, left.x_hi) == piece_value(right, right.x_lo)
                assert left.negative_support != right.negative_support or (
                    (left.q0, left.q1, left.q2) != (right.q0, right.q1, right.q2)
                )
            for piece in pieces:
                assert piece.x_lo < piece.x_hi
                # Nonincreasing: the derivative q1 + 2 q2 x at both endpoints.
                assert piece.q1 + 2 * piece.q2 * piece.x_lo <= 0
                assert piece.q1 + 2 * piece.q2 * piece.x_hi <= 0
                for cid in piece.negative_support:
                    assert cid in model.candidates

    def test_closed_form_regression_sampled(self, rng):
        for case in LEMMA_CASES:
            for _ in range(10):
                params, angles, curve = sample_case_input(rng, case)
                expect = closed_form_volume_curve(curve, params, angles)
                assert expect is not None
                assert volume_curve(curve, params, angles) == expect
                s = expected_vanishing_order(volume_curve(curve, params, angles))
                assert s == closed_form_S(curve, params, angles)
        # The fiber components and the generic fiber have a closed-form S
        # (but no closed-form curve).
        for _ in range(10):
            params = SurfaceModel(rng.randint(0, 6), rng.randint(1, 6))
            angles = sample_angles(rng, params)
            for curve in (FiTilde(rng.randint(1, params.m)), GENERIC_FIBER):
                s = expected_vanishing_order(volume_curve(curve, params, angles))
                assert s == closed_form_S(curve, params, angles)

    def test_closed_forms_never_call_the_sweep(self, monkeypatch, rng):
        # The oracle is independent of the route it checks: with the sweep,
        # its support growth and the bordered factor refusing every call,
        # under every name a module holds them by, the closed forms answer.
        routes = (volume_sweep, grow_support, border)

        def refuse(*args, **kwargs):
            raise AssertionError("the closed forms reached the sweep")

        for module in (closedforms, linalg, volumes, zariski):
            for name, value in list(vars(module).items()):
                if any(value is route for route in routes):
                    monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError, match="reached the sweep"):
            volume_curve(C1TILDE, SurfaceModel(1, 1), Angles(HALF, HALF))
        for case in LEMMA_CASES:
            params, angles, curve = sample_case_input(rng, case)
            assert closed_form_volume_curve(curve, params, angles) is not None
            assert closed_form_S(curve, params, angles) is not None
        params = SurfaceModel(rng.randint(0, 6), rng.randint(1, 6))
        angles = sample_angles(rng, params)
        assert closed_form_S(FiTilde(params.m), params, angles) is not None

    def test_S_bracket_relation(self, rng):
        # beta1 - S(C1tilde) = S(C2tilde) - beta2 = 2 bracket / vol.
        for _ in range(25):
            params = sample_surface(rng)
            angles = sample_angles(rng, params)
            s1 = expected_vanishing_order(volume_curve(C1TILDE, params, angles))
            s2 = expected_vanishing_order(volume_curve(C2TILDE, params, angles))
            gap = 2 * angle_bracket(params, angles) / total_volume(params, angles)
            assert angles.beta1 - s1 == gap
            assert s2 - angles.beta2 == gap

    def test_exceptional_case_classification(self):
        assert classify_exceptional_case(SurfaceModel(3, 2), Angles(HALF, HALF)) == "E-n-ge-m"
        assert classify_exceptional_case(
            SurfaceModel(2, 4), Angles(rat(3, 4), rat(1, 4))) == "E-c1-first"
        assert classify_exceptional_case(SurfaceModel(1, 2), Angles(HALF, HALF)) == "E-c2-first"
        assert classify_exceptional_case(SurfaceModel(0, 2), Angles(rat(1, 4), HALF)) == "E-n0"
        assert classify_exceptional_case(SurfaceModel(0, 0), Angles(HALF, HALF)) is None
        # Outside the validity inequality of the only applicable regime.
        assert classify_exceptional_case(SurfaceModel(0, 1), Angles(rat(3, 2), rat(3, 4))) is None


class TestSharedEngine:
    def test_jet_supports_match_rational_decompositions(self, rng):
        # The sweep grows each chamber's support over jets at its left wall;
        # the rational decomposition at the chamber's midpoint must agree.
        for _ in range(60):
            model = sample_surface(rng, n_max=4, m_max=4)
            angles = sample_angles(rng, model)
            minus_k = model.log_anticanonical(angles)
            for curve in model.candidates:
                for piece in volume_curve(curve, model, angles):
                    x = (piece.x_lo + piece.x_hi) / 2
                    d = add_multiple(minus_k, -x, model.class_of(curve))
                    assert zariski_decompose(model, d).support == piece.negative_support
                    assert volume(model, d) == piece_value(piece, x)

    @pytest.mark.parametrize(
        "curve, params, angles, solves",
        [
            (Ei(1), SurfaceModel(0, 2), Angles(HALF, HALF), 4),
            (C1TILDE, SurfaceModel(1, 2), Angles(HALF, rat(2, 3)), 2),
        ],
    )
    def test_sweep_solve_count(self, monkeypatch, curve, params, angles, solves):
        # Deterministic work on a cold cache: one factorisation per chamber
        # (a build of the kept support factor), so any re-factorisation
        # fails here.
        clear_per_surface_caches()
        builds = count_builds(monkeypatch, zariski, "_support_factor")
        volume_curve(curve, params, angles)
        assert len(builds) == solves

    @pytest.mark.parametrize("model, angles", [(SurfaceModel(0, 2), Angles(HALF, HALF)),
                                               (SurfaceModel(1, 3), Angles(HALF, rat(1, 3)))])
    def test_a_sweep_factors_once_per_distinct_support(self, monkeypatch, model, angles):
        # On a cold cache every support that growth meets is factored once
        # per surface, whichever curve's sweep meets it first: the empty
        # support of each sweep's first chamber among them.
        clear_per_surface_caches()
        builds = count_builds(monkeypatch, zariski, "_support_factor")
        kept, looked_up, supports = zariski._support_factor, [], []

        def recording(model, support):
            looked_up.append(support)
            return kept(model, support)

        def spy(model, column, start=(), curve=None):
            grown = grow_support(model, column, start, curve)
            supports.append(tuple(grown[0]))
            return grown

        monkeypatch.setattr("kedge.zariski._support_factor", recording)
        monkeypatch.setattr("kedge.volumes.grow_support", spy)
        for curve in (*model.candidates, GENERIC_FIBER):
            volume_curve(curve, model, angles)
        assert sorted(builds) == sorted(set(builds)) == sorted((s,) for s in set(looked_up))
        assert set(supports) <= set(looked_up)
        assert supports.count(()) == len(model.candidates) + 1

    def test_a_second_sweep_solves_only_its_value_column(self, monkeypatch):
        # E1's four chambers on (0, 2) have the same supports at (1/2, 1/2)
        # and at (2/5, 3/5).  The second sweep builds no factor and no slope
        # half, reading each of the four kept ones once, and solves one
        # column per chamber: the value's.
        model, curve = SurfaceModel(0, 2), Ei(1)
        clear_per_surface_caches()
        built = {name: count_builds(monkeypatch, zariski, name)
                 for name in ("_support_factor", "_slope_half")}
        first = volume_sweep(curve, model, Angles(HALF, HALF))
        solves, looked_up = [], {name: [] for name in built}

        def solving(factor, rhs):
            solves.append(rhs)
            return linalg.solve_factored(factor, rhs)

        def reading(name, kept):
            def read(*args):
                looked_up[name].append(args[1:])
                return kept(*args)

            return read

        monkeypatch.setattr("kedge.zariski.solve_factored", solving)
        for name in built:
            monkeypatch.setattr(zariski, name, reading(name, getattr(zariski, name)))
        builds = {name: len(keys) for name, keys in built.items()}
        second = volume_sweep(curve, model, Angles(rat(2, 5), rat(3, 5)))
        assert [p.negative_support for p in second] == [p.negative_support for p in first]
        assert len(second) == 4
        assert len(solves) == 4
        for name, keys in built.items():
            assert len(keys) == builds[name], name
            assert len(looked_up[name]) == 4, name

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(0, 6), m=st.integers(0, 6), seed=st.integers(0, 2**32))
    def test_a_cold_sweep_equals_the_warm_one(self, n, m, seed):
        # What the caches keep depends on the surface, the curve and the
        # support only: after cache_clear() every candidate's sweep and the
        # generic fiber's equal those made on the caches that earlier draws
        # (other surfaces and angles) and this one left, piece for piece.
        model = SurfaceModel(n, m)
        angles = sample_angles(random.Random(seed), model)
        curves = (*model.candidates, GENERIC_FIBER)
        warm = [volume_sweep(curve, model, angles) for curve in curves]
        again = [volume_sweep(curve, SurfaceModel(n, m), angles) for curve in curves]
        clear_per_surface_caches()
        cold = [volume_sweep(curve, SurfaceModel(n, m), angles) for curve in curves]
        assert warm == again == cold

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
        model = SurfaceModel(0, 2)
        angles = Angles(HALF, HALF)
        for curve in (*model.candidates, GENERIC_FIBER):
            rounds.clear()
            assert len(volume_curve(curve, model, angles)) == len(rounds)
        d = add_multiple(model.log_anticanonical(angles), rat(-3, 2), model.class_of(Ei(1)))
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
            (C1TILDE, SurfaceModel(0, 6), Angles(HALF, rat(1, 4)), HALF,
             [FiTilde(i) for i in range(1, 7)]),
            # Two curves, two scales: E2 at 2/1 and F~1 at 4/2, tied by
            # cross-multiplication.
            (Ei(1), SurfaceModel(0, 2), Angles(rat(2), HALF), rat(2), [Ei(2), FiTilde(1)]),
        ],
    )
    def test_curves_that_reach_one_wall_start_the_next_chamber(
        self, monkeypatch, curve, params, angles, wall, reach
    ):
        rounds = []

        def spy(model, column, start=(), curve=None):
            grown = grow_support(model, column, start, curve)
            rounds.append((list(start), grown[0]))
            return grown

        monkeypatch.setattr("kedge.volumes.grow_support", spy)
        pieces = volume_sweep(curve, params, angles)
        index = [p.x_lo for p in pieces].index(wall)
        (start, _), (_, support) = rounds[index], rounds[index - 1]
        assert start == support + [params.candidates.index(c) for c in reach]
        assert set(reach) <= set(pieces[index].negative_support)
        assert pieces == reference_volume_sweep(curve, params, angles)

    @pytest.mark.parametrize("params, angles", [(SurfaceModel(0, 2), Angles(HALF, HALF)),
                                                (SurfaceModel(1, 2), Angles(HALF, rat(2, 3)))])
    def test_intersect_count(self, monkeypatch, params, angles):
        # Every curve takes one path: the sweep reads d0 off the table, d1
        # and the slope column off E's pairings, and d2 = E^2 off the swept
        # curve's entry, which pairs E with itself once per surface; the
        # certificate pairs (-K_Delta)^2 and (-K_Delta).E.  Each pairing is
        # the one integer form ``pair``, and no Fraction is formed through
        # the generic intersect.  Candidates and the generic fiber alike,
        # on a cold cache: 3 pairings, then 2 on a second sweep.
        clear_per_surface_caches()
        pair, calls = SurfaceModel.pair, []

        def counting(self, x, y):
            calls.append((x, y))
            return pair(self, x, y)

        def refuse(*args):
            raise AssertionError("the sweep formed an intersection number")

        monkeypatch.setattr(SurfaceModel, "pair", counting)
        monkeypatch.setattr(SurfaceModel, "intersect", refuse)
        for curve in (*params.candidates, GENERIC_FIBER):
            calls.clear()
            volume_curve(curve, params, angles)
            assert len(calls) == 3
            calls.clear()
            volume_curve(curve, params, angles)
            assert len(calls) == 2

    def test_certificate_checks_the_volume_at_zero(self):
        # The first piece's q0 is d0's closed form; the certificate compares
        # it with (-K_Delta)^2 from the generic intersect.
        model, angles = SurfaceModel(0, 2), Angles(HALF, HALF)
        first, second = volume_curve(C1TILDE, model, angles)
        broken = (first._replace(q0=first.q0 + 1), second)
        with pytest.raises(DecompositionError, match=r"must equal \(-K_Delta\)\^2"):
            _certify_curve(C1TILDE, model, angles, broken)

    def test_certificate_checks_the_slope_at_zero(self):
        # The first chamber's support is empty (-K_Delta is ample), so the
        # first piece is D(x)^2 and its q1 is 2 (-K_Delta).(-E) from the
        # generic intersect.  A wrong d1 of 3/2 times the true one, with q0
        # right, would give S = 34139/48204 here instead of 191/206.
        model, angles = SurfaceModel(1, 3), Angles(HALF, rat(1, 3))
        first, *rest = volume_curve(FiTilde(1), model, angles)
        broken = (first._replace(q1=first.q1 * rat(3, 2)), *rest)
        with pytest.raises(DecompositionError,
                           match=r"^slope at x = 0 must equal 2 \(-K_Delta\)\.\(-E\)$"):
            _certify_curve(FiTilde(1), model, angles, broken)

    def test_certificate_compares_the_whole_volume_at_zero(self):
        # Halving q0 = 7/2 keeps its numerator: the comparison must read
        # both numerator and denominator.
        model, angles = SurfaceModel(0, 2), Angles(HALF, HALF)
        first, second = volume_curve(C1TILDE, model, angles)
        assert first.q0 == rat(7, 2)
        broken = (first._replace(q0=first.q0 / 2), second)
        with pytest.raises(DecompositionError, match=r"must equal \(-K_Delta\)\^2"):
            _certify_curve(C1TILDE, model, angles, broken)

    @pytest.mark.parametrize(
        "left, right",
        [((), ()), ((FiTilde(1),), ()), ((FiTilde(1),), (FiTilde(2),))],
    )
    def test_certificate_requires_growing_support(self, left, right):
        # The negative part only grows along the ray, so a wall whose
        # support does not grow strictly is an internal failure.
        model = SurfaceModel(0, 2)
        angles = Angles(HALF, HALF)
        first, second = volume_curve(C1TILDE, model, angles)
        _certify_curve(C1TILDE, model, angles, (first, second))
        broken = (first._replace(negative_support=left), second._replace(negative_support=right))
        with pytest.raises(DecompositionError, match="grow strictly"):
            _certify_curve(C1TILDE, model, angles, broken)

    @pytest.mark.parametrize("first_changes, second_changes, message", [
        ({"x_lo": rat(1, 4)}, {}, "start at x = 0"),
        ({}, {"q0": rat(5)}, "vanish at the threshold"),
        ({"x_hi": rat(1, 4)}, {}, "partition the interval"),
        # 5 - 7x + 2x^2 still vanishes at 1, but is 2, not 3/2, at 1/2.
        ({}, {"q0": rat(5), "q1": rat(-7)}, "continuous across walls"),
        # (x - 1)(1 - 8x) agrees with 4 - 6x + 2x^2 at both ends of
        # [1/2, 1] but rises at 1/2.
        ({}, {"q0": rat(-1), "q1": rat(9), "q2": rat(-8)}, "nonincreasing"),
    ], ids=["start", "vanish", "partition", "continuity", "monotone"])
    def test_certificate_refuses_a_broken_piece(self, first_changes, second_changes, message):
        # 7/2 - 4x on [0, 1/2], then 4 - 6x + 2x^2 on [1/2, 1]; each change
        # breaks one post-condition and keeps the ones checked before it.
        model, angles = SurfaceModel(0, 2), Angles(HALF, HALF)
        first, second = volume_curve(C1TILDE, model, angles)
        broken = (first._replace(**first_changes), second._replace(**second_changes))
        with pytest.raises(DecompositionError, match=message):
            _certify_curve(C1TILDE, model, angles, broken)

    def test_falling_coefficient_is_refused(self, monkeypatch):
        # No coefficient of the negative part falls along the ray, so the
        # sweep looks for no such wall; it refuses a chamber that has one.
        def falling(model, column, start=(), curve=None):
            support, scale, (values, slopes), residuals = grow_support(model, column, start, curve)
            return support, scale, ([a + 1 for a in values], [-1] * len(slopes)), residuals

        monkeypatch.setattr("kedge.volumes.grow_support", falling)
        with pytest.raises(DecompositionError, match="coefficient falls"):
            volume_curve(C1TILDE, SurfaceModel(0, 2), Angles(HALF, HALF))

    def test_support_growth_failure_is_refused(self, monkeypatch):
        def refusing(model, column, start=(), curve=None):
            raise NotPseudoeffective("synthetic")

        monkeypatch.setattr("kedge.volumes.grow_support", refusing)
        with pytest.raises(DecompositionError) as raised:
            volume_sweep(C1TILDE, SurfaceModel(0, 2), Angles(HALF, HALF))
        assert str(raised.value) == "jet support growth failed at x = 0+: synthetic"


class TestClosedForms:
    def test_sweep_input_matches_the_generic_lattice(self, monkeypatch, rng):
        # The sweep's first columns are L r0 and r1 in integers, L the angles'
        # common denominator: the value column it passes and the swept
        # curve's slope column, read next to it.  Its first chamber has an
        # empty support (-K_Delta is ample), so that piece is D(x)^2 itself.
        columns = []

        def spy(model, column, start=(), curve=None):
            columns.append((column, zariski.swept_curve(model, curve).slope))
            return grow_support(model, column, start, curve)

        monkeypatch.setattr("kedge.volumes.grow_support", spy)
        for n in range(7):
            for m in range(7):
                model = SurfaceModel(n, m)
                angles = sample_angles(rng, model)
                minus_k = model.log_anticanonical(angles)
                curves = model.candidates
                for curve in (*curves, GENERIC_FIBER) + (PULLBACK_C2,) * (m == 0):
                    columns.clear()
                    first = volume_sweep(curve, model, angles)[0]
                    minus_e = add_multiple(zero_class(model), -1, model.class_of(curve))
                    assert first.negative_support == ()
                    assert (first.q0, first.q1, first.q2) == (
                        model.intersect(minus_k, minus_k),
                        2 * model.intersect(minus_k, minus_e),
                        model.intersect(minus_e, minus_e),
                    )
                    r0, r1 = columns[0]
                    L = common_denominator(angles.beta1, angles.beta2)[0]
                    assert r0 == [L * model.intersect(minus_k, model.class_of(c)) for c in curves]
                    assert list(r1) == [model.intersect(minus_e, model.class_of(c)) for c in curves]
                    assert all(type(x) is int for x in (*r0, *r1))

    @settings(deadline=None)
    @given(st.lists(st.fractions(max_denominator=50).map(Rat), min_size=5, max_size=5))
    def test_piece_integral_matches_an_antiderivative(self, numbers):
        lo, hi, q0, q1, q2 = numbers
        piece = QuadraticPiece(lo, hi, q0, q1, q2, ())
        anti = lambda x: q0 * x + q1 * x * x / 2 + q2 * x * x * x / 3
        num, den = _piece_integral(piece)
        assert den > 0 and Rat(num, den) == anti(hi) - anti(lo)
        if q0:  # S divides by the first piece's q0 = vol(-K_Delta)
            assert expected_vanishing_order((piece,)) == (anti(hi) - anti(lo)) / q0

    def test_uncovered_curves_and_angles_have_no_closed_form(self):
        # The closed forms cover the sections and the E_i only; at n = 0 the
        # E_i regime needs beta1 <= 2 - m beta2.
        model, angles = SurfaceModel(1, 2), Angles(HALF, HALF)
        assert closed_form_volume_curve(FiTilde(1), model, angles) is None
        assert closed_form_volume_curve(GENERIC_FIBER, model, angles) is None
        model, angles = SurfaceModel(0, 2), Angles(rat(3, 2), HALF)
        assert classify_exceptional_case(model, angles) is None
        assert closed_form_volume_curve(Ei(1), model, angles) is None


class TestScalars:
    def test_log_discrepancy(self):
        params = SurfaceModel(1, 2)
        angles = Angles(rat(1, 3), rat(2, 3))
        assert log_discrepancy(C1TILDE, params, angles) == rat(1, 3)
        assert log_discrepancy(C2TILDE, params, angles) == rat(2, 3)
        assert log_discrepancy(Ei(2), params, angles) == 1
        assert log_discrepancy(FiTilde(1), params, angles) == 1
        assert log_discrepancy(GENERIC_FIBER, params, angles) == 1
        with pytest.raises(ValueError):
            log_discrepancy(PULLBACK_C2, params, angles)
        # With no blown-up points the pullback is the boundary curve itself.
        assert log_discrepancy(PULLBACK_C2, SurfaceModel(1, 0), angles) == rat(2, 3)

    def test_outside_ample_range(self):
        with pytest.raises(OutsideAmpleRange):
            volume_curve(C1TILDE, SurfaceModel(2, 0), Angles(rat(1), HALF))
        with pytest.raises(OutsideAmpleRange):
            expected_vanishing_order(volume_curve(Ei(1), SurfaceModel(0, 4), Angles(HALF, HALF)))

    def test_irrational_root_refused(self):
        # 2 - x^2 first vanishes at sqrt(2): must refuse, never approximate.
        # The chamber's integers give s L^2 vol = c0 + c1 (L x) + c2 (L x)^2.
        with pytest.raises(IrrationalThreshold, match=r"root of 2 \+ 0 x \+ -1 x\^2"):
            _smallest_root_after(2, 0, -1, 1, 1, rat(0), "synthetic")
        with pytest.raises(IrrationalThreshold, match=r"root of 1/9 \+ 0 x \+ -1/18 x\^2"):
            _smallest_root_after(8, 0, -1, 18, 2, rat(0), "synthetic")
        assert _smallest_root_after(4, 0, -1, 1, 1, rat(0), "synthetic") == 2
        assert _smallest_root_after(4, -4, 0, 1, 1, rat(0), "synthetic") == 1
        assert _smallest_root_after(16, 0, -1, 3, 2, rat(0), "synthetic") == 2
        # Both roots of (x - 2)(x - 3), either sign of c2, lie beyond 0:
        # the smaller one is tau; beyond 5/2 the larger one is.
        for sign in (1, -1):
            c0, c1, c2 = 6 * sign, -5 * sign, sign
            assert _smallest_root_after(c0, c1, c2, 1, 1, rat(0), "synthetic") == 2
            assert _smallest_root_after(c0, c1, c2, 1, 1, rat(5, 2), "synthetic") == 3

    @settings(deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
           st.integers(1, 12), st.integers(1, 12), st.fractions(0, 6, max_denominator=12))
    # Each refusal at least once, whatever the draws: a constant curve, a
    # linear root not beyond x0, no real root, and both roots at or before x0.
    @example(5, 0, 0, 1, 1, rat(0))
    @example(-2, -1, 0, 1, 1, rat(0))
    @example(1, 0, 1, 1, 1, rat(0))
    @example(6, -5, 1, 1, 1, rat(3))
    def test_root_matches_the_rational_reference(self, c0, c1, c2, s, L, x0):
        # Same root, or the same error with the same message, as the
        # rational form on q0 = c0 / (s L^2), q1 = c1 / (s L), q2 = c2 / s.
        x0 = Rat(x0)
        q = (Rat(c0, s * L * L), Rat(c1, s * L), Rat(c2, s))
        try:
            expected = reference_smallest_root_after(*q, x0, "synthetic")
        except (DecompositionError, IrrationalThreshold) as exc:
            with pytest.raises(type(exc)) as raised:
                _smallest_root_after(c0, c1, c2, s, L, x0, "synthetic")
            assert str(raised.value) == str(exc)
        else:
            assert _smallest_root_after(c0, c1, c2, s, L, x0, "synthetic") == expected
