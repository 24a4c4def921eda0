"""The main decision layer: bracket sign and polystability."""

import collections
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

import kedge.tvariety
import kedge.verdict
from kedge.picard import (
    C1TILDE,
    C2TILDE,
    Angles,
    Ei,
    FiTilde,
    GENERIC_FIBER,
    SurfaceModel,
)
from kedge.ratmath import RatParseError, sign
from kedge.sampling import sample_angles, sample_surface
from kedge.tvariety import Orbit, delta_minimum, delta_tvariety
from kedge.verdict import (
    KPOLYSTABLE,
    NOT_KPOLYSTABLE,
    OUTSIDE_AMPLE_RANGE,
    InconsistencyError,
    NotFound,
    _check,
    condition_sign,
    decide,
    k_polystable,
    rational_condition_point,
)
from kedge.volumes import expected_vanishing_order, volume_curve

from conftest import (Minimum, clear_per_surface_caches, count_builds, futaki_vanishes, rat,
                      tampered_minimum, with_delta)

HALF = rat(1, 2)
CONDITION_M2 = Angles(rat(63, 128), rat(21, 32))


class TestConditionSign:
    @pytest.mark.parametrize(
        "params, angles, expected",
        [
            (SurfaceModel(0, 2), Angles(HALF, HALF), 1),
            (SurfaceModel(0, 2), CONDITION_M2, 0),
            (SurfaceModel(0, 2), Angles(rat(1, 4), HALF), -1),
            (SurfaceModel(0, 1), Angles(rat(144, 125), rat(48, 25)), 0),
            (SurfaceModel(2, 0), Angles(rat(9, 14), rat(3, 7)), 0),
        ],
    )
    def test_values(self, params, angles, expected):
        assert condition_sign(params, angles) == expected

    @given(
        st.integers(0, 8), st.integers(0, 8),
        st.fractions(min_value=0, max_denominator=10**6).filter(bool),
        st.fractions(min_value=0, max_denominator=10**6).filter(bool),
    )
    def test_integer_bracket_matches_rational_bracket(self, n, m, beta1, beta2):
        # On any positive angles, ample or not.
        bracket = (beta1**2 - rat(n, 3) * beta1**3) - (beta2**2 + rat(n - m, 3) * beta2**3)
        assert condition_sign(SurfaceModel(n, m), Angles(beta1, beta2)) == sign(bracket)

    def test_equivalent_characterizations(self, rng):
        # One locus, four detectors: the bracket sign, the torus-side
        # Futaki sign, and the section expected orders against their
        # angles must all tell the same story.
        for _ in range(25):
            model = sample_surface(rng)
            angles = sample_angles(rng, model)
            cs = condition_sign(model, angles)
            assert futaki_vanishes(model, angles) == cs
            assert -sign(delta_tvariety(model, angles).FM) == cs
            s1 = expected_vanishing_order(volume_curve(C1TILDE, model, angles))
            s2 = expected_vanishing_order(volume_curve(C2TILDE, model, angles))
            assert sign(angles.beta1 - s1) == cs
            assert sign(s2 - angles.beta2) == cs


class TestVerdicts:
    def test_condition_point_m2(self):
        v = k_polystable(SurfaceModel(0, 2), CONDITION_M2)
        assert v.status == KPOLYSTABLE
        assert v.condition_sign == 0
        assert v.delta == 1
        assert v.witnesses == (
            "C1tilde", "C2tilde", "E1", "E2", "F1tilde", "F2tilde",
        )
        assert "m=2" in v.notes[0]

    def test_condition_point_m1_excluded(self):
        v = k_polystable(SurfaceModel(0, 1), Angles(rat(144, 125), rat(48, 25)))
        assert v.status == NOT_KPOLYSTABLE
        assert v.condition_sign == 0
        assert v.delta == rat(175, 202)
        assert v.witness == "E1"
        assert "m=1 exclusion" in v.notes[0]

    def test_generic_point(self):
        v = k_polystable(SurfaceModel(0, 2), Angles(HALF, HALF))
        assert v.status == NOT_KPOLYSTABLE
        assert v.condition_sign == 1
        assert v.delta == rat(21, 23)
        assert v.witness == "C2tilde"

    def test_perturbed_condition_point(self):
        v = k_polystable(SurfaceModel(0, 2), Angles(rat(63, 128) + rat(1, 1000), rat(21, 32)))
        assert v.status == NOT_KPOLYSTABLE
        assert v.condition_sign == 1
        assert v.delta == rat(627718875, 628223387)
        assert v.witness == "C2tilde"

    def test_outside_ample_range(self):
        # A condition point sitting exactly on the ample boundary: the
        # sign is still reported, delta is not.
        v = k_polystable(SurfaceModel(2, 0), Angles(rat(1), HALF))
        assert v.status == OUTSIDE_AMPLE_RANGE
        assert v.condition_sign == 0
        assert v.delta is None
        assert v.witnesses == ()
        assert v.witness is None
        assert v.notes

    def test_toric_condition_point(self):
        v = k_polystable(SurfaceModel(2, 0), Angles(rat(9, 14), rat(3, 7)))
        assert v.status == KPOLYSTABLE
        assert v.delta == 1
        assert v.witnesses == ("C1tilde", "C2tilde", "FiberP0", "GenericFiber")

    def test_many_points_condition_locus(self):
        model = SurfaceModel(0, 3)
        angles = rational_condition_point(model, rat(3, 4))
        v = k_polystable(model, angles)
        assert v.status == KPOLYSTABLE
        assert v.delta == 1
        assert v.witnesses == ("C1tilde", "C2tilde")

    def test_delta_at_most_one_sampled(self, rng):
        for _ in range(25):
            params = sample_surface(rng)
            angles = sample_angles(rng, params)
            v = k_polystable(params, angles)
            assert v.status in (KPOLYSTABLE, NOT_KPOLYSTABLE)
            assert v.delta <= 1
            if v.delta == 1:
                assert v.condition_sign == 0 and params.m != 1


class TestTorusWork:
    @pytest.mark.parametrize(
        "params, angles",
        [(SurfaceModel(0, 2), Angles(HALF, HALF)),
         (SurfaceModel(2, 0), Angles(rat(9, 14), rat(3, 7))),
         (SurfaceModel(0, 2), CONDITION_M2)],
        ids=["off-locus", "condition-m0", "condition-m2"],
    )
    def test_one_torus_pass_per_verdict(self, monkeypatch, params, angles):
        # Deterministic work: a second torus minimum, a second dual, a
        # second report or a second ample check fails here; on a cold cache
        # the certificate runs its three round trips on the surface's first
        # verdict only, and the surface's next verdict reads the kept one.
        # The orbit table is built by the surface's first condition point
        # only, and read from the cache after it.
        # delta is the one Fraction formed (by the report, not by the
        # decision) and no Fraction is compared:
        # every check, the rows' at a condition point too,
        # reads integers.  No term is formed and no name is spelled.
        clear_per_surface_caches()
        table_builds = count_builds(monkeypatch, SurfaceModel, "orbit_rows")
        rows_built = int(condition_sign(params, angles) == 0)
        calls = collections.Counter()
        targets = {
            "delta_minimum": (kedge.verdict, "delta_minimum"),
            "DeltaReport": (kedge.verdict, "DeltaReport"),
            "tvariety.DeltaReport": (kedge.tvariety, "DeltaReport"),
            "scaled_duals": (kedge.tvariety, "scaled_duals"),
            "legendre_dual": (kedge.tvariety, "legendre_dual"),
            "_encoded_class": (kedge.tvariety, "_encoded_class"),
            "Rat": (kedge.tvariety, "Rat"),
            "verdict.Rat": (kedge.verdict, "Rat"),
            "Orbit": (kedge.tvariety, "Orbit"),
            "names": (Orbit, "names"),
            "log_anticanonical": (SurfaceModel, "log_anticanonical"),
            "broken_ample_bound": (SurfaceModel, "broken_ample_bound"),
            "ample_range_violation": (SurfaceModel, "ample_range_violation"),
            "_richcmp": (Fraction, "_richcmp"),
            "__eq__": (Fraction, "__eq__"),
        }
        for key, (owner, name) in targets.items():
            def counting(*args, _key=key, _original=getattr(owner, name)):
                calls[_key] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counting)

        k_polystable(params, angles)
        assert calls == {
            "delta_minimum": 1, "DeltaReport": 1, "scaled_duals": 1, "_encoded_class": 3,
            "log_anticanonical": 3, "broken_ample_bound": 1, "Rat": 1,
        }
        assert len(table_builds) == rows_built
        for model in (params, SurfaceModel(params.n, params.m)):
            calls.clear()
            verdict = k_polystable(model, angles)
            assert calls == {"delta_minimum": 1, "DeltaReport": 1, "scaled_duals": 1,
                             "broken_ample_bound": 1, "Rat": 1}
        assert len(table_builds) == rows_built
        assert not hasattr(verdict.report, "terms")
        # Every integral is a dot product with the three hat weights; no
        # general PL type or pairwise product integrator is left.
        assert not hasattr(kedge.tvariety, "PLFunction")
        assert not hasattr(kedge.tvariety, "integrate_product")

    def test_orbit_table_is_built_once_per_surface(self, monkeypatch):
        # At a condition point ``decide`` checks every orbit against its row
        # of ``SurfaceModel.orbit_rows``: the surface's first condition point
        # builds the table and every later one reads the kept table.
        model = SurfaceModel(1, 3)
        points = []
        for q in range(2, 30):
            for p in range(1, q):
                try:
                    points.append(rational_condition_point(model, Fraction(p, q)))
                except NotFound:
                    pass
        builds = count_builds(monkeypatch, SurfaceModel, "orbit_rows")
        assert len(set(points)) >= 50
        for angles in points:
            assert decide(model, *angles.scaled)[0] == KPOLYSTABLE
        assert builds == [()]

    def test_no_candidate_names_on_the_torus_route(self, monkeypatch):
        # The verdict reads one record per S_m orbit, so a surface's first
        # verdict, on a cold cache, never reads or builds the 2m + 2
        # candidate names or either candidate table.
        def refuse(model):
            raise AssertionError("the torus route read a candidate table")

        clear_per_surface_caches()
        for name in ("candidates", "candidate_table", "candidate_coordinates"):
            monkeypatch.setattr(SurfaceModel, name, property(refuse))
        verdict = k_polystable(SurfaceModel(0, 200), Angles(HALF, rat(1, 400)))
        assert verdict.status == NOT_KPOLYSTABLE
        assert [(orbit.name, orbit.size) for orbit in verdict.report.orbits] == [
            ("C1tilde", 1), ("C2tilde", 1), ("E1", 200), ("F1tilde", 200),
            ("FiberP0", 1), ("GenericFiber", 1),
        ]


class TestM0Locus:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_parametrized_locus(self, n):
        model = SurfaceModel(n, 0)
        for t in [rat(3, 5), rat(2, 3), rat(7, 8)]:
            angles = rational_condition_point(model, 1 / t)
            assert condition_sign(model, angles) == 0
            v = k_polystable(model, angles)
            assert v.status == KPOLYSTABLE
            assert v.delta == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_boundary_of_ample_range(self, n):
        # The slope-2 point of the m = 0 locus, which the function refuses.
        model, angles = SurfaceModel(n, 0), Angles(rat(2, n), rat(1, n))
        with pytest.raises(NotFound, match="outside the ample range"):
            rational_condition_point(model, 2)
        v = k_polystable(model, angles)
        assert v.status == OUTSIDE_AMPLE_RANGE
        assert v.condition_sign == 0


class TestConditionPoints:
    def test_rational_parametrization_m2(self):
        assert rational_condition_point(SurfaceModel(0, 2), rat(3, 4)) == CONDITION_M2

    def test_rational_parametrization_m1(self):
        angles = rational_condition_point(SurfaceModel(0, 1), rat(3, 5))
        assert angles == Angles(rat(144, 125), rat(48, 25))

    def test_diagonal_for_toric_surface(self):
        assert rational_condition_point(SurfaceModel(0, 0), HALF) == Angles(HALF, HALF)
        with pytest.raises(NotFound):
            rational_condition_point(SurfaceModel(0, 0), rat(0))

    @pytest.mark.parametrize("s", [rat(0), rat(1), rat(5, 4)])
    def test_out_of_range_parameter(self, s):
        with pytest.raises(NotFound):
            rational_condition_point(SurfaceModel(0, 2), s)

    def test_bracket_for_ruled_surface(self):
        # Exact zeros of the angle bracket at n > 0.
        assert rational_condition_point(SurfaceModel(2, 0), rat(3, 2)) == Angles(
            rat(9, 14), rat(3, 7))
        assert rational_condition_point(SurfaceModel(1, 3), rat(2, 3)) == Angles(
            rat(15, 23), rat(45, 46))
        # At n = 0, m >= 3; test_tvariety.py takes this point as a literal.
        assert rational_condition_point(SurfaceModel(0, 3), rat(3, 4)) == Angles(
            rat(21, 64), rat(7, 16))

    def test_string_parameter_is_read_by_the_literal_grammar(self):
        # As Angles reads a string: the CLI's grammar and bounds, decimals
        # accepted, so "1e-100000" is refused at once instead of reaching
        # Python's int-digit limit after seconds of arithmetic.
        model = SurfaceModel(1, 3)
        assert rational_condition_point(model, " 2/3 ") == rational_condition_point(
            model, rat(2, 3))
        assert rational_condition_point(SurfaceModel(1, 2), "0.5") == Angles(HALF, HALF)
        for bad in ("1e-100000", "1_0", "\u0661"):
            with pytest.raises(RatParseError):
                rational_condition_point(model, bad)

    def test_diagonal_when_m_is_2n(self):
        # The cubic splits as the diagonal times a conic with no ample point.
        assert rational_condition_point(SurfaceModel(1, 2), HALF) == Angles(HALF, HALF)

    def test_no_root_cases(self):
        for params, s, reason in [
            (SurfaceModel(0, 2), rat(1), "only at the node"),
            (SurfaceModel(1, 9), rat(2), "only at the node"),  # n (s^3 + 1) = m
            (SurfaceModel(2, 1), HALF, r"\(-9/10, -9/5\) is not positive"),
            (SurfaceModel(1, 0), rat(2), "outside the ample range"),  # beta1 = 2/n
            # off the diagonal's ample part
            (SurfaceModel(1, 2), rat(2), "outside the ample range"),
        ]:
            with pytest.raises(NotFound, match=reason):
                rational_condition_point(params, s)

    def test_float_parameter_is_refused(self):
        # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10.
        with pytest.raises(ValueError) as raised:
            rational_condition_point(SurfaceModel(1, 2), 0.1)
        assert str(raised.value) == 's = 0.1 is a binary float; pass it exactly, as "p/q"'

    @pytest.mark.parametrize("value, read", [
        (1, rat(1)), (HALF, HALF), (" 1/2 ", HALF), ("0.1", rat(1, 10)), ("1e-3", rat(1, 1000)),
        (0.1, ValueError), (True, TypeError), (Decimal("0.5"), TypeError),
        (Decimal("1e-200000"), TypeError), (None, TypeError),
    ], ids=repr)
    def test_angles_and_condition_points_read_a_value_alike(self, value, read):
        # One reader, ratmath.exact, for an angle and for a slope: at (1, 2)
        # the condition point of slope s is (s, s), so both readers meet
        # every value, accept the same ones and refuse the rest with the
        # same exception.  A type other than int, Fraction and str is
        # refused before any arithmetic: a verdict on Decimal("1e-200000")
        # read through Fraction took seconds.
        model = SurfaceModel(1, 2)
        readers = [("angle", lambda v: Angles(v, HALF).beta1),
                   ("s =", lambda v: rational_condition_point(model, v).beta1)]
        for what, reader in readers:
            if isinstance(read, type):
                with pytest.raises(read) as raised:
                    reader(value)
                assert type(raised.value) is read
                assert str(raised.value) == (
                    f'{what} {value!r} is a binary float; pass it exactly, as "p/q"'
                    if read is ValueError
                    else f"{what} {value!r} is not an int, a Fraction or a str")
            elif isinstance(value, Fraction):
                assert reader(value) is value
            else:
                assert type(reader(value)) is Fraction and reader(value) == read

    def test_point_off_the_locus_is_an_inconsistency(self, monkeypatch):
        # The parametrization puts every point on the locus; the self-check
        # reads the bracket sign, so a sign that is never 0 makes it fire.
        monkeypatch.setattr("kedge.verdict.condition_sign", lambda model, angles: 1)
        with pytest.raises(InconsistencyError) as raised:
            rational_condition_point(SurfaceModel(1, 3), rat(7, 10))
        assert str(raised.value) == "parametrized point misses the condition locus"

    @given(
        st.integers(0, 4), st.integers(0, 6),
        st.integers(1, 13).flatmap(
            lambda q: st.integers(1, 2 * q - 1).map(lambda p: rat(p, q))),
    )
    @example(1, 3, rat(2, 3))
    @example(1, 2, HALF)  # the diagonal point (1/2, 1/2)
    # Most draws miss the locus's ample part and are rejected on purpose;
    # each kept draw runs a verdict and a sweep per curve.
    @settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_points_on_the_locus(self, n, m, s):
        model = SurfaceModel(n, m)
        try:
            angles = rational_condition_point(model, s)
        except NotFound:
            reject()
        b1, b2 = angles.beta1, angles.beta2
        assert b1 * b1 - rat(n, 3) * b1**3 == b2 * b2 + rat(n - m, 3) * b2**3
        v = k_polystable(model, angles)
        if m == 1:
            assert v.status == NOT_KPOLYSTABLE and v.delta < 1
        else:
            assert v.status == KPOLYSTABLE and v.delta == 1
        curves = [C1TILDE, C2TILDE, GENERIC_FIBER] + ([Ei(1), FiTilde(1)] if m else [])
        for curve in curves:
            swept = expected_vanishing_order(volume_curve(curve, model, angles))
            assert v.report.term(curve).S == swept


class TestCertification:
    """Each check reads the integers of the torus minimum: an orbit's A and
    S over one denominator D = 2 L VOL, and the least orbit's
    (a_min, s_min), with delta = a_min / s_min.  The tamperings set those
    integers, and ``decide`` refuses them."""

    @staticmethod
    def minimum(model, angles):
        return Minimum(*delta_minimum(model, *angles.scaled))

    @staticmethod
    def with_orbit_s(m, name, s):
        """A ``tampered_minimum`` tamper: the D S of the orbit led by
        ``name`` set to ``s(old)``."""
        firsts = [row[0] for row in SurfaceModel(0, m).orbit_rows]
        return lambda minimum: minimum._replace(s=tuple(
            s(old) if first == name else old for first, old in zip(firsts, minimum.s)))

    @staticmethod
    def refusal(call) -> str:
        with pytest.raises(InconsistencyError) as raised:
            call()
        return str(raised.value)

    def refused(self, monkeypatch, model, angles, tamper) -> str:
        """``decide``'s refusal at ``angles``, which it accepts untampered,
        with the torus minimum passed through ``tamper``."""
        assert decide(model, *angles.scaled)[0] in (KPOLYSTABLE, NOT_KPOLYSTABLE)
        monkeypatch.setattr(kedge.verdict, "delta_minimum",
                            tampered_minimum(kedge.verdict.delta_minimum, tamper))
        return self.refusal(lambda: decide(model, *angles.scaled))

    def test_tampered_term_is_caught(self, monkeypatch):
        # The E orbit's S doubled: E1 and E2 read A/S = 1/2, not 1.
        tamper = self.with_orbit_s(2, "E1", lambda s: 2 * s)
        assert self.refused(monkeypatch, SurfaceModel(0, 2), CONDITION_M2, tamper) == (
            "term E1 breaks a - s = 2 (alpha + beta) f at a condition point")

    def test_tampered_delta_is_caught(self, monkeypatch):
        tamper = with_delta(rat(9, 10))
        assert self.refused(monkeypatch, SurfaceModel(0, 2), CONDITION_M2, tamper) == (
            "condition point must have delta = 1, got 9/10")

    def test_flipped_futaki_sign_is_caught(self, monkeypatch):
        model, angles = SurfaceModel(0, 2), Angles(HALF, HALF)
        report = delta_tvariety(model, angles)
        assert -sign(report.FM) == condition_sign(model, angles) == 1
        flipped = tampered_minimum(kedge.verdict.delta_minimum,
                                   lambda minimum: minimum._replace(FM=-minimum.FM))
        monkeypatch.setattr(kedge.verdict, "delta_minimum", flipped)
        assert self.refusal(lambda: k_polystable(model, angles)) == (
            "torus-side first moment is not 2 (f2 - f1) at bracket sign 1")

    def test_tampered_ray_term_is_caught(self, monkeypatch):
        tamper = self.with_orbit_s(2, "C1tilde", lambda s: 2 * s)
        assert self.refused(monkeypatch, SurfaceModel(0, 2), CONDITION_M2, tamper) == (
            "term C1tilde breaks a - s = 2 (alpha + beta) f at a condition point")

    def test_tampered_toric_term_is_caught(self, monkeypatch):
        model = SurfaceModel(2, 0)
        tamper = self.with_orbit_s(0, "FiberP0", lambda s: 2 * s)
        angles = rational_condition_point(model, rat(3, 2))
        assert self.refused(monkeypatch, model, angles, tamper) == (
            "term FiberP0 breaks a - s = 2 (alpha + beta) f at a condition point")

    def test_tampered_fiber_orbit_at_m2_is_caught(self, monkeypatch):
        tamper = self.with_orbit_s(2, "F1tilde", lambda s: 2 * s)
        assert self.refused(monkeypatch, SurfaceModel(0, 2), CONDITION_M2, tamper) == (
            "term F1tilde breaks a - s = 2 (alpha + beta) f at a condition point")

    def test_vertical_term_equal_to_one_at_m3_is_caught(self, monkeypatch):
        # A/S = 1 exactly is not enough at m >= 3: the E orbit's S set to
        # A = 1, that is D S = D = 2 L VOL.
        model = SurfaceModel(0, 3)
        angles = rational_condition_point(model, rat(2, 3))
        den = 2 * angles.scaled[0] * self.minimum(model, angles).VOL
        tamper = self.with_orbit_s(3, "E1", lambda s: den)
        assert self.refused(monkeypatch, model, angles, tamper) == (
            "term E1 breaks a - s = 2 (alpha + beta) f at a condition point")

    @pytest.mark.parametrize("params, slope, delta, message", [
        (SurfaceModel(0, 2), None, rat(3, 2),
         "delta must be < 1 off the condition locus"),
        (SurfaceModel(0, 2), None, rat(1),
         "delta must be < 1 off the condition locus"),
        (SurfaceModel(0, 1), rat(3, 5), rat(1),
         "m=1 exclusion requires delta < 1 on the condition locus"),
        (SurfaceModel(0, 2), rat(3, 4), rat(3, 2),
         "condition point must have delta = 1, got 3/2"),
        (SurfaceModel(0, 1), rat(3, 5), rat(3, 2),
         "m=1 exclusion requires delta < 1 on the condition locus"),
    ], ids=["necessity-bound", "off-locus", "m1-exclusion", "above-1-at-m2", "above-1-at-m1"])
    def test_tampered_delta_in_the_verdict_is_caught(self, monkeypatch, params, slope, delta,
                                                      message):
        # delta above 1 is refused by the check of the point's branch.
        angles = Angles(HALF, HALF) if slope is None else rational_condition_point(params, slope)
        untampered = k_polystable(params, angles).delta
        assert untampered == 1 if slope is not None and params.m != 1 else untampered < 1
        monkeypatch.setattr(kedge.verdict, "delta_minimum",
                            tampered_minimum(kedge.verdict.delta_minimum, with_delta(delta)))
        assert self.refusal(lambda: k_polystable(params, angles)) == message

    def test_message_is_formatted_only_on_failure(self):
        class Unprintable:
            def __str__(self):
                raise ValueError("exceeds the int-to-str digit limit")

        _check(True, "delta = {}", Unprintable())
        with pytest.raises(InconsistencyError, match="delta = 3"):
            _check(False, "delta = {}", 3)

    def test_valuation_term_ratio(self):
        t = Orbit("C1tilde", 1, A=rat(3, 2), S=rat(3, 4))
        assert t.ratio == 2
        assert t._replace(S=rat(1, 2)).ratio == 3
