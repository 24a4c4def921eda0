"""Picard lattice of the blown-up ruled surface: classes, pairing, cones."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kedge.linalg import signature
from kedge.picard import (
    Angles,
    C1TILDE,
    C2TILDE,
    CurveId,
    DivisorClass,
    Ei,
    FiTilde,
    GENERIC_FIBER,
    OutsideAmpleRange,
    PULLBACK_C2,
    SurfaceParams,
    as_model,
    parse_curve_id,
)
from kedge.ratmath import Rat, rat

small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
).map(lambda f: Rat(f.numerator) / Rat(f.denominator))


def test_surface_params_validation():
    assert SurfaceParams(2, 3).n == 2
    with pytest.raises(ValueError):
        SurfaceParams(-1, 0)
    with pytest.raises(ValueError):
        SurfaceParams(0, -2)


def test_angles_validation():
    a = Angles(rat(1, 2), rat(2, 3))
    assert (a.beta1, a.beta2) == (rat(1, 2), rat(2, 3))
    # Angles above 1 are accepted: the formulas stay exact.
    assert Angles(rat(3, 2), rat(1, 2)).beta1 == rat(3, 2)
    with pytest.raises(ValueError):
        Angles(rat(0), rat(1, 2))
    with pytest.raises(ValueError):
        Angles(rat(1, 2), rat(-1))


def test_curve_ids_and_labels():
    assert C1TILDE.label == "C1tilde"
    assert Ei(2).label == "E2"
    assert FiTilde(1).label == "F1tilde"
    assert GENERIC_FIBER.label == "GenericFiber"
    for cid in (C1TILDE, C2TILDE, Ei(3), FiTilde(7), GENERIC_FIBER, PULLBACK_C2):
        assert parse_curve_id(cid.label) == cid
    with pytest.raises(ValueError):
        CurveId("Ei")  # missing index
    with pytest.raises(ValueError):
        CurveId("C1tilde", 1)  # spurious index
    with pytest.raises(ValueError):
        parse_curve_id("E0")
    # Only what ``label`` writes: no leading zero, ASCII digits.
    for label in ("E01", "F02tilde", "F\u0663tilde", "E\u0663"):
        with pytest.raises(ValueError):
            parse_curve_id(label)
    assert parse_curve_id(" F3tilde ") == FiTilde(3)
    # At most three digits, refused before int() sees them.
    assert parse_curve_id("E999") == Ei(999)
    for label in ("E1000", "F1000tilde", "E" + "9" * 5000, "F" + "9" * 5000 + "tilde"):
        with pytest.raises(ValueError, match="unknown curve label"):
            parse_curve_id(label)
    with pytest.raises(ValueError):
        parse_curve_id("D5")


def test_divisor_class_arithmetic():
    d1 = DivisorClass(1, 2, (rat(1, 2),))
    d2 = DivisorClass(0, 1, (1,))
    assert d1 + d2 == DivisorClass(1, 3, (rat(3, 2),))
    assert d1 - d2 == DivisorClass(1, 1, (rat(-1, 2),))
    assert -d2 == DivisorClass(0, -1, (-1,))
    assert d2.scale(rat(2, 3)) == DivisorClass(0, rat(2, 3), (rat(2, 3),))
    with pytest.raises(ValueError):
        d1 + DivisorClass(0, 0, (1, 1))  # rank mismatch


def test_named_classes():
    model = as_model(SurfaceParams(2, 2))
    assert model.class_of(C1TILDE) == DivisorClass(1, -2, (0, 0))
    assert model.class_of(C2TILDE) == DivisorClass(1, 0, (1, 1))
    assert model.class_of(Ei(1)) == DivisorClass(0, 0, (-1, 0))
    assert model.class_of(FiTilde(2)) == DivisorClass(0, 1, (0, 1))
    assert model.class_of(GENERIC_FIBER) == DivisorClass(0, 1, (0, 0))
    assert model.class_of(PULLBACK_C2) == DivisorClass(1, 0, (0, 0))
    with pytest.raises(ValueError):
        model.class_of(Ei(3))  # only m=2 points blown up


def test_self_intersections():
    for n, m in [(0, 0), (0, 3), (2, 1), (3, 4)]:
        model = as_model(SurfaceParams(n, m))
        assert model.self_intersection(model.class_of(C1TILDE)) == -n
        assert model.self_intersection(model.class_of(C2TILDE)) == n - m
        assert model.self_intersection(model.class_of(GENERIC_FIBER)) == 0
        for i in range(1, m + 1):
            assert model.self_intersection(model.class_of(Ei(i))) == -1
            assert model.self_intersection(model.class_of(FiTilde(i))) == -1
            assert model.intersect(
                model.class_of(Ei(i)), model.class_of(FiTilde(i))
            ) == 1
        assert model.intersect(model.class_of(C1TILDE), model.class_of(C2TILDE)) == 0
        assert model.intersect(
            model.class_of(C1TILDE), model.class_of(GENERIC_FIBER)
        ) == 1


def test_fiber_decomposes_through_marked_points():
    model = as_model(SurfaceParams(1, 2))
    fiber = model.class_of(GENERIC_FIBER)
    for i in (1, 2):
        assert model.class_of(FiTilde(i)) + model.class_of(Ei(i)) == fiber


def test_lattice_signature():
    for n, m in [(0, 0), (1, 2), (3, 4)]:
        model = as_model(SurfaceParams(n, m))
        # Basis (pi*C2, pi*F, E_1..E_m): [[n, 1], [1, 0]] + (-I_m).
        basis = [DivisorClass(1, 0, (0,) * m), DivisorClass(0, 1, (0,) * m)]
        basis += [model.class_of(Ei(i)) for i in range(1, m + 1)]
        assert signature(model.gram_matrix(basis)) == (1, m + 1, 0)


@given(st.tuples(small_rats, small_rats, small_rats, small_rats, small_rats, small_rats))
def test_pairing_symmetric_bilinear(coords):
    model = as_model(SurfaceParams(2, 1))
    d1 = DivisorClass(coords[0], coords[1], (coords[2],))
    d2 = DivisorClass(coords[3], coords[4], (coords[5],))
    assert model.intersect(d1, d2) == model.intersect(d2, d1)
    assert model.intersect(d1 + d2, d2) == model.intersect(d1, d2) + model.intersect(d2, d2)
    assert model.intersect(d1.scale(rat(3, 2)), d2) == rat(3, 2) * model.intersect(d1, d2)


def test_closed_form_curve_pairings_match_intersect():
    for n in range(7):
        for m in range(7):
            model = as_model(SurfaceParams(n, m))
            curves = model.candidate_curves()
            table = [dict(row) for row in model.candidate_table]
            assert len(table) == len(curves)
            for i, row in enumerate(table):
                assert len(row) == len(model.candidate_table[i]), "one entry per pair"
                assert 0 not in row.values(), (n, m, i)
                assert all(table[j][i] == g for j, g in row.items()), "symmetric"
            for i, c1 in enumerate(curves):
                for j, c2 in enumerate(curves):
                    expected = model.intersect(model.class_of(c1), model.class_of(c2))
                    assert table[i].get(j, 0) == expected, (n, m, c1, c2)


@given(
    st.integers(min_value=0, max_value=6),
    st.lists(small_rats, min_size=2, max_size=8),
)
def test_closed_form_class_pairings_match_intersect(n, coords):
    model = as_model(SurfaceParams(n, len(coords) - 2))
    d = DivisorClass(coords[0], coords[1], tuple(coords[2:]))
    curves = model.candidate_curves()
    assert model.pairings(d) == [model.intersect(d, model.class_of(c)) for c in curves]
    for wrong_rank in (DivisorClass(d.a, d.b, d.c + (0,)), DivisorClass(-1, 0, d.c + (0,))):
        with pytest.raises(ValueError):
            model.pairings(wrong_rank)
        with pytest.raises(ValueError):
            model.is_nef(wrong_rank)


def anticanonical(model):
    """-K_S = 2 pi*C2 + (2-n) pi*F - sum E_i."""
    return DivisorClass(2, 2 - model.n, (1,) * model.m)


def test_anticanonical():
    # -K_S is the log anticanonical class at beta1 = beta2 = 1.
    for n, m in [(0, 0), (1, 1), (2, 3)]:
        model = as_model(SurfaceParams(n, m))
        mk = anticanonical(model)
        assert mk == model.log_anticanonical(Angles(1, 1))
        assert model.self_intersection(mk) == 8 - m


def test_log_anticanonical():
    model = as_model(SurfaceParams(2, 1))
    angles = Angles(rat(1, 2), rat(1, 3))
    d = model.log_anticanonical(angles)
    assert d == DivisorClass(rat(5, 6), 1, (rat(1, 3),))
    # -K_{S,Delta} = -K - (1-beta1) C1tilde - (1-beta2) C2tilde
    recon = (
        anticanonical(model)
        - model.class_of(C1TILDE).scale(1 - angles.beta1)
        - model.class_of(C2TILDE).scale(1 - angles.beta2)
    )
    assert d == recon
    assert model.self_intersection(d) == 4 * rat(5, 6) - 2 * rat(1, 4) + rat(1, 9)


def test_is_nef():
    model = as_model(SurfaceParams(2, 1))
    assert model.is_nef(model.class_of(GENERIC_FIBER))
    assert model.is_nef(model.class_of(PULLBACK_C2))
    assert not model.is_nef(model.class_of(Ei(1)))
    assert not model.is_nef(model.class_of(C1TILDE))
    assert not model.is_nef(DivisorClass(-1, 5, (0,)))
    assert model.is_nef(model.log_anticanonical(Angles(rat(1, 2), rat(1, 2))))


def test_ample_range():
    model = as_model(SurfaceParams(2, 4))
    assert model.ample_range_violation(Angles(rat(1, 2), rat(1, 2))) is None
    # beta1 = 2/n and beta2 = 2/(m-n) sit on the boundary: excluded.
    assert "beta1" in model.ample_range_violation(Angles(rat(1), rat(1, 2)))
    assert "beta2" in model.ample_range_violation(Angles(rat(1, 2), rat(1)))
    with pytest.raises(OutsideAmpleRange):
        model.ensure_ample(Angles(rat(1), rat(1, 2)))
    # n = m = 0 has no upper bounds at all.
    assert as_model(SurfaceParams(0, 0)).ample_range_violation(Angles(5, 7)) is None


def test_as_model_coercions():
    params = SurfaceParams(1, 2)
    model = as_model(params)
    assert as_model(params).params == params
    assert as_model(model) is model
    assert as_model((1, 2)).params == params
    with pytest.raises(TypeError):
        as_model("not a surface")
