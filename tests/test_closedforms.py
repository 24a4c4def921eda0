"""The closed-form oracle on the angles' integers against its rational
reference (``conftest.reference_closed_form_volume_curve`` and friends):
the same pieces, S values and ``None`` returns for every candidate curve,
the generic fiber and, at m = 0, the pulled-back section, over a grid of
surfaces and small-denominator angles in the ample range, and at each tie
of the exceptional-curve classification.  At m up to 200, where the
reference is not run, each oracle curve integrated by the sweep's S
(``volumes.expected_vanishing_order``) is the oracle's own S.  The oracle
loads no module of the sweep it checks."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import (reference_classify_exceptional_case, reference_closed_form_S,
                      reference_closed_form_volume_curve)

from kedge.closedforms import (CASE_C1_FIRST, CASE_C2_FIRST, CASE_N_ZERO,
                               classify_exceptional_case, closed_form_S,
                               closed_form_volume_curve)
from kedge.picard import (C1TILDE, C2TILDE, FIBER_P0, GENERIC_FIBER, PULLBACK_C2, Angles, Ei,
                          FiTilde, SurfaceModel)
from kedge.ratmath import Rat
from kedge.sampling import LEMMA_CASES
from kedge.volumes import expected_vanishing_order, volume_curve

# Every p/q in (0, 2] with q <= 3: the grid each angle is drawn from.
GRID = sorted({Rat(p, q) for q in range(1, 4) for p in range(1, 2 * q + 1)})


def axis(k: int) -> list:
    """The grid's angles below the ample bound 2/k (all when k <= 0),
    and a quarter and three quarters of that bound, so that every surface
    of the grid has angles."""
    if k <= 0:
        return GRID
    bound = Rat(2, k)
    return sorted({x for x in GRID if x < bound} | {bound / 4, 3 * bound / 4})


def curves(model) -> tuple:
    extra = (GENERIC_FIBER, PULLBACK_C2) if model.m == 0 else (GENERIC_FIBER,)
    return (*model.candidates, *extra)


def assert_matches_reference(model, angles):
    case = classify_exceptional_case(model, angles)
    assert case == reference_classify_exceptional_case(model, angles), (model, angles)
    for curve in curves(model):
        context = (model, angles, curve)
        got = closed_form_volume_curve(curve, model, angles)
        assert got == reference_closed_form_volume_curve(curve, model, angles), context
        s = closed_form_S(curve, model, angles)
        assert s == reference_closed_form_S(curve, model, angles), context
        assert s is None or type(s) is Rat
    return case


@pytest.mark.parametrize("n", range(8))
def test_integer_forms_match_the_reference(n):
    for m in range(9):
        model = SurfaceModel(n, m)
        for beta1 in axis(n):
            for beta2 in axis(m - n):
                assert_matches_reference(model, Angles(beta1, beta2))


def ties():
    """(model, angles, case) at each boundary of the classification."""
    for m in range(1, 9):
        # n = 0: beta1 = 2 - m beta2.
        for beta2 in (Rat(1, 2 * m), Rat(1, m), Rat(3, 2 * m)):
            yield SurfaceModel(0, m), Angles(2 - m * beta2, beta2), CASE_N_ZERO
        for n in range(1, m):
            k = m - n
            if n >= 2:  # (n - 1) beta1 = (m - n) beta2, with beta2 > 0
                t = Rat(1, n * k)
                yield SurfaceModel(n, m), Angles(k * t, (n - 1) * t), CASE_C1_FIRST
            # beta1 = 2 - (m - n) beta2, inside the C~2-first regime.
            beta2 = Rat(2 * n - 1, n * k)
            yield SurfaceModel(n, m), Angles(2 - k * beta2, beta2), CASE_C2_FIRST


def test_classification_ties_match_the_reference():
    seen = set()
    for model, angles, case in ties():
        assert model.ample_range_violation(angles) is None
        assert assert_matches_reference(model, angles) == case, (model, angles)
        seen.add(case)
    assert seen == {CASE_N_ZERO, CASE_C1_FIRST, CASE_C2_FIRST}


# The angles of the large-m check: fractions of the ample bounds.
FRACTIONS = (Rat(1, 7), Rat(1, 2), Rat(5, 6), Rat(99, 100))


def large_m_axis(k: int) -> list:
    """FRACTIONS of the ample bound 2/k, or of 2 when the angle has none
    (k <= 0)."""
    return [f * Rat(2, max(k, 1)) for f in FRACTIONS]


def test_oracle_curves_integrate_to_their_S_at_large_m():
    # The closed forms hold at every m; here each curve they give, integrated
    # by the sweep's S, is their own S, for the sections, E1 and Em.
    seen, compared = set(), 0
    for m in (20, 50, 120, 200):
        for n in sorted({0, 1, 3, m // 2, m - 1, m, m + 3}):
            model = SurfaceModel(n, m)
            for beta1 in large_m_axis(n):
                for beta2 in large_m_axis(m - n):
                    angles = Angles(beta1, beta2)
                    case = classify_exceptional_case(model, angles)
                    for curve in (C1TILDE, C2TILDE, Ei(1), Ei(m)):
                        pieces = closed_form_volume_curve(curve, model, angles)
                        if pieces is None:
                            continue
                        s = expected_vanishing_order(pieces)
                        assert s == closed_form_S(curve, model, angles), (model, angles, curve)
                        if curve == Ei(m):  # past the ample chamber, E_m's partner F~m
                            assert all(FiTilde(m) in piece.negative_support
                                       for piece in pieces[1:]), (model, angles)
                        seen.add(curve if curve in (C1TILDE, C2TILDE) else case)
                        compared += 1
    assert seen == set(LEMMA_CASES)
    assert compared == 1554  # of 1792: the rest lie outside an E_i regime's range


def test_a_name_that_is_no_curve_of_the_surface_is_refused():
    # The closed forms read a name through ``picard.orbit_of``, as
    # ``class_of`` does, and refuse what it refuses, with its message; the
    # pulled-back section is a curve with no closed form, and the generic
    # fiber has a closed-form S, the sweep's, but no closed-form curve.
    model, angles = SurfaceModel(0, 3), Angles(Rat(1, 2), Rat(1, 2))
    long_index = "E" + "9" * 5000
    for name in (Ei(7), long_index, FIBER_P0):
        with pytest.raises(ValueError) as expected:
            model.class_of(name)
        for oracle in (closed_form_S, closed_form_volume_curve):
            with pytest.raises(ValueError) as raised:
                oracle(name, model, angles)
            assert str(raised.value) == str(expected.value), (oracle, name[:8])
    assert str(expected.value) == "unknown curve name 'FiberP0'"
    with pytest.raises(ValueError, match=r"^curve E7 out of range for m=3$"):
        closed_form_S(Ei(7), model, angles)
    assert closed_form_S(GENERIC_FIBER, model, angles) == expected_vanishing_order(
        volume_curve(GENERIC_FIBER, model, angles))
    assert closed_form_S(PULLBACK_C2, model, angles) is None
    for name in (GENERIC_FIBER, PULLBACK_C2):
        assert closed_form_volume_curve(name, model, angles) is None


def test_the_oracle_loads_nothing_of_the_sweep():
    # Past what ``import kedge`` loads, the oracle adds only itself: not
    # ``volumes``, ``zariski`` or ``linalg``, the sweep it is checked against.
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = ("import sys\n"
              "import kedge\n"
              "before = {m for m in sys.modules if m.split('.')[0] == 'kedge'}\n"
              "import kedge.closedforms\n"
              "print(sorted({m for m in sys.modules if m.split('.')[0] == 'kedge'} - before))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "['kedge.closedforms']\n", "")
