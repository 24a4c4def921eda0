"""Closed-form volume curves and expected-vanishing-order values.

Every quantity the sweep in :mod:`kedge.volumes` computes numerically has a
closed form for the named curves of the family: the restricted-volume curve
``x -> vol(-K - x C)`` is piecewise quadratic with explicitly known walls,
supports and coefficients, and the integrated quantity ``S(C)`` collapses to
a short polynomial in the angles.  This module writes those formulas down
directly, with no Zariski decomposition involved, so the two can be checked
against each other.

The exceptional-curve case splits into four regimes depending on how ``n``
compares with ``m`` and on which of the curves ``C1tilde``/``C2tilde`` enters
the negative part first.  Two of the regimes carry an extra inequality on the
angles (the formulas below assume the second wall sits to the right of the
first); outside that range :func:`closed_form_volume_curve` returns ``None``
and only the sweep applies.
"""

from __future__ import annotations

import dataclasses

from .picard import C1TILDE, C2TILDE, Ei, FiTilde, as_model
from .ratmath import Rat, ZERO, rat
from .volumes import PiecewiseQuadratic, QuadraticPiece

# Quadratics are coefficient triples (q0, q1, q2) for q0 + q1*x + q2*x^2.


def _lin_sq(c0, c1):
    """(c0 + c1*x)^2 as a coefficient triple."""
    c0 = rat(c0)
    c1 = rat(c1)
    return (c0 * c0, 2 * c0 * c1, c1 * c1)


def _lin_mul(a, b):
    a0, a1 = (rat(a[0]), rat(a[1]))
    b0, b1 = (rat(b[0]), rat(b[1]))
    return (a0 * b0, a0 * b1 + a1 * b0, a1 * b1)


def _scale(q, t):
    t = rat(t)
    return (q[0] * t, q[1] * t, q[2] * t)


def _shift(q, c):
    return (q[0] + rat(c), q[1], q[2])


# Case identifiers for the exceptional-curve regimes.  ``classify`` returns
# one of these (or None when no closed form covers the given angles).
CASE_N_GE_M = "E-n-ge-m"
CASE_C1_FIRST = "E-c1-first"
CASE_C2_FIRST = "E-c2-first"
CASE_N_ZERO = "E-n0"

EXCEPTIONAL_CASES = (CASE_N_GE_M, CASE_C1_FIRST, CASE_C2_FIRST, CASE_N_ZERO)


def classify_exceptional_case(params, angles) -> str | None:
    """Which closed-form regime covers ``vol(-K - x E_i)`` at these angles.

    Returns ``None`` when ``m == 0`` (no exceptional curves) or when the
    angles fall outside the validity range of the only candidate regime.
    """
    model = as_model(params)
    n, m = model.n, model.m
    if m == 0:
        return None
    b1, b2 = angles.beta1, angles.beta2
    if n >= m:
        return CASE_N_GE_M
    if n == 0:
        return CASE_N_ZERO if b1 <= 2 - m * b2 else None
    if (n - 1) * b1 >= (m - n) * b2:
        return CASE_C1_FIRST
    return CASE_C2_FIRST if b1 <= 2 - (m - n) * b2 else None


def total_volume(params, angles) -> Rat:
    """vol(-K) = 4(b1+b2) - n*b1^2 + (n-m)*b2^2."""
    model = as_model(params)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    return 4 * (b1 + b2) - n * b1 * b1 + (n - m) * b2 * b2


def angle_bracket(params, angles) -> Rat:
    """b1^2 - b2^2 - (n*b1^3 + (n-m)*b2^3)/3, the sign-carrying bracket.

    ``S(C1tilde) = b1 - 2*bracket/vol`` and ``S(C2tilde) = b2 + 2*bracket/vol``,
    and the bracket is also (vol/2 times) the barycenter of the fibration's
    weight measure, so its sign decides which ray degenerates.
    """
    model = as_model(params)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    return b1 * b1 - b2 * b2 - (n * b1**3 + (n - m) * b2**3) / Rat(3)


def closed_form_S(E, params, angles) -> Rat | None:
    """Expected vanishing order along ``E`` via the closed forms.

    Covers the four named-curve kinds; other curves return ``None``.
    """
    model = as_model(params)
    model.ensure_ample(angles)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    vol = total_volume(model.params, angles)
    if E.kind == "C1tilde":
        return b1 - 2 * angle_bracket(model.params, angles) / vol
    if E.kind == "C2tilde":
        return b2 + 2 * angle_bracket(model.params, angles) / vol
    if E.kind == "Ei":
        inner = (
            -(n - 2) * b1 * b1
            + (n - m) * b2 * b2
            + (n * (n - 2) * b1**3 + (n - m) ** 2 * b2**3) / Rat(3)
        )
        return 1 + inner / vol
    if E.kind == "FiTilde":
        inner = (
            -n * b1 * b1
            + (n - m + 2) * b2 * b2
            + (n * n * b1**3 + (n - m + 2) * (n - m) * b2**3) / Rat(3)
        )
        return 1 + inner / vol
    return None


def normalize_pieces(raw) -> tuple:
    """Merge neighbours with the same quadratic and support: at degenerate
    parameters (``m = 0`` for the sections, small n or m for ``E_i``) a
    closed-form wall separates two chambers that are one."""
    pieces: list[QuadraticPiece] = []
    for piece in raw:
        if pieces:
            prev = pieces[-1]
            same = (
                prev.x_hi == piece.x_lo
                and (prev.q0, prev.q1, prev.q2) == (piece.q0, piece.q1, piece.q2)
                and prev.negative_support == piece.negative_support
            )
            if same:
                pieces[-1] = dataclasses.replace(prev, x_hi=piece.x_hi)
                continue
        pieces.append(piece)
    return tuple(pieces)


def _freeze(raw_pieces) -> PiecewiseQuadratic:
    pieces = []
    for x_lo, x_hi, quad, support in raw_pieces:
        if x_lo == x_hi:
            continue
        q0, q1, q2 = quad()
        pieces.append(
            QuadraticPiece(
                x_lo=x_lo,
                x_hi=x_hi,
                q0=rat(q0),
                q1=rat(q1),
                q2=rat(q2),
                negative_support=support,
            )
        )
    return PiecewiseQuadratic(pieces=normalize_pieces(pieces))


def closed_form_volume_curve(E, params, angles) -> PiecewiseQuadratic | None:
    """The curve ``x -> vol(-K - x E)`` assembled from the closed forms.

    Returns ``None`` for curves or angle ranges the closed forms do not
    cover.  Degenerate chambers (``n = 1`` or ``n = m`` collapse a wall) are
    skipped before their formulas are evaluated, so no division by zero
    occurs.  Each support is listed in candidate order (C~1, C~2, E_i,
    F~i), as the sweep names it.
    """
    model = as_model(params)
    model.ensure_ample(angles)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    total = b1 + b2
    vol = total_volume(model.params, angles)

    if E.kind == "C1tilde":
        fs = tuple(FiTilde(i) for i in range(1, m + 1))
        raw = [
            (ZERO, b1, lambda: (vol, -2 * (2 - n * b1), rat(-n)), ()),
            (
                b1,
                total,
                lambda: _lin_mul((total, -1), (4 - (m - n) * (b2 - b1), n - m)),
                fs,
            ),
        ]
        return _freeze(raw)

    if E.kind == "C2tilde":
        es = tuple(Ei(i) for i in range(1, m + 1))
        raw = [
            (ZERO, b2, lambda: (vol, -2 * (2 - (m - n) * b2), rat(n - m)), ()),
            (
                b2,
                total,
                lambda: _lin_mul((total, -1), (4 - n * (b1 - b2), -n)),
                es,
            ),
        ]
        return _freeze(raw)

    if E.kind != "Ei":
        return None
    case = classify_exceptional_case(model.params, angles)
    if case is None:
        return None
    i = E.index
    fi = FiTilde(i)

    first = (ZERO, b1, lambda: (vol, -2 * b2, rat(-1)), ())

    def fiber_only():
        return (4 * total - (n - 1) * b1 * b1 + (n - m) * b2 * b2, -2 * total, ZERO)

    def with_c1():
        # (n-1)*(b2 + (2-x)/(n-1))^2 - (m-1)*b2^2, valid only when n > 1.
        sq = _scale(_lin_sq((n - 1) * b2 + 2, -1), Rat(1, n - 1))
        return _shift(sq, -(m - 1) * b2 * b2)

    def with_c1_c2():
        return _scale(_lin_sq(-2, 1), Rat(m - 1, (m - n) * (n - 1)))

    if case == CASE_N_GE_M:
        tau = 2 + (n - m) * b2
        raw = [
            first,
            (b1, 2 - (n - 1) * b1, fiber_only, (fi,)),
            (2 - (n - 1) * b1, rat(2), with_c1, (C1TILDE, fi)),
            (
                rat(2),
                tau,
                lambda: _scale(_lin_sq(tau, -1), Rat(1, n - m)),
                (C1TILDE, *(FiTilde(j) for j in range(1, m + 1))),
            ),
        ]
    elif case == CASE_C1_FIRST:
        raw = [
            first,
            (b1, 2 - (n - 1) * b1, fiber_only, (fi,)),
            (2 - (n - 1) * b1, 2 - (m - n) * b2, with_c1, (C1TILDE, fi)),
            (2 - (m - n) * b2, rat(2), with_c1_c2, (C1TILDE, C2TILDE, fi)),
        ]
    elif case == CASE_C2_FIRST:
        raw = [
            first,
            (b1, 2 - (m - n) * b2, fiber_only, (fi,)),
            (
                2 - (m - n) * b2,
                2 - (n - 1) * b1,
                lambda: _scale(
                    (4 + (m - n) * (4 - (n - 1) * b1) * b1, -2 * (2 + (m - n) * b1), rat(1)),
                    Rat(1, m - n),
                ),
                (C2TILDE, fi),
            ),
            (2 - (n - 1) * b1, rat(2), with_c1_c2, (C1TILDE, C2TILDE, fi)),
        ]
    else:  # CASE_N_ZERO
        others = tuple(Ei(j) for j in range(1, m + 1) if j != i)
        raw = [
            first,
            (b1, 2 - m * b2, fiber_only, (fi,)),
            (
                2 - m * b2,
                rat(2),
                lambda: _scale(
                    (4 + m * (4 + b1) * b1, -2 * (2 + m * b1), rat(1)), Rat(1, m)
                ),
                (C2TILDE, fi),
            ),
            (
                rat(2),
                2 + b1,
                lambda: _lin_sq(2 + b1, -1),
                (C2TILDE, *others, fi),
            ),
        ]
    return _freeze(raw)
