"""Closed-form volume curves and expected-vanishing-order values.

Every quantity the sweep in :mod:`kedge.volumes` computes numerically has a
closed form for the named curves of the family: the restricted-volume curve
``x -> vol(-K - x C)`` is piecewise quadratic with explicitly known walls,
supports and coefficients, and the integrated quantity ``S(C)`` collapses to
a short polynomial in the angles.  This module writes those formulas down
directly, with no Zariski decomposition involved, so the two can be checked
against each other.

Each curve is a list of walls and one chamber per gap between neighbouring
walls: a thunk for the chamber's quadratic and the chamber's negative
support; a quadratic is a coefficient triple, written out or in one of the
two shapes ``k (c - x)^2 + s`` and ``(t - x)(c + d x)``.  A chamber of zero
width is skipped before its quadratic is evaluated, so the chambers that
collapse at ``n = 1`` or ``n = m``, whose quadratics would divide by zero,
are never formed.  The sections C~1 and C~2 share one two-chamber formula in
the angles and self-intersections of the two sections.  The exceptional-curve case splits into
four regimes depending on how ``n`` compares with ``m`` and on which of the
curves ``C1tilde``/``C2tilde`` enters the negative part first; the chamber
where ``C2tilde`` has entered alone is one formula, the ``E-c2-first``
middle chamber, which is also the ``E-n0`` third chamber at ``n = 0``.  Two
of the regimes carry an extra inequality on the angles (the second wall must
sit to the right of the first); outside that range
:func:`closed_form_volume_curve` returns ``None`` and only the sweep
applies.
"""

from __future__ import annotations

from itertools import pairwise

from .picard import C1TILDE, C2TILDE
from .ratmath import ONE, Rat, ZERO
from .volumes import PiecewiseQuadratic, QuadraticPiece


def _square(k, c, s=ZERO):
    """k (c - x)^2 + s as a coefficient triple (q0, q1, q2); k is a Rat."""
    return (k * c * c + s, -2 * k * c, k)


def _product(t, c, d):
    """(t - x)(c + d x) as a coefficient triple; d is a Rat."""
    return (t * c, t * d - c, -d)


# Case identifiers for the exceptional-curve regimes.  ``classify`` returns
# one of these (or None when no closed form covers the given angles).
CASE_N_GE_M = "E-n-ge-m"
CASE_C1_FIRST = "E-c1-first"
CASE_C2_FIRST = "E-c2-first"
CASE_N_ZERO = "E-n0"


def classify_exceptional_case(model, angles) -> str | None:
    """Which closed-form regime covers ``vol(-K - x E_i)`` at these angles.

    Returns ``None`` when ``m == 0`` (no exceptional curves) or when the
    angles fall outside the validity range of the only candidate regime.
    """
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


def total_volume(model, angles) -> Rat:
    """vol(-K) = 4(b1+b2) - n*b1^2 + (n-m)*b2^2."""
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    return 4 * (b1 + b2) - n * b1 * b1 + (n - m) * b2 * b2


def angle_bracket(model, angles) -> Rat:
    """b1^2 - b2^2 - (n*b1^3 + (n-m)*b2^3)/3, the sign-carrying bracket.

    ``S(C1tilde) = b1 - 2*bracket/vol`` and ``S(C2tilde) = b2 + 2*bracket/vol``,
    and the bracket is also (vol/2 times) the barycenter of the fibration's
    weight measure, so its sign decides which ray degenerates.
    """
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    return b1 * b1 - b2 * b2 - (n * b1**3 + (n - m) * b2**3) / Rat(3)


def closed_form_S(E, model, angles) -> Rat | None:
    """Expected vanishing order along ``E`` via the closed forms.

    Covers C~1, C~2 and every E_i and F~i, read off ``model.candidates``;
    other curves return ``None``.
    """
    model.ensure_ample(angles)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    vol = total_volume(model, angles)
    if E == C1TILDE:
        return b1 - 2 * angle_bracket(model, angles) / vol
    if E == C2TILDE:
        return b2 + 2 * angle_bracket(model, angles) / vol
    if E in model.candidates[2:m + 2]:  # E_1 ... E_m
        inner = (
            -(n - 2) * b1 * b1
            + (n - m) * b2 * b2
            + (n * (n - 2) * b1**3 + (n - m) ** 2 * b2**3) / Rat(3)
        )
        return 1 + inner / vol
    if E in model.candidates[m + 2:]:  # F~1 ... F~m
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
                pieces[-1] = prev._replace(x_hi=piece.x_hi)
                continue
        pieces.append(piece)
    return tuple(pieces)


def _freeze(walls, chambers) -> PiecewiseQuadratic:
    """One piece per chamber of nonzero width between consecutive walls,
    its thunk evaluated only then; neighbours that are one chamber merge."""
    pieces = [
        QuadraticPiece(lo, hi, *quadratic(), support)
        for (lo, hi), (quadratic, support) in zip(pairwise(walls), chambers, strict=True)
        if lo != hi
    ]
    return PiecewiseQuadratic(pieces=normalize_pieces(pieces))


def closed_form_volume_curve(E, model, angles) -> PiecewiseQuadratic | None:
    """The curve ``x -> vol(-K - x E)`` assembled from the closed forms.

    Returns ``None`` for curves or angle ranges the closed forms do not
    cover.  Each support is listed in candidate order (C~1, C~2, E_i,
    F~i), as the sweep names it.
    """
    model.ensure_ample(angles)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    total = b1 + b2
    vol = total_volume(model, angles)
    es, fs = model.candidates[2:m + 2], model.candidates[m + 2:]

    if E in (C1TILDE, C2TILDE):
        # One formula in the angle b and self-intersection e of E and of the
        # other section: -K.E = 2 + e b, and past x = b the fibre curves
        # meeting E join the support.
        if E == C1TILDE:
            (b, e), (b_other, e_other), joining = (b1, -n), (b2, n - m), fs
        else:
            (b, e), (b_other, e_other), joining = (b2, n - m), (b1, -n), es
        return _freeze((ZERO, b, total), (
            (lambda: (vol, -2 * (2 + e * b), Rat(e)), ()),
            (lambda: _product(total, 4 + e_other * (b_other - b), Rat(e_other)), joining),
        ))

    if E not in es:
        return None
    case = classify_exceptional_case(model, angles)
    if case is None:
        return None
    i = es.index(E)
    fi = fs[i]  # E_i's partner: E_i + F~i = F
    c1_wall, c2_wall, two = 2 - (n - 1) * b1, 2 - (m - n) * b2, Rat(2)
    # Every regime opens with the ample chamber and the fibre-only chamber.
    opening = (
        (lambda: (vol, -2 * b2, Rat(-1)), ()),
        (lambda: (4 * total - (n - 1) * b1 * b1 + (n - m) * b2 * b2, -2 * total, ZERO), (fi,)),
    )
    with_c1 = (lambda: _square(Rat(1, n - 1), 2 + (n - 1) * b2, -(m - 1) * b2 * b2),
               (C1TILDE, fi))
    with_c2 = (lambda: _square(Rat(1, m - n), 2 + (m - n) * b1, -(m - 1) * b1 * b1),
               (C2TILDE, fi))
    with_c1_c2 = (lambda: _square(Rat(m - 1, (m - n) * (n - 1)), 2), (C1TILDE, C2TILDE, fi))
    if case == CASE_N_GE_M:
        tau = 2 + (n - m) * b2
        last = (lambda: _square(Rat(1, n - m), tau), (C1TILDE, *fs))
        walls, chambers = (c1_wall, two, tau), (with_c1, last)
    elif case == CASE_C1_FIRST:
        walls, chambers = (c1_wall, c2_wall, two), (with_c1, with_c1_c2)
    elif case == CASE_C2_FIRST:
        walls, chambers = (c2_wall, c1_wall, two), (with_c2, with_c1_c2)
    else:  # CASE_N_ZERO
        others = es[:i] + es[i + 1:]
        last = (lambda: _square(ONE, 2 + b1), (C2TILDE, *others, fi))
        walls, chambers = (c2_wall, two, 2 + b1), (with_c2, last)
    return _freeze((ZERO, b1, *walls), (*opening, *chambers))
