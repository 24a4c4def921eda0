"""Closed-form volume curves and expected-vanishing-order values.

Every quantity the sweep in :mod:`kedge.volumes` computes numerically has a
closed form for the named curves of the family: the restricted-volume curve
``x -> vol(-K - x C)`` is piecewise quadratic with explicitly known walls,
supports and coefficients, and the integrated quantity ``S(C)`` collapses to
a short polynomial in the angles.  This module writes those formulas down
directly, with no Zariski decomposition involved, so the two can be checked
against each other; it imports only the lattice (``picard``) and the
rationals (``ratmath``), nothing of the sweep.

Everything is computed on the angles' integer form (L, P1, P2)
(``Angles.scaled``), as the sweep is.  Each curve is a list of walls, each
an integer over L, and one chamber per gap between neighbouring walls:
the chamber's quadratic and its negative support.  A quadratic
q0 + q1 x + q2 x^2 is the integers (a0, a1, a2, d), with q0 = a0 / (d L^2),
q1 = a1 / (d L) and q2 = a2 / d, written out or in one of the two shapes
``k (c - x)^2 + s`` and ``(t - x)(c + d x)``.  A chamber of zero width is
skipped before its quadratic is divided out, so the chambers that collapse
at ``n = 1`` or ``n = m``, the only ones with d = 0, are never divided.
The sections C~1 and C~2 share one two-chamber formula in the angles and
self-intersections of the two sections.  The exceptional-curve
case splits into four regimes depending on how ``n`` compares with ``m``
and on which of the curves ``C1tilde``/``C2tilde`` enters the negative part
first, told apart on the integers; the chamber where ``C2tilde`` has
entered alone is one formula, the ``E-c2-first`` middle chamber, which is
also the ``E-n0`` third chamber at ``n = 0``.  Two of the regimes carry an
extra inequality on the angles (the second wall must sit to the right of
the first); outside that range :func:`closed_form_volume_curve` returns
``None`` and only the sweep applies.  A curve is returned as the tuple of
its ``QuadraticPiece``s, the form the sweep returns, so the two compare
with ``==``.  Each S, the generic fiber's too, is one ``Rat`` over 3 L V,
with V = L^2 vol(-K_Delta), its numerator 3 (L A) V - alpha f1 - beta f2:
(f1, f2) are the two cubics of the angle condition
(``SurfaceModel.boundary_cubics``) and (alpha, beta) is the curve's row of
``SurfaceModel.orbit_rows``, found by its first name: the table that the
torus route and the verdict read too.
"""

from __future__ import annotations

from itertools import pairwise

from .picard import C1TILDE, C2TILDE, E1, FiTilde, QuadraticPiece, orbit_of
from .ratmath import Rat


def _square(kn, kd, c, s=0):
    """k (c - x)^2 + s with k = kn / kd, c = C / L and s = S / L^2, given
    the integers C and S, as its numerators (a0, a1, a2, d)."""
    return kn * c * c + kd * s, -2 * kn * c, kn, kd


def _product(t, c, d):
    """(t - x)(c + d x) with t = T / L, c = C / L and an integer d, given
    the integers T and C, as its numerators (a0, a1, a2, 1)."""
    return t * c, t * d - c, -d, 1


def _scaled_volume(n, m, L, p1, p2) -> int:
    """V = L^2 vol(-K_Delta) = 4 L (P1 + P2) - n P1^2 + (n - m) P2^2."""
    return 4 * L * (p1 + p2) - n * p1 * p1 + (n - m) * p2 * p2


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
    Compared on the integers: beta1 <= 2 - m beta2 is P1 + m P2 <= 2 L.
    """
    n, m = model.n, model.m
    if m == 0:
        return None
    L, p1, p2 = angles.scaled
    if n >= m:
        return CASE_N_GE_M
    if n == 0:
        return CASE_N_ZERO if p1 + m * p2 <= 2 * L else None
    if (n - 1) * p1 >= (m - n) * p2:
        return CASE_C1_FIRST
    return CASE_C2_FIRST if p1 + (m - n) * p2 <= 2 * L else None


def closed_form_S(E, model, angles) -> Rat | None:
    """Expected vanishing order along ``E`` via the closed forms.

    Covers C~1, C~2, every E_i and F~i and the generic fiber, told apart
    by ``picard.orbit_of``; the pulled-back section returns ``None``, and
    a name that is not a curve of the surface is refused with
    ``class_of``'s ValueError.  S is one Rat over 3 L V, one formula for
    every curve: 3 (L A) V - alpha f1 - beta f2, with L A = P1, P2 or L,
    (f1, f2) the angle condition's cubics of ``boundary_cubics`` and
    (alpha, beta) the row of ``SurfaceModel.orbit_rows`` that the curve's
    first name heads (FiberP0, the torus route's name alone, heads a row
    that ``orbit_of`` never gives).  For C~1 and C~2 it is
    S = beta1 - 2 bracket / vol and beta2 + 2 bracket / vol.
    """
    model.ensure_ample(angles)
    n, m = model.n, model.m
    first, _ = orbit_of(E, m)
    row = next((row for row in model.orbit_rows if row[0] == first), None)
    if row is None:  # the pulled-back section heads no orbit
        return None
    _, _, alpha, beta = row
    L, p1, p2 = angles.scaled
    V = _scaled_volume(n, m, L, p1, p2)
    f1, f2 = model.boundary_cubics(L, p1, p2)
    la = {C1TILDE: p1, C2TILDE: p2}.get(first, L)
    return Rat(3 * la * V - alpha * f1 - beta * f2, 3 * L * V)


def _freeze(L, walls, chambers) -> tuple:
    """One piece per chamber of nonzero width between consecutive walls
    (integers over L), its quadratic q0 + q1 x + q2 x^2 divided out only
    then: q0 = a0 / (d L^2), q1 = a1 / (d L) and q2 = a2 / d.  A piece with
    the same quadratic and support as the one before extends it: at
    degenerate parameters (``m = 0`` for the sections, small n or m for
    ``E_i``) a closed-form wall separates two chambers that are one."""
    pieces: list[QuadraticPiece] = []
    for (lo, hi), ((a0, a1, a2, d), support) in zip(pairwise(walls), chambers, strict=True):
        if lo == hi:
            continue
        piece = QuadraticPiece(Rat(lo, L), Rat(hi, L), Rat(a0, d * L * L), Rat(a1, d * L),
                               Rat(a2, d), support)
        if pieces and piece[2:] == pieces[-1][2:]:  # same q0, q1, q2 and support
            pieces[-1] = pieces[-1]._replace(x_hi=piece.x_hi)
        else:
            pieces.append(piece)
    return tuple(pieces)


def closed_form_volume_curve(E, model, angles) -> tuple | None:
    """The curve ``x -> vol(-K - x E)`` assembled from the closed forms.

    Returns ``None`` for curves or angle ranges the closed forms do not
    cover, and refuses a name that is not a curve of the surface, as
    ``closed_form_S`` does.  Each support is listed in candidate order
    (C~1, C~2, E_i, F~i), as the sweep names it.  Walls and quadratics are
    read off (L, P1, P2): a wall w is the integer L w.
    """
    model.ensure_ample(angles)
    n, m = model.n, model.m
    first, i = orbit_of(E, m)
    L, p1, p2 = angles.scaled
    total = p1 + p2
    V = _scaled_volume(n, m, L, p1, p2)
    es, fs = model.candidates[2:m + 2], model.candidates[m + 2:]

    if E in (C1TILDE, C2TILDE):
        # One formula in the angle b and self-intersection e of E and of the
        # other section: -K.E = 2 + e b, and past x = b the fibre curves
        # meeting E join the support.
        if E == C1TILDE:
            (b, e), (b_other, e_other), joining = (p1, -n), (p2, n - m), fs
        else:
            (b, e), (b_other, e_other), joining = (p2, n - m), (p1, -n), es
        return _freeze(L, (0, b, total), (
            ((V, -2 * (2 * L + e * b), e, 1), ()),
            (_product(total, 4 * L + e_other * (b_other - b), e_other), joining),
        ))

    case = classify_exceptional_case(model, angles) if first == E1 else None
    if case is None:
        return None
    fi = FiTilde(i)  # E_i's partner: E_i + F~i = F
    c1_wall, c2_wall, two = 2 * L - (n - 1) * p1, 2 * L - (m - n) * p2, 2 * L
    # Every regime opens with the ample chamber and the fibre-only chamber.
    opening = (
        ((V, -2 * p2, -1, 1), ()),
        ((4 * L * total - (n - 1) * p1 * p1 + (n - m) * p2 * p2, -2 * total, 0, 1), (fi,)),
    )
    with_c1 = (_square(1, n - 1, 2 * L + (n - 1) * p2, -(m - 1) * p2 * p2), (C1TILDE, fi))
    with_c2 = (_square(1, m - n, 2 * L + (m - n) * p1, -(m - 1) * p1 * p1), (C2TILDE, fi))
    with_c1_c2 = (_square(m - 1, (m - n) * (n - 1), 2 * L), (C1TILDE, C2TILDE, fi))
    if case == CASE_N_GE_M:
        tau = 2 * L + (n - m) * p2
        last = (_square(1, n - m, tau), (C1TILDE, *fs))
        walls, chambers = (c1_wall, two, tau), (with_c1, last)
    elif case == CASE_C1_FIRST:
        walls, chambers = (c1_wall, c2_wall, two), (with_c1, with_c1_c2)
    elif case == CASE_C2_FIRST:
        walls, chambers = (c2_wall, c1_wall, two), (with_c2, with_c1_c2)
    else:  # CASE_N_ZERO
        others = es[:i - 1] + es[i:]
        last = (_square(1, 1, 2 * L + p1), (C2TILDE, *others, fi))
        walls, chambers = (c2_wall, two, 2 * L + p1), (with_c2, last)
    return _freeze(L, (0, p1, *walls), (*opening, *chambers))
