"""Exact volume curves x |-> vol(-K_{S,Delta} - x E) by symbolic chamber sweep.

The sweep works in pairing coordinates and in integers: it never builds
a divisor class inside the loop, and forms a rational only where a piece
leaves it.  Let L be the least common denominator of the angles and
b_i = L beta_i.  Then L (-K_Delta) = b1 C~1 + b2 C~2 + 2L F, so L r0,
the pairings (-K_Delta).C over the candidate curves C, is an integer
column read off the sparse candidate table, and so is
L^2 d0 = L^2 (-K_Delta)^2 = b1 L r0[C~1] + b2 L r0[C~2] + 2L (b1 + b2).
Every swept curve E, candidate or not, takes one path, through its
entry ``zariski.swept_curve``, formed once per surface: the slope column
r1 of D(x) = -K_Delta - x E is -(E.C) from ``pairings`` of E, L d1 = 2 L
(-K_Delta).(-E) = 2 (b1 r1[C~1] + b2 r1[C~2]) - 4L a_E, since F.E = a_E,
E's pi^* C2 coordinate, and d2 = E.E is E paired with itself.  Within a
chamber the Zariski negative support S is
constant, the support coefficients a(x) = G_S^{-1} r_S(x) are affine
in x, and, because P.N = 0, the volume P(x)^2 = D(x)^2 - a(x).r_S(x) is
an honest quadratic.  The sweep therefore never samples.  The support starts empty, because -K_Delta is
ample, and only grows: P(D) is the largest nef class below D, so
P(x') <= P(x) for x < x', and no coefficient of the negative part falls
(E never enters it: Lazarsfeld-Mustata, Ann. Sci. ENS 42 (2009),
section 6).

At each chamber's left end x0 = u/v, ``zariski.grow_support`` grows the
support on the value column v L r(x0) = v L r0 + u L r1, given with the
swept curve, whose slope column r1 it reads after the value,
lexicographically -- exact "x = x0 + epsilon" arithmetic.  It reads only
signs, so each column keeps its own positive scale.  The factor of a
support and the slope column's half of its solve depend on neither the
angles nor x: growth keeps one factor per surface and support and one
slope half per surface, curve and support, and solves only the value
column per chamber.  With s = |det G_S|, its last solve gives
s L a(x) = w + s a1 (L x), where w = s L a(0) = (s v L a(x0) - u L s a1) / v
is an exact division; so s L^2 vol(x) = c0 + c1 (L x) + c2 (L x)^2 with
integer c's.  A residual pairing that falls is P0 + (x - x0) P1 with
P1 < 0 in the same scales, and its root is (P0 - u L P1) / (-v L P1).
The least root is the next wall: roots are compared by
cross-multiplication, and every curve that reaches the least one starts
the next chamber's growth.  Each chamber becomes one ``QuadraticPiece``
with q0 = c0 / (s L^2), q1 = c1 / (s L) and q2 = c2 / s, and the volume
curve is the tuple of its pieces.  S is computed from the pieces by
``expected_vanishing_order``: each piece is integrated in closed form,
the integrals sum to one integer numerator over one denominator, and
one division by the first piece's q0 = vol(-K_Delta) ends it.
``_certify_curve`` checks that the support grew strictly
at every wall, so no two chambers ever merge.  The first chamber's
support is empty, because -K_Delta is ample, so the first piece is
D(x)^2 itself: the certificate compares its q0 with (-K_Delta)^2 and its
q1 with 2 (-K_Delta).(-E), both paired by ``SurfaceModel.pair`` on the
integer coordinates of L (-K_Delta) and of E's class, with no Fraction
formed, which checks d0 and d1 against the generic form.  It and the
continuity, vanishing and monotonicity checks cross-multiply the pieces'
numerators and denominators, on integers.

The sweep ends where the quadratic vanishes: that root is the
pseudoeffective threshold tau, found from c0, c1, c2 by an integer
square root.  A final quadratic with irrational roots raises
IrrationalThreshold instead of approximating.
"""
from __future__ import annotations

from .picard import (C1TILDE, C2TILDE, PULLBACK_C2, Angles, InconsistencyError,
                     QuadraticPiece, SurfaceModel)
from .ratmath import ZERO, Rat, isqrt_exact
from .zariski import DecompositionError, NotPseudoeffective, grow_support, swept_curve


class IrrationalThreshold(InconsistencyError):
    """The pseudoeffective threshold came out irrational, which this family rules out."""


def _numerators(piece: QuadraticPiece) -> tuple:
    """The piece's quadratic as integers (c0, c1, c2, d) with qk = ck / d:
    with qk = nk / dk, d = d0 d1 d2 and ck = nk d / dk."""
    q0, q1, q2 = piece.q0, piece.q1, piece.q2
    d0, d1, d2 = q0.denominator, q1.denominator, q2.denominator
    return q0.numerator * d1 * d2, q1.numerator * d0 * d2, q2.numerator * d0 * d1, d0 * d1 * d2


def _piece_integral(piece: QuadraticPiece) -> tuple:
    """Exact integral of the quadratic over [x_lo, x_hi],
    q0 D1 + q1 D2 / 2 + q2 D3 / 3 where Dk = x_hi^k - x_lo^k, as an
    integer numerator and a positive integer denominator.

    With qk = ck / d (``_numerators``), B the product of the endpoints'
    denominators, X = B x_hi and Y = B x_lo, it is (X - Y) (6 c0 B^2
    + 3 c1 B (X + Y) + 2 c2 (X^2 + X Y + Y^2)) over 6 d B^3."""
    lo, hi = piece.x_lo, piece.x_hi
    c0, c1, c2, d = _numerators(piece)
    B = lo.denominator * hi.denominator
    X, Y = hi.numerator * lo.denominator, lo.numerator * hi.denominator
    inner = 6 * c0 * B * B + 3 * c1 * B * (X + Y) + 2 * c2 * (X * X + X * Y + Y * Y)
    return (X - Y) * inner, 6 * d * B * B * B


def expected_vanishing_order(pieces: tuple):
    """S(E) = (integral of vol(-K_Delta - x E) over [0, tau]) / vol(-K_Delta),
    from the volume curve of E.  The pieces' integrals are summed as one
    integer numerator over one denominator; the first piece starts at
    x = 0, so vol(-K_Delta) is its q0, and S is the one Rat formed."""
    num, den = 0, 1
    for piece in pieces:
        p, q = _piece_integral(piece)
        num, den = num * q + p * den, den * q
    q0 = pieces[0].q0
    return Rat(num * q0.denominator, den * q0.numerator)


def _smallest_root_after(c0, c1, c2, s, L, x0, context: str):
    """Least root strictly right of x0 of the last chamber's volume, where
    s L^2 vol(x) = c0 + c1 X + c2 X^2 in X = L x (exact, on integers).

    Each root is num / den with den > 0 and is compared with x0 = u / v
    as num v against u den; tau is the one rational formed.  Raises
    IrrationalThreshold when the root exists but is irrational.
    """
    u, v = x0.numerator, x0.denominator
    if c2 == 0:
        if c1 == 0:
            raise DecompositionError(f"volume curve constant and positive ({context})")
        num, den = (-c0, c1 * L) if c1 > 0 else (c0, -c1 * L)
        if num * v <= u * den:
            raise DecompositionError(f"volume root {Rat(num, den)} not beyond {x0} ({context})")
        return Rat(num, den)
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        raise DecompositionError(f"volume quadratic has no real root ({context})")
    r = isqrt_exact(disc)
    if r is None:
        q0, q1, q2 = Rat(c0, s * L * L), Rat(c1, s * L), Rat(c2, s)
        raise IrrationalThreshold(
            f"threshold is an irrational root of {q0} + {q1} x + {q2} x^2 ({context})"
        )
    # The roots in X are (-c1 -+ r) / (2 c2), so x = num / (2 |c2| L), smaller first.
    den = 2 * abs(c2) * L
    for num in ((-c1 - r, -c1 + r) if c2 > 0 else (c1 - r, c1 + r)):
        if num * v > u * den:
            return Rat(num, den)
    raise DecompositionError(f"no volume root beyond {x0} ({context})")


def volume_sweep(E: str, model: SurfaceModel, angles: Angles) -> tuple:
    """Chamber decomposition of x |-> vol(-K_Delta - x E).

    One QuadraticPiece per chamber, in order; the last ends at tau.  The
    support starts empty (-K_Delta is ample) and each wall grows it.
    """
    model.ensure_ample(angles)
    candidates, table = model.candidates, model.candidate_table
    # Integers over L: r(x) = r0 + x r1 as L r0 and r1 by candidate index,
    # and D(x)^2 = d0 + d1 x + d2 x^2 as L^2 d0, L d1 and d2.
    L, b1, b2 = angles.scaled
    r0 = [0] * len(candidates)
    for j, g in table[0]:
        r0[j] += b1 * g
    for j, g in table[1]:
        r0[j] += b2 * g
    r0[0] += 2 * L  # F.C~1 = F.C~2 = 1
    r0[1] += 2 * L
    d0 = b1 * r0[0] + b2 * r0[1] + 2 * L * (b1 + b2)
    swept = swept_curve(model, E)
    r1 = swept.slope
    d1 = 2 * (b1 * r1[0] + b2 * r1[1]) - 4 * L * swept.fiber
    d2 = swept.square
    context = f"E={E}, n={model.n}, m={model.m}"

    pieces: list[QuadraticPiece] = []
    x0 = ZERO
    start: list[int] = []
    # Termination: a chamber ends where P(x).C falls to 0 for a curve C
    # outside the support, and the next chamber's growth starts from the
    # support plus every such C: every wall adds a curve, and there are at
    # most 2m + 2 walls.
    while True:
        u, v = x0.numerator, x0.denominator
        uL = u * L
        value = [v * a + uL * b for a, b in zip(r0, r1)]
        try:
            support, s, (a0, a1), (p0, p1) = grow_support(model, value, start, E)
        except NotPseudoeffective as exc:
            raise DecompositionError(f"jet support growth failed at x = {x0}+: {exc}") from None
        if any(a < 0 for a in a1):
            raise DecompositionError(f"a negative-part coefficient falls after {x0} ({context})")
        # s L a(x) = w + a1 (L x); s L^2 vol(x) = c0 + c1 (L x) + c2 (L x)^2.
        c0, c1, c2 = s * d0, s * d1, s * d2
        for c, a, t in zip(support, a0, a1):
            w = (a - uL * t) // v
            c0 -= w * r0[c]
            c1 -= w * r1[c] + t * r0[c]
            c2 -= t * r1[c]
        # After growth every residual pairing outside the support is
        # positive at x0+, so each falling one has a root strictly right of
        # x0: (P0 - u L P1) / (-v L P1), compared over the common v L.
        inside = set(support)
        wall, reach = None, []
        for c, t in enumerate(p1):
            if t < 0 and c not in inside:
                root = (p0[c] - uL * t, -t)
                if wall is None or root[0] * wall[1] < wall[0] * root[1]:
                    wall, reach = root, [c]
                elif root[0] * wall[1] == wall[0] * root[1]:
                    reach.append(c)
        named = tuple(candidates[c] for c, a, t in sorted(zip(support, a0, a1)) if a or t)
        q = (Rat(c0, s * L * L), Rat(c1, s * L), Rat(c2, s))
        if wall is not None:
            # L x = y / z at the wall; s L^2 vol there has the sign of
            # c0 z^2 + c1 y z + c2 y^2.
            y, z = wall[0], wall[1] * v
            if c0 * z * z + (c1 * z + c2 * y) * y > 0:
                x = Rat(y, z * L)
                pieces.append(QuadraticPiece(x0, x, *q, named))
                start, x0 = support + reach, x
                continue
        # Positive at x0, and not at the next wall if any: the least root beyond x0 is tau.
        tau = _smallest_root_after(c0, c1, c2, s, L, x0, context)
        pieces.append(QuadraticPiece(x0, tau, *q, named))
        return tuple(pieces)


def _jets(piece: QuadraticPiece) -> tuple:
    """Integers ((w, t) at x_lo, (w, t) at x_hi, d), with qk = ck / d
    (``_numerators``): at x = u / v the value is w / (d v^2), and the slope
    q1 + 2 q2 x is t / (d v), of the sign of t."""
    c0, c1, c2, d = _numerators(piece)
    ends = []
    for x in (piece.x_lo, piece.x_hi):
        u, v = x.numerator, x.denominator
        ends.append((c0 * v * v + (c1 * v + c2 * u) * u, c1 * v + 2 * c2 * u))
    return (*ends, d)


def _certify_curve(E: str, model: SurfaceModel, angles: Angles, pieces: tuple):
    """Cheap exact post-conditions on the volume curve of E: value and
    slope at x = 0, continuity, endpoints, monotonicity, and a negative
    support that grows strictly at every wall (the theorem the sweep
    rests on; it also means no two chambers ever merge).  The value and
    slope at x = 0 are compared with (-K_Delta)^2 and 2 (-K_Delta).(-E),
    paired by ``SurfaceModel.pair`` on the integer coordinates of
    L (-K_Delta) and of E's class (``swept_curve``); values and slopes at
    the endpoints are compared on integers (``_jets``)."""
    if not pieces or pieces[0].x_lo != 0:
        raise DecompositionError("volume curve must start at x = 0")
    q0, q1 = pieces[0].q0, pieces[0].q1
    minus_k = model.log_anticanonical(angles)
    k, L = minus_k.num, minus_k.den
    # (-K_Delta)^2 = pair(k, k) / L^2; q1 = -2 (-K_Delta).E = -2 pair(k, E) / L.
    if q0.numerator * L * L != model.pair(k, k) * q0.denominator:
        raise DecompositionError("volume at x = 0 must equal (-K_Delta)^2")
    if q1.numerator * L != -2 * model.pair(k, swept_curve(model, E).cls.num) * q1.denominator:
        raise DecompositionError("slope at x = 0 must equal 2 (-K_Delta).(-E)")
    jets = [_jets(piece) for piece in pieces]
    _, (w_tau, _), _ = jets[-1]
    if w_tau != 0:
        raise DecompositionError("volume must vanish at the threshold")
    for i in range(1, len(pieces)):
        left, right = pieces[i - 1], pieces[i]
        if left.x_hi != right.x_lo:
            raise DecompositionError("pieces must partition the interval")
        (_, (w, _), d), ((w_next, _), _, d_next) = jets[i - 1], jets[i]
        if w * d_next != w_next * d:  # both at the same x
            raise DecompositionError("volume curve must be continuous across walls")
        if not set(left.negative_support) < set(right.negative_support):
            raise DecompositionError("negative support must grow strictly at every wall")
    # The slope is affine on a piece: its sign at both ends bounds it.
    if any(lo[1] > 0 or hi[1] > 0 for lo, hi, _ in jets):
        raise DecompositionError("volume curve must be nonincreasing")


def volume_curve(E: str, model: SurfaceModel, angles: Angles) -> tuple:
    """Exact piecewise-quadratic x |-> vol(-K_Delta - x E) on [0, tau], certified."""
    pieces = volume_sweep(E, model, angles)
    _certify_curve(E, model, angles, pieces)
    return pieces


def log_discrepancy(E: str, model: SurfaceModel, angles: Angles):
    """A(E) = 1 minus the boundary coefficient along E.

    beta1 for C1tilde, beta2 for C2tilde, 1 for curves not in the
    boundary.  PullbackC2 is only a prime divisor when m = 0 (it is then
    the second boundary curve itself).  A name that is not a curve of
    the model is refused as ``class_of`` refuses it (ValueError).
    """
    if E == C1TILDE:
        return angles.beta1
    if E == C2TILDE:
        return angles.beta2
    if E == PULLBACK_C2:
        if model.m != 0:
            raise ValueError("PullbackC2 is not a prime divisor once points are blown up")
        return angles.beta2
    model.class_of(E)
    return Rat(1)
