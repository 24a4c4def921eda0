"""Exact volume curves x |-> vol(-K_{S,Delta} - x E) by symbolic chamber sweep.

The sweep works in pairing coordinates: it never builds a divisor class
inside the loop.  It needs only the affine vector r(x) = r0 + x r1 of
pairings D(x).C over the candidate curves C, where D(x) = -K_Delta - x E,
kept as two rational lists by candidate index, the quadratic
D(x)^2 = d0 + d1 x + d2 x^2, and the sparse candidate table.  r0 is
``SurfaceModel.pairings`` of -K_Delta.  As
-K_Delta = beta1 C~1 + beta2 C~2 + 2F,
d0 = beta1 r0[C~1] + beta2 r0[C~2] + 2 (beta1 + beta2).  For a candidate
E, r1 is minus E's row of the table, d1 = -2 r0[E] and d2 = -r1[E]; only
the generic fiber and the pulled-back section, which are not candidates,
pair -E through the generic ``intersect``.  Within a chamber the Zariski
negative support S is constant, the support coefficients
a(x) = G_S^{-1} r_S(x) are affine in x, and, because P.N = 0, the volume
P(x)^2 = D(x)^2 - a(x).r_S(x) is an honest quadratic.  The sweep
therefore never samples.  The support starts empty, because -K_Delta is
ample, and only grows: P(D) is the largest nef class below D, so
P(x') <= P(x) for x < x', and no coefficient of the negative part falls
(E never enters it: Lazarsfeld-Mustata, Ann. Sci. ENS 42 (2009),
section 6).  At each chamber's left end x0, ``zariski.grow_support``
grows it on two columns, the value r(x0) and the slope r1, ordered
lexicographically -- exact "x = x0 + epsilon" arithmetic; its last solve,
read as an affine function of x, is the chamber's solution, and the next
wall is the least root of a residual pairing P(x).C that falls.  Each
chamber becomes one ``QuadraticPiece``, integrated in closed form.
``_certify_curve`` checks that the support grew strictly at every wall,
so no two chambers ever merge, and compares the first piece with
(-K_Delta)^2 from the generic ``intersect``, which checks d0.

The sweep ends where the quadratic vanishes: that root is the
pseudoeffective threshold tau.  A final quadratic with irrational roots
raises IrrationalThreshold instead of approximating.
"""
from __future__ import annotations

from dataclasses import dataclass

from .picard import Angles, CurveId, SurfaceModel, as_model
from .ratmath import ZERO, Rat, as_rat, sqrt_exact
from .zariski import DecompositionError, InconsistencyError, NotPseudoeffective, grow_support


class IrrationalThreshold(InconsistencyError):
    """The pseudoeffective threshold came out irrational, which this family rules out."""


@dataclass(frozen=True)
class QuadraticPiece:
    """Public piece of a volume curve: interval, quadratic, support."""

    x_lo: object
    x_hi: object
    q0: object
    q1: object
    q2: object
    negative_support: tuple  # CurveIds

    def value(self, x):
        x = as_rat(x)
        return self.q0 + x * (self.q1 + x * self.q2)

    def integral(self):
        """Exact integral of the quadratic over [x_lo, x_hi]:
        q0 D1 + q1 D2 / 2 + q2 D3 / 3, where Dk = x_hi^k - x_lo^k."""
        lo, hi = self.x_lo, self.x_hi
        lo2, hi2 = lo * lo, hi * hi
        return (self.q0 * (hi - lo) + self.q1 * (hi2 - lo2) / 2
                + self.q2 * (hi2 * hi - lo2 * lo) / 3)


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """Exact chambered representation of x |-> vol(-K_Delta - x E) on [0, tau]."""

    pieces: tuple  # QuadraticPiece, ordered, partitioning [0, tau]

    @property
    def x_lo(self):
        return self.pieces[0].x_lo

    @property
    def x_hi(self):
        return self.pieces[-1].x_hi

    @property
    def tau(self):
        return self.x_hi

    def value(self, x):
        x = as_rat(x)
        if x < self.x_lo or x > self.x_hi:
            raise ValueError(f"{x} outside [{self.x_lo}, {self.x_hi}]")
        for piece in self.pieces:
            if x <= piece.x_hi:
                return piece.value(x)
        raise AssertionError("unreachable: pieces partition the interval")

    def integral(self):
        return sum((piece.integral() for piece in self.pieces), ZERO)

    def expected_vanishing_order(self):
        """S(E) = integral / vol(-K_Delta), for the volume curve of E: the
        first piece starts at x = 0, so vol(-K_Delta) is its q0."""
        return self.integral() / self.pieces[0].q0


def _smallest_root_after(q0, q1, q2, x0, context: str):
    """Least root of q0 + q1 x + q2 x^2 strictly right of x0 (exact).

    Raises IrrationalThreshold when the root exists but is irrational.
    """
    if q2 == 0:
        if q1 == 0:
            raise DecompositionError(f"volume curve constant and positive ({context})")
        r = -q0 / q1
        if r <= x0:
            raise DecompositionError(f"volume root {r} not beyond {x0} ({context})")
        return r
    disc = q1 * q1 - 4 * q2 * q0
    if disc < 0:
        raise DecompositionError(f"volume quadratic has no real root ({context})")
    s = sqrt_exact(disc)
    if s is None:
        raise IrrationalThreshold(
            f"threshold is an irrational root of {q0} + {q1} x + {q2} x^2 ({context})"
        )
    roots = sorted({(-q1 - s) / (2 * q2), (-q1 + s) / (2 * q2)})
    for r in roots:
        if r > x0:
            return r
    raise DecompositionError(f"no volume root beyond {x0} ({context})")


def volume_sweep(E: CurveId, params, angles: Angles) -> tuple:
    """Chamber decomposition of x |-> vol(-K_Delta - x E).

    One QuadraticPiece per chamber, in order; the last ends at tau.  The
    support starts empty (-K_Delta is ample) and each wall grows it.
    """
    model = as_model(params)
    model.ensure_ample(angles)
    minus_k, candidates = model.log_anticanonical(angles), model.candidate_curves()
    # r(x) = r0 + x r1 by candidate index, and D(x)^2 = d0 + d1 x + d2 x^2.
    r0 = model.pairings(minus_k)
    # -K_Delta = beta1 C~1 + beta2 C~2 + 2F, and (-K_Delta).F = beta1 + beta2.
    b1, b2 = angles.beta1, angles.beta2
    d0 = b1 * r0[0] + b2 * r0[1] + 2 * (b1 + b2)
    if E in candidates:
        e, r1 = candidates.index(E), [ZERO] * len(candidates)
        for j, g in model.candidate_table[e]:
            r1[j] = Rat(-g)
        d1, d2 = -2 * r0[e], -r1[e]
    else:
        minus_e = -model.class_of(E)
        r1 = model.pairings(minus_e)
        d1, d2 = 2 * model.intersect(minus_k, minus_e), model.self_intersection(minus_e)
    context = f"E={E.label}, n={model.n}, m={model.m}"

    pieces: list[QuadraticPiece] = []
    x0 = Rat(0)
    start: list[int] = []
    # Termination: a chamber ends where P(x).C falls to 0 for a curve C
    # outside the support, and the next chamber's growth starts from the
    # support plus every such C: every wall adds a curve, and there are at
    # most 2m + 2 walls.
    while True:
        value = [v + x0 * s if s else v for v, s in zip(r0, r1)]
        try:
            support, (a0, a1), (p0, p1) = grow_support(model, (value, r1), start)
        except NotPseudoeffective as exc:
            raise DecompositionError(f"jet support growth failed at x = {x0}+: {exc}") from None
        if any(s < 0 for s in a1):
            raise DecompositionError(f"a negative-part coefficient falls after {x0} ({context})")
        # a(x) = a0 + (x - x0) a1; vol(x) = D(x)^2 - a(x).r_S(x).
        q0, q1, q2 = d0, d1, d2
        for c, a, s in zip(support, a0, a1):
            const = a - x0 * s
            q0 = q0 - const * r0[c]
            q1 = q1 - const * r1[c] - s * r0[c]
            q2 = q2 - s * r1[c]
        # After growth every residual pairing outside the support is
        # positive at x0+, so each falling one has a root strictly right of x0.
        inside = set(support)
        roots = {c: x0 - p0[c] / s for c, s in enumerate(p1) if s < 0 and c not in inside}
        wall = min(roots.values(), default=None)
        named = tuple(candidates[c] for c, a, s in sorted(zip(support, a0, a1)) if a or s)
        if wall is not None and q0 + wall * (q1 + wall * q2) > 0:
            pieces.append(QuadraticPiece(x0, wall, q0, q1, q2, named))
            start = support + [c for c, root in roots.items() if root == wall]
            x0 = wall
            continue
        # Positive at x0, and not at the next wall if any: the least root beyond x0 is tau.
        tau = _smallest_root_after(q0, q1, q2, x0, context)
        pieces.append(QuadraticPiece(x0, tau, q0, q1, q2, named))
        return tuple(pieces)


def _certify_curve(model: SurfaceModel, angles: Angles, curve: PiecewiseQuadratic):
    """Cheap exact post-conditions: continuity, endpoints, monotonicity,
    and a negative support that grows strictly at every wall (the theorem
    the sweep rests on; it also means no two chambers ever merge)."""
    pieces = curve.pieces
    if not pieces or pieces[0].x_lo != 0:
        raise DecompositionError("volume curve must start at x = 0")
    minus_k = model.log_anticanonical(angles)
    if pieces[0].q0 != model.self_intersection(minus_k):
        raise DecompositionError("volume at x = 0 must equal (-K_Delta)^2")
    if pieces[-1].value(pieces[-1].x_hi) != 0:
        raise DecompositionError("volume must vanish at the threshold")
    for left, right in zip(pieces, pieces[1:]):
        if left.x_hi != right.x_lo:
            raise DecompositionError("pieces must partition the interval")
        if left.value(left.x_hi) != right.value(right.x_lo):
            raise DecompositionError("volume curve must be continuous across walls")
        if not set(left.negative_support) < set(right.negative_support):
            raise DecompositionError("negative support must grow strictly at every wall")
    for piece in pieces:
        # derivative q1 + 2 q2 x is affine: checking both endpoints
        # bounds it on the whole piece
        for x in (piece.x_lo, piece.x_hi):
            if piece.q1 + 2 * piece.q2 * x > 0:
                raise DecompositionError("volume curve must be nonincreasing")


def volume_curve(E: CurveId, params, angles: Angles) -> PiecewiseQuadratic:
    """Exact piecewise-quadratic x |-> vol(-K_Delta - x E) on [0, tau]."""
    model = as_model(params)
    curve = PiecewiseQuadratic(pieces=volume_sweep(E, model, angles))
    _certify_curve(model, angles, curve)
    return curve


def expected_vanishing_order(E: CurveId, params, angles: Angles):
    """S(E) = (1/vol(-K_Delta)) * integral_0^tau vol(-K_Delta - x E) dx."""
    return volume_curve(E, params, angles).expected_vanishing_order()


def log_discrepancy(E: CurveId, params, angles: Angles):
    """A(E) = 1 minus the boundary coefficient along E.

    beta1 for C1tilde, beta2 for C2tilde, 1 for curves not in the
    boundary.  PullbackC2 is only a prime divisor when m = 0 (it is then
    the second boundary curve itself).
    """
    model = as_model(params)
    if E.kind == "C1tilde":
        return angles.beta1
    if E.kind == "C2tilde":
        return angles.beta2
    if E.kind == "PullbackC2":
        if model.m != 0:
            raise ValueError("PullbackC2 is not a prime divisor once points are blown up")
        return angles.beta2
    return Rat(1)
