"""Final statements: the angle condition and K-polystability.

``condition_sign`` is the sign of the angle bracket

    (beta1^2 - (n/3) beta1^3) - (beta2^2 + ((n-m)/3) beta2^3),

read as f1 - f2 from ``SurfaceModel.boundary_cubics``, which spells the
two cubics once for the verdict and the closed forms: f1 - f2 is 3 L^3
times the bracket.  The polystable verdict fires only when it is exactly
zero (the condition cuts a codimension-1 locus; no tolerance is
meaningful in exact arithmetic).

The torus route's side of the paper's theorem is one table,
``SurfaceModel.orbit_rows``: on the integers of ``delta_minimum``
every S_m orbit has a - s = 2 (alpha f1 + beta f2), with its row
(first name, size, alpha, beta).  Both cubics are positive on the ample
range.  Every verdict checks the exact identity FM = 2 (f2 - f1), FM
being 6 L^3 times the first moment of deg Psi; it is exactly the C~1 and
C~2 rows, since a0 - s0 = -2 FM and a1 - s1 = 2 FM, and it implies that
the Futaki sign -sign(FM) is the bracket's.  Off the condition locus one of those two rows is
negative, so delta < 1, which the verdict checks.  At a condition point,
f1 = f2 = f, the verdict checks every row, a - s = 2 (alpha + beta) f:
alpha + beta is 0 for C~1 and C~2, m - 2 for E_i and F~i and m for the
fibers, so delta = 1 unless m = 1, where E_i and F~i give delta < 1; it
checks those two as well.  ``rational_condition_point`` gives
exact points of that locus at every (n, m) from one formula, the line
through the cubic's node, with one split case: for m = 2n the locus holds
the diagonal.  The verdict cross-checks the
hypotheses of the theorems it invokes and raises InconsistencyError --
the repo's loudest alarm -- rather than returning a silently wrong
answer when one of them fails.

``decide`` is the one decision path.  It reads the angles' integer form
(L, P1, P2) and the torus route's ``delta_minimum`` and returns plain
values, so ``scan`` calls it for each grid point with no ``Angles``,
report, ``Verdict`` or Fraction formed, condition points included.  The
minimum keeps every A and S over one denominator, so delta = a_min / s_min,
and each check, the rows' too, compares integers.
``k_polystable`` wraps it and forms the ``Verdict`` and its one report.
The ample inequalities live in ``SurfaceModel.broken_ample_bound``, and
``sampling.sample_angles`` restates them on its raw draws (its docstring
says why).
"""
from __future__ import annotations

from typing import NamedTuple

from .picard import Angles, InconsistencyError
from .ratmath import Rat, exact, sign
from .tvariety import DeltaReport, delta_minimum

KPOLYSTABLE = "KPolystable"
NOT_KPOLYSTABLE = "NotKPolystable"
OUTSIDE_AMPLE_RANGE = "OutsideAmpleRange"
# The note off the condition locus, by the bracket's sign.
_OFF_LOCUS_NOTES = {1: "bracket sign +1; delta < 1", -1: "bracket sign -1; delta < 1"}


class NotFound(LookupError):
    """No condition point exists for the requested parameter."""


class Verdict(NamedTuple):
    """K-polystability verdict with the data that supports it."""

    status: str  # KPolystable | NotKPolystable | OutsideAmpleRange
    condition_sign: int
    delta: object  # Rat, or None when outside the ample range
    notes: tuple  # human-readable diagnostics
    report: DeltaReport | None = None

    @property
    def witnesses(self) -> tuple:
        """Names of valuations attaining delta (empty if N/A)."""
        return () if self.report is None else self.report.witnesses

    @property
    def witness(self):
        return next(iter(self.witnesses), None)


def condition_sign(model, angles: Angles) -> int:
    """Sign of the angle bracket; 0 is the polystability condition."""
    f1, f2 = model.boundary_cubics(*angles.scaled)
    return sign(f1 - f2)


def _check(condition: bool, message: str, *args):
    """Raise InconsistencyError unless ``condition``; format the message lazily."""
    if not condition:
        raise InconsistencyError(message.format(*args))


def decide(model, L: int, p1: int, p2: int) -> tuple:
    """The main decision on the angles' integer form (L, P1, P2):
    (status, condition sign, note, minimum), KPolystable iff the bracket
    vanishes and m != 1.

    Outside the ample range the note and the minimum are None.  Within it
    the minimum is the torus route's ``delta_minimum``, and every branch
    cross-checks the facts it relies on: the first moment FM equal to
    2 (f2 - f1), delta < 1 off the condition locus, and at a condition
    point (f1 = f2 = f) every orbit's a - s equal to 2 (alpha + beta) f,
    its row of ``SurfaceModel.orbit_rows``, then delta = 1, or
    delta < 1 for m = 1.  delta = a_min / s_min with s_min > 0, so each
    comparison of delta with 1 is one of integers, and no report, orbit
    name or Fraction is formed unless a check fails.
    """
    f1, f2 = model.boundary_cubics(L, p1, p2)
    csign = sign(f1 - f2)
    if model.broken_ample_bound(L, p1, p2):
        return OUTSIDE_AMPLE_RANGE, csign, None, None
    minimum = delta_minimum(model, L, p1, p2)
    a_min, s_min, fm, a, s, _ = minimum
    _check(fm == 2 * (f2 - f1),
           "torus-side first moment is not 2 (f2 - f1) at bracket sign {}", csign)
    if csign:
        _check(a_min < s_min, "delta must be < 1 off the condition locus")
        return NOT_KPOLYSTABLE, csign, _OFF_LOCUS_NOTES[csign], minimum

    for (first, _, alpha, beta), ai, si in zip(model.orbit_rows, a, s):
        _check(ai - si == 2 * (alpha + beta) * f1,
               "term {} breaks a - s = 2 (alpha + beta) f at a condition point", first)
    m = model.m
    if m == 1:
        _check(a_min < s_min, "m=1 exclusion requires delta < 1 on the condition locus")
        return NOT_KPOLYSTABLE, csign, "m=1 exclusion: condition holds but delta < 1", minimum
    if a_min != s_min:
        raise InconsistencyError(
            f"condition point must have delta = 1, got {Rat(a_min, s_min)}")
    branch = "toric (m=0)" if m == 0 else f"m={m}"
    return KPOLYSTABLE, csign, f"condition holds; {branch} branch hypotheses verified", minimum


def k_polystable(model, angles: Angles) -> Verdict:
    """``decide`` at ``angles``, as a ``Verdict``: within the ample range it
    carries delta and its witnesses from the torus route's report, and
    outside it the bound the angles break, in words."""
    L, p1, p2 = angles.scaled
    status, csign, note, minimum = decide(model, L, p1, p2)
    if minimum is None:
        return Verdict(status, csign, None, (model.ample_range_violation(angles),))
    report = DeltaReport(*minimum, model, L)
    return Verdict(status, csign, report.delta, (note,), report)


def rational_condition_point(model, s):
    """The exact condition point on the line through the node.

    The locus beta1^2 - (n/3) beta1^3 = beta2^2 + ((n - m)/3) beta2^3 is a
    plane cubic with a node at the origin, so it is rational: the line
    beta1 = s beta2 meets it in one more point,

        beta2 = 3 (s^2 - 1) / (n (s^3 + 1) - m),  beta1 = s beta2.

    For m = 2n the cubic splits as the diagonal times a conic with no
    ample point, and every diagonal point of the ample range is a
    condition point; there ``s`` is the coordinate and (s, s) is returned.

    NotFound when the line meets the cubic only at the node (s = 1 or
    n (s^3 + 1) = m), when a coordinate is not positive, or when the point
    is outside the ample range.  ``s`` is read as ``Angles`` reads an
    angle, by ``ratmath.exact``.
    """
    n, m = model.n, model.m
    s = exact(s, "s =")
    if m == 2 * n:
        b1 = b2 = s
    else:
        den = n * (s**3 + 1) - m
        if s == 1 or den == 0:
            raise NotFound(f"the line of slope {s} meets the condition locus only at the node")
        b2 = 3 * (s * s - 1) / den
        b1 = s * b2
    if b1 <= 0 or b2 <= 0:
        raise NotFound(f"condition point ({b1}, {b2}) is not positive")
    angles = Angles(b1, b2)
    if model.ample_range_violation(angles) is not None:
        raise NotFound(f"condition point ({b1}, {b2}) is outside the ample range")
    if condition_sign(model, angles) != 0:
        raise InconsistencyError("parametrized point misses the condition locus")
    return angles
