"""Final statements: the angle condition and K-polystability.

``condition_sign`` evaluates the sign of the angle bracket

    (beta1^2 - (n/3) beta1^3) - (beta2^2 + ((n-m)/3) beta2^3)

directly as a polynomial; it must agree with the torus-side Futaki sign
on every input, and the polystable verdict fires only when it is
exactly zero (the condition cuts a codimension-1 locus; no tolerance is
meaningful in exact arithmetic).  The verdict cross-checks the
hypotheses of the theorems it invokes and raises InconsistencyError --
the repo's loudest alarm -- rather than returning a silently wrong
answer when one of them fails.
"""
from __future__ import annotations

from dataclasses import dataclass

from .picard import Angles, as_model
from .ratmath import Rat, common_denominator, sign
from .tvariety import DeltaReport, _delta_tvariety
from .zariski import InconsistencyError

KPOLYSTABLE = "KPolystable"
NOT_KPOLYSTABLE = "NotKPolystable"
OUTSIDE_AMPLE_RANGE = "OutsideAmpleRange"


class NotFound(LookupError):
    """No condition point exists for the requested parameter."""


@dataclass(frozen=True)
class Verdict:
    """K-polystability verdict with the data that supports it."""

    status: str  # KPolystable | NotKPolystable | OutsideAmpleRange
    condition_sign: int
    delta: object  # Rat, or None when outside the ample range
    witnesses: tuple  # names of valuations attaining delta (empty if N/A)
    notes: tuple  # human-readable diagnostics
    report: DeltaReport | None = None

    @property
    def witness(self):
        return self.witnesses[0] if self.witnesses else None


def condition_sign(params, angles: Angles) -> int:
    """Sign of the angle bracket; 0 is the polystability condition.

    With L the common denominator of the angles and P_i = L beta_i,
    3 L^3 times the bracket is the integer
    3 P1^2 L - n P1^3 - 3 P2^2 L - (n - m) P2^3."""
    return _bracket_sign(as_model(params), *common_denominator(angles.beta1, angles.beta2))


def _bracket_sign(model, L: int, p1: int, p2: int) -> int:
    """``condition_sign`` from L and P_i = L beta_i."""
    n, m = model.n, model.m
    return sign(3 * p1 * p1 * L - n * p1**3 - 3 * p2 * p2 * L - (n - m) * p2**3)


def _check(condition: bool, message: str, *args):
    """Raise InconsistencyError unless ``condition``; format the message lazily."""
    if not condition:
        raise InconsistencyError(message.format(*args))


def _certify_polystable_branch(m: int, report: DeltaReport):
    """Verify the hypotheses of the theorems behind the delta = 1 verdict,
    once per S_m orbit: an orbit's terms share one A and one S, and each
    check names the orbit's first curve."""
    den = 2 * report.dual.L * report.dual.VOL
    ratios = [(names[0], A / Rat(s, den)) for names, A, s in report.orbits]
    rays, verticals = ratios[:2], ratios[2:]  # C~1 and C~2 lead the orbits
    _check(report.delta == 1, "condition point must have delta = 1, got {}", report.delta)
    for name, ratio in rays:
        _check(ratio == 1, "ray term {} must equal 1 at a condition point", name)
    if m == 0:
        for name, ratio in verticals:
            _check(ratio == 1, "toric case: term {} must equal 1", name)
    elif m == 2:
        for name, ratio in verticals[:2]:  # the E_i and the F~i orbits
            _check(ratio == 1, "m=2: curve term {} must equal 1", name)
    else:  # m >= 3
        for name, ratio in verticals:
            _check(ratio > 1, "m>=3: vertical term {} must exceed 1", name)


def k_polystable(params, angles: Angles) -> Verdict:
    """The main decision: KPolystable iff the bracket vanishes and m != 1.

    Within the ample range the verdict always carries delta and its
    witnesses from the torus route, and every branch cross-checks the
    facts it relies on (bracket sign against the Futaki sign, delta < 1
    off the condition locus and for m = 1, the term patterns at
    condition points).
    """
    model = as_model(params)
    reason = model.ample_range_violation(angles)
    if reason is not None:
        return Verdict(
            status=OUTSIDE_AMPLE_RANGE,
            condition_sign=condition_sign(model, angles),
            delta=None,
            witnesses=(),
            notes=(reason,),
        )

    # The ample range is checked once, above; the bracket reads the
    # common denominator the torus route formed.
    report = _delta_tvariety(model, angles)
    d = report.dual
    csign = _bracket_sign(model, d.L, -d.X[0], d.X[2])
    _check(report.futaki_sign == csign,
           "bracket sign {} disagrees with the torus-side Futaki sign", csign)
    _check(report.delta <= 1, "delta = {} > 1 contradicts the necessity bound", report.delta)

    notes: list[str] = []
    if csign == 0 and model.m != 1:
        _certify_polystable_branch(model.m, report)
        branch = "toric (m=0)" if model.m == 0 else f"m={model.m}"
        notes.append(f"condition holds; {branch} branch hypotheses verified")
        status = KPOLYSTABLE
    elif csign == 0:
        _check(report.delta < 1, "m=1 exclusion requires delta < 1 on the condition locus")
        notes.append("m=1 exclusion: condition holds but delta < 1")
        status = NOT_KPOLYSTABLE
    else:
        _check(report.delta < 1, "delta must be < 1 off the condition locus")
        notes.append(f"bracket sign {csign:+d}; delta < 1")
        status = NOT_KPOLYSTABLE

    return Verdict(
        status=status,
        condition_sign=csign,
        delta=report.delta,
        witnesses=report.witnesses,
        notes=tuple(notes),
        report=report,
    )


@dataclass(frozen=True)
class ConditionBracket:
    """Certified bracketing interval for a condition point with n > 0.

    condition_sign(., (beta1_lo, beta2)) = sign_lo and likewise for the
    upper end; the root lies in [beta1_lo, beta1_hi].  A lucky exact hit
    collapses the interval (sign 0 at both ends).
    """

    beta2: object
    beta1_lo: object
    beta1_hi: object
    sign_lo: int
    sign_hi: int

    @property
    def width(self):
        return self.beta1_hi - self.beta1_lo


DEFAULT_BRACKET_WIDTH = Rat(1, 2**20)


def rational_condition_point(params, s, width=DEFAULT_BRACKET_WIDTH):
    """Rational points on the condition locus.

    n = 0, m >= 1: the locus is rationally parametrized; for 0 < s < 1
    the point beta2 = (3/m)(1 - s^2), beta1 = s beta2 satisfies the
    condition exactly (NotFound when it falls outside the ample range).

    n = 0, m = 0: the locus is the diagonal; returns (s, s).

    n > 0: the locus beta1^2 - (n/3) beta1^3 = beta2^2 + ((n - m)/3) beta2^3
    is a nodal cubic, rational through its node at the origin, but this
    function still bisects: ``s`` is taken as beta2 and a ConditionBracket
    of width <= ``width`` around the matching beta1 is returned (the
    bracket function is strictly increasing in beta1 on (0, 2/n), so
    bisection is certified).

    ``width`` must be positive (ValueError otherwise), whatever n is.
    """
    model = as_model(params)
    n, m = model.n, model.m
    s = Rat(s)
    width = Rat(width)
    if width <= 0:
        raise ValueError(f"bracket width must be positive, got {width}")
    if n == 0 and m == 0:
        if s <= 0:
            raise NotFound(f"need s > 0 for the diagonal point, got {s}")
        return Angles(s, s)
    if n == 0:
        if not 0 < s < 1:
            raise NotFound(f"need 0 < s < 1, got {s}")
        b2 = Rat(3, m) * (1 - s * s)
        b1 = s * b2
        angles = Angles(b1, b2)
        if model.ample_range_violation(angles) is not None:
            raise NotFound(
                f"parametrized point ({b1}, {b2}) is outside the ample range"
            )
        if condition_sign(model, angles) != 0:
            raise InconsistencyError("parametrized point misses the condition locus")
        return angles

    # n > 0: bisection in beta1 at fixed beta2 = s
    b2 = s
    if b2 <= 0 or (n < m and (m - n) * b2 >= 2):
        raise NotFound(f"beta2 = {b2} is outside the ample range")
    rhs = b2 * b2 + Rat(n - m, 3) * b2**3
    peak = Rat(4, 3 * n * n)  # maximum of beta1^2 - (n/3) beta1^3 on [0, 2/n]
    if not 0 < rhs < peak:
        raise NotFound(
            f"no beta1 in (0, 2/{n}) balances beta2 = {b2} (target {rhs} not in (0, {peak}))"
        )

    def g(b1):
        return b1 * b1 - Rat(n, 3) * b1**3 - rhs

    lo, hi = Rat(0), Rat(2, n)
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = g(mid)
        if v == 0:
            return ConditionBracket(beta2=b2, beta1_lo=mid, beta1_hi=mid, sign_lo=0, sign_hi=0)
        if v < 0:
            lo = mid
        else:
            hi = mid
    return ConditionBracket(
        beta2=b2, beta1_lo=lo, beta1_hi=hi, sign_lo=sign(g(lo)), sign_hi=sign(g(hi))
    )
