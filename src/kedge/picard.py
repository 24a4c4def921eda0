"""Picard lattice of the surface family and its positivity criteria.

The surface S is the blow-up of the Hirzebruch surface F_n at m distinct
points lying on a fixed irreducible curve C2 disjoint from the negative
section C1 (C2^2 = n), the points in general position (no two on one
ruling fiber).  Its Picard group is free of rank m+2 with basis

    (pi^* C2,  pi^* F,  E_1, ..., E_m),

where pi is the blow-down, F a ruling fiber and E_i the exceptional
curves.  A class is stored as

    D  =  a . pi^* C2  +  b . pi^* F  -  sum_i c_i . E_i,

(note the MINUS sign: effective exceptional multiples have c_i <= 0 in
the ``c`` vector convention used throughout -- storing coefficients of
-E_i avoids sign errors against the intersection rules below).

Intersection numbers in this basis:

    D1 . D2  =  n a1 a2 + a1 b2 + a2 b1 - sum_i c1i c2i,

a form of signature (1, m+1).  The named curves are the proper
transforms C~1, C~2 of the two sections (self-intersections -n and
n-m), the exceptional curves E_i, the transforms F~i of the fibers
through the blown-up points (self-intersection -1), a generic ruling
fiber, and the pulled-back section class pi^* C2.

The boundary is Delta = (1-beta1) C~1 + (1-beta2) C~2 with cone angles
2 pi beta_i; the log anticanonical class is

    -K_{S,Delta}  =  (beta1+beta2) pi^* C2 + (2 - n beta1) pi^* F
                     - beta2 sum_i E_i.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

from .ratmath import ONE, ZERO, Rat, as_rat


class OutsideAmpleRange(ValueError):
    """The requested angles do not make the log anticanonical class ample."""


@dataclass(frozen=True)
class SurfaceParams:
    """Discrete parameters: F_n with m blown-up points on C2."""

    n: int
    m: int

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.m, int)):
            raise TypeError("n and m must be integers")
        if self.n < 0 or self.m < 0:
            raise ValueError(f"n and m must be nonnegative, got n={self.n}, m={self.m}")


@dataclass(frozen=True)
class Angles:
    """Cone angles 2*pi*beta_i along the two boundary curves.

    Both angles must be positive.  Values above 1 are accepted (the
    formulas stay exact rational functions).
    """

    beta1: object
    beta2: object

    def __post_init__(self):
        object.__setattr__(self, "beta1", Rat(self.beta1))
        object.__setattr__(self, "beta2", Rat(self.beta2))
        if self.beta1 <= 0 or self.beta2 <= 0:
            raise ValueError(f"angles must be positive, got ({self.beta1}, {self.beta2})")


# Curve kinds.  The index is meaningful only for "Ei" / "FiTilde".
_KINDS = ("C1tilde", "C2tilde", "Ei", "FiTilde", "GenericFiber", "PullbackC2")
_INDEXED = ("Ei", "FiTilde")


@dataclass(frozen=True)
class CurveId:
    """Identifier of one of the named curve classes on S."""

    kind: str
    index: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.kind in _INDEXED:
            if not isinstance(self.index, int) or self.index < 1:
                raise ValueError(f"{self.kind} needs an index >= 1, got {self.index!r}")
        elif self.index is not None:
            raise ValueError(f"{self.kind} takes no index")

    @property
    def label(self) -> str:
        if self.kind == "Ei":
            return f"E{self.index}"
        if self.kind == "FiTilde":
            return f"F{self.index}tilde"
        return self.kind

    def __repr__(self) -> str:
        return f"CurveId({self.label})"


C1TILDE = CurveId("C1tilde")
C2TILDE = CurveId("C2tilde")
GENERIC_FIBER = CurveId("GenericFiber")
PULLBACK_C2 = CurveId("PullbackC2")


def Ei(i: int) -> CurveId:
    return CurveId("Ei", i)


def FiTilde(i: int) -> CurveId:
    return CurveId("FiTilde", i)


# An index as ``CurveId.label`` writes it: ASCII digits, no leading zero,
# and at most three of them.  No surface the CLI accepts (m <= 200) has a
# four-digit index, and ``int`` never sees a long string.
_INDEXED_LABEL = re.compile("E([1-9][0-9]{0,2})|F([1-9][0-9]{0,2})tilde")


def parse_curve_id(label: str) -> CurveId:
    """Inverse of ``CurveId.label`` (e.g. ``"E2"`` or ``"F1tilde"``);
    surrounding whitespace is ignored."""
    s = label.strip()
    for fixed in (C1TILDE, C2TILDE, GENERIC_FIBER, PULLBACK_C2):
        if s == fixed.kind:
            return fixed
    indexed = _INDEXED_LABEL.fullmatch(s)
    if indexed is None:
        raise ValueError(f"unknown curve label {label!r}")
    e, f = indexed.groups()
    return Ei(int(e)) if e else FiTilde(int(f))


@dataclass(frozen=True)
class DivisorClass:
    """Exact rational class a.pi*C2 + b.pi*F - sum c_i E_i."""

    a: object
    b: object
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", as_rat(self.a))
        object.__setattr__(self, "b", as_rat(self.b))
        object.__setattr__(self, "c", tuple(as_rat(x) for x in self.c))

    @property
    def m(self) -> int:
        return len(self.c)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_rank(other)
        return DivisorClass(
            self.a + other.a,
            self.b + other.b,
            tuple(x + y for x, y in zip(self.c, other.c)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_rank(other)
        return DivisorClass(
            self.a - other.a,
            self.b - other.b,
            tuple(x - y for x, y in zip(self.c, other.c)),
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.a, -self.b, tuple(-x for x in self.c))

    def scale(self, t) -> "DivisorClass":
        t = Rat(t)
        return DivisorClass(t * self.a, t * self.b, tuple(t * x for x in self.c))

    def _check_rank(self, other: "DivisorClass"):
        if len(self.c) != len(other.c):
            raise ValueError(
                f"dimension mismatch: classes live on m={len(self.c)} vs m={len(other.c)}"
            )

    def __repr__(self) -> str:
        cs = ",".join(str(x) for x in self.c)
        return f"DivisorClass(a={self.a}, b={self.b}, c=({cs}))"


@dataclass(frozen=True)
class SurfaceModel:
    """The Picard lattice of S together with its named classes."""

    params: SurfaceParams

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def m(self) -> int:
        return self.params.m

    def zero(self) -> DivisorClass:
        return DivisorClass(ZERO, ZERO, (ZERO,) * self.m)

    def class_of(self, cid: CurveId) -> DivisorClass:
        """Class of a named curve in the (pi*C2, pi*F, E_i) basis."""
        n, m = self.n, self.m
        unit = lambda i, v: tuple(v if j == i - 1 else ZERO for j in range(m))
        if cid.kind == "C1tilde":
            return DivisorClass(ONE, Rat(-n), (ZERO,) * m)
        if cid.kind == "C2tilde":
            return DivisorClass(ONE, ZERO, (ONE,) * m)
        if cid.kind == "GenericFiber":
            return DivisorClass(ZERO, ONE, (ZERO,) * m)
        if cid.kind == "PullbackC2":
            return DivisorClass(ONE, ZERO, (ZERO,) * m)
        if cid.index > m:
            raise ValueError(f"curve {cid.label} out of range for m={m}")
        if cid.kind == "Ei":
            return DivisorClass(ZERO, ZERO, unit(cid.index, -ONE))
        return DivisorClass(ZERO, ONE, unit(cid.index, ONE))  # FiTilde

    def intersect(self, d1: DivisorClass, d2: DivisorClass):
        """Intersection number n.a1a2 + a1b2 + a2b1 - sum c1i c2i."""
        if d1.m != self.m or d2.m != self.m:
            raise ValueError("dimension mismatch against surface parameters")
        acc = self.n * d1.a * d2.a + d1.a * d2.b + d2.a * d1.b
        for x, y in zip(d1.c, d2.c):
            acc -= x * y
        return acc

    def pairings(self, d: DivisorClass) -> list:
        """D.C for every C in ``candidate_curves()`` order, in closed form:
        D.C~1 = b, D.C~2 = na + b - sum c_i, D.E_i = c_i, D.F~i = a - c_i."""
        if d.m != self.m:
            raise ValueError("dimension mismatch against surface parameters")
        return [d.b, self.n * d.a + d.b - sum(d.c), *d.c, *(d.a - x for x in d.c)]

    @cached_property
    def candidate_table(self) -> tuple:
        """Entry i lists every (j, C_i.C_j != 0), i and j indexing
        ``candidate_curves``, in O(m) from the closed forms
        C~1^2 = -n, C~2^2 = n-m, E_i.E_j = F~i.F~j = -delta_ij,
        E_i.F~j = delta_ij, C~1.F~i = C~2.E_i = 1, and 0 otherwise."""
        n, m = self.n, self.m
        es, fs = range(2, m + 2), range(m + 2, 2 * m + 2)
        rows = [[(0, -n)] + [(f, 1) for f in fs], [(1, n - m)] + [(e, 1) for e in es]]
        rows += [[(e, -1), (1, 1), (e + m, 1)] for e in es]
        rows += [[(f, -1), (0, 1), (f - m, 1)] for f in fs]
        return tuple(tuple((j, g) for j, g in row if g) for row in rows)

    @cached_property
    def certified(self) -> set:
        """Names of the angle-independent certificates this instance passed,
        so that each runs once per surface model."""
        return set()

    def self_intersection(self, d: DivisorClass):
        return self.intersect(d, d)

    def gram_matrix(self, classes) -> list[list]:
        return [[self.intersect(x, y) for y in classes] for x in classes]

    def candidate_curves(self) -> list[CurveId]:
        """The curves that can support a Zariski negative part."""
        return (
            [C1TILDE, C2TILDE]
            + [Ei(i) for i in range(1, self.m + 1)]
            + [FiTilde(i) for i in range(1, self.m + 1)]
        )

    def log_anticanonical(self, angles: Angles) -> DivisorClass:
        """-K_{S,Delta} = (beta1+beta2, 2 - n beta1, c_i = beta2)."""
        b1, b2 = angles.beta1, angles.beta2
        return DivisorClass(b1 + b2, 2 - self.n * b1, (b2,) * self.m)

    def is_nef(self, d: DivisorClass) -> bool:
        """Nefness test.

        Pairing nonnegatively with the candidate negative curves and with
        the generic fiber (a >= 0; only independent when m = 0) is
        necessary and sufficient, since these curves together with the
        fiber generate the dual of the nef cone.  ``pairings`` runs first,
        so a class of the wrong rank raises ValueError even when a < 0.
        """
        return all(x >= 0 for x in self.pairings(d)) and d.a >= 0

    def ample_range_violation(self, angles: Angles) -> str | None:
        """Why -K_{S,Delta} is not ample, or None when it is.

        Ample requires 0 < beta1 (< 2/n when n > 0) and 0 < beta2
        (< 2/(m-n) when n < m); equivalently, all nefness inequalities
        for the log anticanonical class are strict.  ``Angles`` already
        rejects beta <= 0, so only the upper bounds are checked here.
        """
        b1, b2 = angles.beta1, angles.beta2
        if self.n > 0 and self.n * b1 >= 2:
            return f"beta1 must lie in (0, 2/{self.n}), got {b1}"
        if self.n < self.m and (self.m - self.n) * b2 >= 2:
            return f"beta2 must lie in (0, 2/{self.m - self.n}), got {b2}"
        return None

    def ensure_ample(self, angles: Angles) -> None:
        """Raise OutsideAmpleRange unless -K_{S,Delta} is ample."""
        reason = self.ample_range_violation(angles)
        if reason is not None:
            raise OutsideAmpleRange(f"(n={self.n}, m={self.m}): {reason}")


def as_model(params) -> SurfaceModel:
    """Coerce SurfaceModel | SurfaceParams | (n, m) to a SurfaceModel."""
    if isinstance(params, SurfaceModel):
        return params
    if isinstance(params, SurfaceParams):
        return SurfaceModel(params)
    if isinstance(params, tuple) and len(params) == 2:
        return SurfaceModel(SurfaceParams(*params))
    raise TypeError(f"cannot interpret {params!r} as surface parameters")
