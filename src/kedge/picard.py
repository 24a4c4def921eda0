"""Picard lattice of the surface family and its positivity criteria.

The surface S is the blow-up of the Hirzebruch surface F_n at m distinct
points lying on a fixed irreducible curve C2 disjoint from the negative
section C1 (C2^2 = n), the points in general position (no two on one
ruling fiber).  Its Picard group is free of rank m+2 with basis

    (pi^* C2,  pi^* F,  E_1, ..., E_m),

where pi is the blow-down, F a ruling fiber and E_i the exceptional
curves.  A class is

    D  =  a . pi^* C2  +  b . pi^* F  -  sum_i c_i . E_i,

(note the MINUS sign: effective exceptional multiples have c_i <= 0 in
the ``c`` vector convention used throughout -- storing coefficients of
-E_i avoids sign errors against the intersection rules below), built by
the one constructor ``DivisorClass(num, den)``.

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

The angle condition is read on the surface too: its two cubics
(``boundary_cubics``) and the one table of the S_m orbits
(``orbit_rows``), each orbit's first name and size and the (alpha, beta)
that write its A - S in the cubics: the torus route's side of the paper's
theorem, which the torus route, the closed forms and the verdict read.

The two exceptions of the CLI contract live here too, where every route
reaches them without loading another: ``OutsideAmpleRange`` and
``InconsistencyError`` (exit 2).  So does ``QuadraticPiece``, the piece of
a volume curve that both the sweep and the closed forms return: the
closed-form oracle takes it from here, so that it loads nothing of the
sweep it checks.

``SurfaceModel(n, m)`` is the one live instance of (n, m), and what does
not depend on the angles is kept per surface in one place:
``per_surface(build)`` keeps ``build(model, *key)`` in one process-wide
least-recently-used cache of ``PER_SURFACE_VALUES`` entries, keyed by
(build, model, *key).  The candidate tables and the orbit table here, the
oracle's family and the sweep's factors, swept curves and slope halves in
``zariski``, and the torus certificate in ``tvariety`` are kept there.
"""
from __future__ import annotations

import math
import operator
import re
import weakref
from functools import lru_cache, partial, update_wrapper
from typing import NamedTuple

from .ratmath import Rat, exact


class OutsideAmpleRange(ValueError):
    """The requested angles do not make the log anticanonical class ample."""


class InconsistencyError(ArithmeticError):
    """An internal cross-check failed: the two computation routes, a
    theorem hypothesis check or a certificate disagreed; results cannot
    be trusted."""


class QuadraticPiece(NamedTuple):
    """One chamber of a volume curve, which is the tuple of its pieces in
    order, partitioning [0, tau]: interval, quadratic, support."""

    x_lo: object
    x_hi: object
    q0: object
    q1: object
    q2: object
    negative_support: tuple  # curve names


class Value:
    """A frozen value: fields cannot be assigned or deleted, and equality,
    hashing and pickling read ``_args()``, the arguments that rebuild it.
    A value never equals a value of another type, a plain tuple included."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self):
        return hash(self._args())

    def __reduce__(self):
        return type(self), self._args()


class Angles(Value):
    """Cone angles 2*pi*beta_i along the two boundary curves.

    Both angles must be positive.  Values above 1 are accepted (the
    formulas stay exact rational functions).  Each angle is read by
    ``ratmath.exact``: an int, a Fraction (kept as it is) or a string in
    the CLI's literal grammar and bounds ("p/q", "0.1", "1e-3"); a float
    is refused with ValueError, and a bool or any other type with
    TypeError.

    ``scaled`` is the angles' integer form (L, P1, P2), formed once:
    L = lcm(q1, q2) for beta_i = p_i / q_i, and P_i = L beta_i.  Every
    route reads it; equality, hashing and ``repr`` see (beta1, beta2) only.
    """

    __slots__ = ("beta1", "beta2", "scaled")

    def __init__(self, beta1, beta2):
        b1, b2 = exact(beta1, "angle"), exact(beta2, "angle")
        q1, q2 = b1.denominator, b2.denominator
        L = math.lcm(q1, q2)
        p1, p2 = b1.numerator * (L // q1), b2.numerator * (L // q2)
        if p1 <= 0 or p2 <= 0:
            raise ValueError(f"angles must be positive, got ({b1}, {b2})")
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2", b2)
        object.__setattr__(self, "scaled", (L, p1, p2))

    def _args(self) -> tuple:
        return self.beta1, self.beta2

    def __repr__(self) -> str:
        return f"Angles(beta1={self.beta1!r}, beta2={self.beta2!r})"


def point_header(model: SurfaceModel, angles: Angles, **extra) -> dict:
    """The n, m, beta1, beta2 header of a report on one point, followed by
    ``extra`` in the order given: exact values; the writer spells them."""
    return {"n": model.n, "m": model.m, "beta1": angles.beta1, "beta2": angles.beta2, **extra}


# A curve is its name.  The fixed names, then every indexed name: E_i as
# ``Ei(i)`` writes it and F~i as ``FiTilde(i)`` does, ASCII digits with no
# leading zero.  This is the one grammar of names.  ``orbit_of`` is its one
# reader: it maps a name to its S_m orbit, the first name and the index, and
# ``parse_curve_id``, ``SurfaceModel.class_of`` and the closed forms read a
# name through it.  ``orbit_names`` is the one speller of an orbit's names.
# ``FIBER_P0``, the fiber over p0, is a name of the torus route alone: it
# heads a row of ``SurfaceModel.orbit_rows``, and ``orbit_of`` refuses it.
C1TILDE = "C1tilde"
C2TILDE = "C2tilde"
GENERIC_FIBER = "GenericFiber"
PULLBACK_C2 = "PullbackC2"
FIBER_P0 = "FiberP0"
_FIXED = (C1TILDE, C2TILDE, GENERIC_FIBER, PULLBACK_C2)
INDEXED_NAME = re.compile("E([1-9][0-9]*)|F([1-9][0-9]*)tilde")


def Ei(i: int) -> str:
    return f"E{i}"


def FiTilde(i: int) -> str:
    return f"F{i}tilde"


E1, F1TILDE = Ei(1), FiTilde(1)


def orbit_of(name: str, m: int) -> tuple:
    """(first name, i) of the S_m orbit of the curve ``name`` on a surface
    with m blown-up points: (E1, i) for E_i, (F1tilde, i) for F~i and
    (name, 1) for a fixed name.  ValueError for a name that is not a curve
    there: an unknown one, or an index above m.  An index with more digits
    than m is above it, unread (``int`` refuses a string of over 4300
    digits)."""
    if name in _FIXED:
        return name, 1
    indexed = INDEXED_NAME.fullmatch(name)
    if indexed is None:
        raise ValueError(f"unknown curve name {name!r}")
    e, f = indexed.groups()
    if len(e or f) > len(str(m)) or int(e or f) > m:
        raise ValueError(f"curve {name} out of range for m={m}")
    return (E1 if e else F1TILDE), int(e or f)


def orbit_names(first: str, size: int) -> tuple:
    """Every name of the S_m orbit with first name ``first`` and ``size``
    members, canonical order: E1 ... E_size, F1tilde ... F_size tilde, or
    ``first`` alone."""
    spell = {E1: Ei, F1TILDE: FiTilde}.get(first)
    return (first,) if spell is None else tuple(map(spell, range(1, size + 1)))


def parse_curve_id(label: str) -> str:
    """The curve a command-line label names (e.g. ``"E2"`` or
    ``"F1tilde"``); surrounding whitespace is ignored.  An index has at
    most three digits: no surface the CLI accepts (m <= 200) has a
    four-digit one."""
    name = label.strip()
    try:
        orbit_of(name, 999)
    except ValueError:
        raise ValueError(f"unknown curve label {label!r}") from None
    return name


class DivisorClass(Value):
    """Exact rational class a.pi*C2 + b.pi*F - sum c_i E_i.

    ``DivisorClass(num, den)`` is the class num / den: integer coordinates
    ``num`` = (a, b, c_1, ..., c_m) over one positive denominator ``den``,
    stored in lowest terms, so that equal classes have equal fields.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den: int = 1):
        if den <= 0:
            raise ValueError(f"a class's denominator must be positive, got {den}")
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num, den = [x // g for x in num], den // g
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @property
    def m(self) -> int:
        return len(self.num) - 2

    def _args(self) -> tuple:
        return self.num, self.den

    def __repr__(self) -> str:
        a, b, *c = (Rat(x, self.den) for x in self.num)
        return f"DivisorClass(a={a}, b={b}, c=({','.join(map(str, c))}))"


#: How many values kept per surface a process holds, least recently used
#: dropped first, all kinds together.  One process answering a 30 s
#: benchmark stream (``perfbench/run.py --seed 0``) creates 52 entries on
#: ``scan``, 2490 on ``sweep`` and 1583 on ``verify``, and keeps them all.
#: The bound stays about five times the largest, as headroom for streams
#: outside the benchmark; whether it should count entries or bytes is open
#: under ROADMAP item 10.
PER_SURFACE_VALUES = 12288


@lru_cache(maxsize=PER_SURFACE_VALUES)
def _kept(build, model, *key):
    return build(model, *key)


def per_surface(build):
    """``build(model, *key)``, kept in one process-wide cache keyed by
    (build, model, *key): a build whose value depends only on the surface
    and ``key``.  Each kept value holds its surface alive, so the surface is
    the one instance of its (n, m) for as long as the value is kept.  A
    build that raises keeps nothing.  The build's name and docstring stay
    readable, and ``__wrapped__`` is the build."""
    return update_wrapper(partial(_kept, build), build)


# The one live SurfaceModel of each (n, m).
_SURFACES = weakref.WeakValueDictionary()


class SurfaceModel(Value):
    """The surface S: F_n with m blown-up points on C2, its Picard lattice
    and its named classes.

    ``SurfaceModel(n, m)`` is the one live instance of (n, m), so equality
    and hashing are identity, ``object``'s, and a value kept per surface
    (``per_surface``) is kept once per (n, m).  n and m cannot be assigned.
    """

    __slots__ = ("n", "m", "__weakref__")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, n: int, m: int):
        if type(n) is not int or type(m) is not int:  # a bool is refused too
            raise TypeError("n and m must be integers")
        if n < 0 or m < 0:
            raise ValueError(f"n and m must be nonnegative, got n={n}, m={m}")
        key = n, m
        model = _SURFACES.get(key)
        if model is None:
            model = _SURFACES[key] = object.__new__(cls)
            object.__setattr__(model, "n", n)
            object.__setattr__(model, "m", m)
        return model

    def _args(self) -> tuple:
        return self.n, self.m

    def __repr__(self) -> str:
        return f"SurfaceModel(n={self.n}, m={self.m})"

    def class_of(self, name: str) -> DivisorClass:
        """Class of the named curve in the (pi*C2, pi*F, E_i) basis; every
        named class is integral.  ValueError for a name that is not a
        curve of this surface: an unknown one, or an index above m."""
        n, m = self.n, self.m
        first, i = orbit_of(name, m)
        if first == C1TILDE:
            return DivisorClass((1, -n) + (0,) * m)
        if first == C2TILDE:
            return DivisorClass((1, 0) + (1,) * m)
        if first == GENERIC_FIBER:
            return DivisorClass((0, 1) + (0,) * m)
        if first == PULLBACK_C2:
            return DivisorClass((1, 0) + (0,) * m)
        num = [0, 0] + [0] * m
        if first == E1:
            num[i + 1] = -1
        else:
            num[1] = num[i + 1] = 1
        return DivisorClass(num)

    def pair(self, x: tuple, y: tuple) -> int:
        """The intersection form n.a1a2 + a1b2 + a2b1 - sum c1i c2i on two
        integer coordinate tuples (a, b, c_1, ..., c_m)."""
        (a1, b1, *c1), (a2, b2, *c2) = x, y
        return (self.n * a1 + b1) * a2 + a1 * b2 - sum(map(operator.mul, c1, c2))

    def intersect(self, d1: DivisorClass, d2: DivisorClass):
        """Intersection number of two classes: ``pair`` on their integer
        coordinates, over the product of the denominators."""
        if d1.m != self.m or d2.m != self.m:
            raise ValueError("dimension mismatch against surface parameters")
        return Rat(self.pair(d1.num, d2.num), d1.den * d2.den)

    def pairings(self, d: DivisorClass) -> tuple:
        """(den, den D.C for every C in ``candidates`` order), as
        ints, den the class's denominator; in closed form D.C~1 = b,
        D.C~2 = na + b - sum c_i, D.E_i = c_i and D.F~i = a - c_i."""
        if d.m != self.m:
            raise ValueError("dimension mismatch against surface parameters")
        a, b, *c = d.num
        return (d.den, b, self.n * a + b - sum(c), *c, *[a - x for x in c])

    @property
    @per_surface
    def candidate_table(self) -> tuple:
        """Entry i lists every (j, C_i.C_j != 0), i and j indexing
        ``candidates``, in O(m) from the closed forms
        C~1^2 = -n, C~2^2 = n-m, E_i.E_j = F~i.F~j = -delta_ij,
        E_i.F~j = delta_ij, C~1.F~i = C~2.E_i = 1, and 0 otherwise; only
        the sections' self-intersections can be 0."""
        n, m = self.n, self.m
        es, fs = range(2, m + 2), range(m + 2, 2 * m + 2)
        rows = [((0, -n),) * (n != 0) + tuple((f, 1) for f in fs),
                ((1, n - m),) * (n != m) + tuple((e, 1) for e in es)]
        rows += [((e, -1), (1, 1), (e + m, 1)) for e in es]
        rows += [((f, -1), (0, 1), (f - m, 1)) for f in fs]
        return tuple(rows)

    @property
    @per_surface
    def candidates(self) -> tuple:
        """The names of the curves that can support a Zariski negative
        part, in the order every candidate index refers to: C~1, C~2,
        E_1, ..., E_m, F~1, ..., F~m; built once per surface."""
        m = self.m
        return (C1TILDE, C2TILDE, *orbit_names(E1, m), *orbit_names(F1TILDE, m))

    @property
    @per_surface
    def candidate_coordinates(self) -> tuple:
        """Entry i lists every (j, x), x != 0, of the integer coordinates
        (a, b, c_1, ..., c_m) of ``candidates[i]``'s class, in O(m) from
        the closed forms that ``class_of`` builds: C~1 has a = 1, b = -n;
        C~2 has a = 1, every c_j = 1; E_i has c_i = -1; F~i has b = c_i = 1."""
        es = range(2, self.m + 2)
        rows = [((0, 1),) + ((1, -self.n),) * (self.n != 0), ((0, 1), *((e, 1) for e in es))]
        rows += [((e, -1),) for e in es]
        rows += [((1, 1), (e, 1)) for e in es]
        return tuple(rows)

    def log_anticanonical(self, angles: Angles) -> DivisorClass:
        """-K_{S,Delta} = (beta1+beta2, 2 - n beta1, c_i = beta2): with the
        angles' integer form (L, P1, P2), L (-K_{S,Delta}) is
        (P1 + P2, 2 L - n P1, c_i = P2), over L."""
        L, p1, p2 = angles.scaled
        return DivisorClass((p1 + p2, 2 * L - self.n * p1) + (p2,) * self.m, L)

    def boundary_cubics(self, L: int, p1: int, p2: int) -> tuple:
        """(f1, f2) = (3 L P1^2 - n P1^3, 3 L P2^2 + (n - m) P2^3) at the
        angles' integer form (L, P1, P2): 3 L^3 times the two sides of the
        angle condition beta1^2 - (n/3) beta1^3 = beta2^2 + ((n - m)/3)
        beta2^3, so f1 - f2 is 3 L^3 times the angle bracket.  The verdict
        and the closed forms read the condition here alone."""
        return (3 * L - self.n * p1) * p1 * p1, (3 * L + (self.n - self.m) * p2) * p2 * p2

    @property
    @per_surface
    def orbit_rows(self) -> tuple:
        """One row (first name, size, alpha, beta) per S_m orbit of the torus
        route's delta minimum, in its order, built once per surface: C~1
        (2, -2), C~2 (-2, 2), E_i (n - 2, m - n) and F~i (n, m - n - 2), of
        m members each and absent at m = 0, then FiberP0 and the generic
        fiber, both (n, m - n).  An orbit's A and S are linear in the two
        ``boundary_cubics`` (f1, f2): over 3 L V, V = L^2 vol,

            S = (3 (L A) V - alpha f1 - beta f2) / (3 L V),

        with L A = P1, P2 or L, which on the integers of
        ``tvariety.delta_minimum`` is a - s = 2 (alpha f1 + beta f2).  This
        is the torus route's side of the paper's theorem, and the one list
        of the orbits: the torus route names and counts its terms from it,
        the closed forms read S from it, and the verdict checks every orbit
        against it at a condition point."""
        n, m = self.n, self.m
        curves = ((E1, m, n - 2, m - n), (F1TILDE, m, n, m - n - 2)) if m else ()
        return ((C1TILDE, 1, 2, -2), (C2TILDE, 1, -2, 2), *curves,
                (FIBER_P0, 1, n, m - n), (GENERIC_FIBER, 1, n, m - n))

    def is_nef(self, d: DivisorClass) -> bool:
        """Nefness test.

        Pairing nonnegatively with the candidate negative curves and with
        the generic fiber (a >= 0; only independent when m = 0) is
        necessary and sufficient, since these curves together with the
        fiber generate the dual of the nef cone.  ``pairings`` runs first,
        so a class of the wrong rank raises ValueError even when a < 0.
        """
        _, *pairings = self.pairings(d)
        return all(x >= 0 for x in pairings) and d.num[0] >= 0

    def broken_ample_bound(self, L: int, p1: int, p2: int) -> int:
        """The upper angle bound that the angles' integer form (L, P1, P2)
        breaks: 1 for beta1 < 2/n (n > 0), 2 for beta2 < 2/(m-n) (n < m),
        0 for none, when -K_{S,Delta} is ample.

        Ample requires 0 < beta1 (< 2/n when n > 0) and 0 < beta2
        (< 2/(m-n) when n < m); equivalently, all nefness inequalities
        for the log anticanonical class are strict.  Positive angles are
        the caller's to ensure (``Angles`` rejects beta <= 0), so only the
        upper bounds are checked, on the integers: n beta1 >= 2 is
        n P1 >= 2 L.
        """
        n, m = self.n, self.m
        if n > 0 and n * p1 >= 2 * L:
            return 1
        if n < m and (m - n) * p2 >= 2 * L:
            return 2
        return 0

    def ample_range_violation(self, angles: Angles) -> str | None:
        """Why -K_{S,Delta} is not ample, or None when it is: the bound
        that ``broken_ample_bound`` finds, in words."""
        broken = self.broken_ample_bound(*angles.scaled)
        if broken == 1:
            return f"beta1 must lie in (0, 2/{self.n}), got {angles.beta1}"
        if broken == 2:
            return f"beta2 must lie in (0, 2/{self.m - self.n}), got {angles.beta2}"
        return None

    def ensure_ample(self, angles: Angles) -> None:
        """Raise OutsideAmpleRange unless -K_{S,Delta} is ample."""
        reason = self.ample_range_violation(angles)
        if reason is not None:
            raise OutsideAmpleRange(f"(n={self.n}, m={self.m}): {reason}")


# The surface's former name: perfbench/checks.py builds surfaces by it, and
# ROADMAP item 1 moves the benchmark to SurfaceModel and drops it.
SurfaceParams = SurfaceModel

