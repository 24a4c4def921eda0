"""Shared fixtures: seeded generators, the surface and curve families, the
``rat`` constructor the tests spell their rationals with, the ``divisor``
constructor and ``coordinates`` view of a class in rational coordinates, and
the rational references the tests check the integer code against: the
common denominator, the LDL^T kernel, the Gram matrix through the generic
pairing, the signature, the angle sampler, the volume curve's last root,
the volume of a class, named views of the torus duals and delta minimum
and their tamperings, the torus-side Futaki sign, the name-expanding
torus-route delta, the rational divisor class the tests add and scale
classes in (d + t e, the zero class and a decomposition's negative
part), the closed-form oracle on Fractions, the one reset of the values
kept per surface and a count of one kept value's builds."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import pairwise
from typing import NamedTuple
from types import SimpleNamespace

import pytest

from kedge.closedforms import CASE_C1_FIRST, CASE_C2_FIRST, CASE_N_GE_M, CASE_N_ZERO
from kedge.linalg import NotNegativeDefinite
from kedge.picard import (C1TILDE, C2TILDE, GENERIC_FIBER, Angles, DivisorClass,
                          InconsistencyError, SurfaceModel, _kept, per_surface)
from kedge.ratmath import ZERO, Rat, isqrt_exact, sign
from kedge.sampling import MAX_DENOMINATOR, MAX_TRIES, MAX_VALUE
from kedge.tvariety import cross, legendre_dual
from kedge.volumes import IrrationalThreshold, QuadraticPiece
from kedge.zariski import DecompositionError, zariski_decompose


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return random.Random(20260823)


def clear_per_surface_caches():
    """Empty the one cache of values kept per surface (``picard.per_surface``):
    the candidate tables, the oracle's family, the sweep's support factors,
    swept curves and slope halves, and the torus certificate.  A request
    then forms them again and calls every function that forms them, so a
    test that counts a request's work or breaks a kept step sees a cold
    run."""
    _kept.cache_clear()


def count_builds(monkeypatch, owner, name) -> list:
    """Replace the kept value ``owner.name`` (a ``per_surface`` build, or a
    property over one) by one kept through a build that records its key,
    and return the list of recorded keys: one per build, that is one per
    miss of the shared cache.  The recording build is a new function, so
    its values start cold."""
    kept = getattr(owner, name)
    is_property = isinstance(kept, property)
    build, builds = (kept.fget if is_property else kept).__wrapped__, []

    def recording(model, *key):
        builds.append(key)
        return build(model, *key)

    recorded = per_surface(recording)
    monkeypatch.setattr(owner, name, property(recorded) if is_property else recorded)
    return builds


def small_surfaces(n_max: int = 4, m_max: int = 4):
    """All (n, m) pairs up to the given bounds."""
    return [
        SurfaceModel(n, m) for n in range(n_max + 1) for m in range(m_max + 1)
    ]


def negative_definite_families():
    """The seven curve families with negative-definite Gram matrices.

    Each entry: (family number, curve builder over (n, m), constraint on
    (n, m), list of boundary (n, m) pairs violating the constraint).
    The builders use marked point i = 1 where a single fiber is involved.
    """
    from kedge.picard import C1TILDE, C2TILDE, Ei, FiTilde

    def f_all(n, m):
        return [FiTilde(i) for i in range(1, m + 1)]

    def e_all(n, m):
        return [Ei(i) for i in range(1, m + 1)]

    return [
        (1, f_all, lambda n, m: m >= 1, []),
        (2, e_all, lambda n, m: m >= 1, []),
        (3, lambda n, m: [C1TILDE, FiTilde(1)], lambda n, m: n > 1, [(1, 1)]),
        (4, lambda n, m: [C1TILDE] + f_all(n, m), lambda n, m: n > m, [(2, 2)]),
        (5, lambda n, m: [C2TILDE, FiTilde(1)], lambda n, m: n < m, [(2, 2)]),
        (6, lambda n, m: [C1TILDE, C2TILDE, FiTilde(1)], lambda n, m: 1 < n < m,
         [(1, 3), (3, 3)]),
        (7, lambda n, m: [C2TILDE, FiTilde(1)] + e_all(n, m)[1:], lambda n, m: n == 0,
         []),
    ]


def _reference_forward(rows, rhs) -> list:
    """z = L^{-1} rhs, skipping zero entries of z."""
    z = list(rhs)
    for i, row in enumerate(rows):
        for j, l in row:
            if z[j]:
                z[i] = z[i] - l * z[j]
    return z


def reference_factorize(matrix):
    """The rational LDL^T factor ``(rows, pivots)`` of a symmetric matrix,
    bordered row by row: the kernel the fraction-free elimination in
    ``kedge.linalg`` replaced.  Row i of L holds its nonzero (j, L_ij);
    raises NotNegativeDefinite at the first pivot >= 0."""
    rows, pivots = (), ()
    for i, entries in enumerate(matrix):
        y = _reference_forward(rows, entries[:i])
        row = tuple((j, y[j] / d) for j, d in enumerate(pivots) if y[j])
        pivot = Rat(entries[i])
        for j, l in row:
            pivot = pivot - l * y[j]
        if pivot >= 0:
            raise NotNegativeDefinite(f"pivot {pivot} >= 0 at row {i}")
        rows, pivots = rows + (row,), pivots + (pivot,)
    return rows, pivots


def reference_solve(factor, rhs) -> list:
    """Solve G x = rhs on a ``reference_factorize`` factor.  The right-hand
    side may live in any module over the rationals: the kernel asks of it
    only ``-``, left-multiplication by Rat and division by Rat."""
    rows, pivots = factor
    x = [z / d for d, z in zip(pivots, _reference_forward(rows, rhs))]
    for i in reversed(range(len(rows))):
        for j, l in rows[i]:
            x[j] = x[j] - l * x[i]
    return x


def gram(model, classes) -> list[list]:
    return [[model.intersect(x, y) for y in classes] for x in classes]


def signature(matrix) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric matrix.

    Exact congruence diagonalization: pick a nonzero diagonal pivot, or
    manufacture one from a nonzero off-diagonal pair by a row+column
    addition, then clear the pivot's row and column symmetrically.
    """
    k = len(matrix)
    a = [[Rat(x) for x in row] for row in matrix]
    pos = neg = zero = 0
    rows = list(range(k))
    while rows:
        p = next((r for r in rows if a[r][r] != 0), None)
        if p is None:
            off = next(
                ((r, c) for r in rows for c in rows if c != r and a[r][c] != 0), None
            )
            if off is None:
                zero += len(rows)
                break
            r0, c0 = off
            # congruence by "row r0 += row c0" creates 2*a[r0][c0] on the diagonal
            for c in range(k):
                a[r0][c] = a[r0][c] + a[c0][c]
            for r in range(k):
                a[r][r0] = a[r][r0] + a[r][c0]
            p = r0
        d = a[p][p]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rows.remove(p)
        inv = Rat(1) / d
        for r in rows:
            factor = a[r][p] * inv
            if factor == 0:
                continue
            for c in range(k):
                a[r][c] = a[r][c] - factor * a[p][c]
            for rr in range(k):
                a[rr][r] = a[rr][r] - factor * a[rr][p]
    return pos, neg, zero


def reference_sample_rational(rng: random.Random) -> Rat:
    """A positive rational with denominator <= 64, value <= MAX_VALUE."""
    den = rng.randint(1, MAX_DENOMINATOR)
    num = rng.randint(1, MAX_VALUE * den)
    return Rat(num, den)


def reference_sample_angles(rng: random.Random, model: SurfaceModel) -> Angles:
    """The rational rejection sampler that ``sampling.sample_angles``
    replaced: it builds every drawn pair and asks the model why it is not
    ample."""
    for _ in range(MAX_TRIES):
        angles = Angles(reference_sample_rational(rng), reference_sample_rational(rng))
        if model.ample_range_violation(angles) is None:
            return angles
    raise RuntimeError(f"could not sample ample angles for {model}")


def rat(numerator, denominator=None):
    """Build a Rat from ints, another rational, or ``p, q``."""
    if denominator is None:
        return Rat(numerator)
    return Rat(numerator) / Rat(denominator)


def common_denominator(*xs) -> tuple:
    """(L, L x for each x) as ints, L the least common denominator of xs."""
    L = math.lcm(*[x.denominator for x in xs])
    return (L, *[x.numerator * (L // x.denominator) for x in xs])


def divisor(a, b, c) -> DivisorClass:
    """The class a.pi*C2 + b.pi*F - sum c_i E_i, for rational a, b and c_i."""
    den, *num = common_denominator(Rat(a), Rat(b), *map(Rat, c))
    return DivisorClass(num, den)


def coordinates(d: DivisorClass) -> tuple:
    """The rational coordinates (a, b, (c_1, ..., c_m)) of a class."""
    a, b, *c = (Rat(x, d.den) for x in d.num)
    return a, b, tuple(c)


def sqrt_exact(x):
    """Exact rational square root of ``x``, or None if irrational."""
    num = isqrt_exact(x.numerator)
    if num is None:
        return None
    den = isqrt_exact(x.denominator)
    if den is None:
        return None
    return Rat(num) / Rat(den)


def reference_smallest_root_after(q0, q1, q2, x0, context: str):
    """Least root of q0 + q1 x + q2 x^2 strictly right of x0, on rationals:
    the form ``volumes._smallest_root_after`` had before it read the
    chamber's integers."""
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


def volume(model, d):
    """vol(D) = P^2 for the Zariski positive part (= D^2 when D is nef)."""
    if model.is_nef(d):
        return model.intersect(d, d)
    p = zariski_decompose(model, d).positive
    return model.intersect(p, p)


class Dual(NamedTuple):
    """``tvariety.legendre_dual``'s integers by name; the scales are in
    ``tvariety.scaled_duals``."""

    L: int
    PSI_P0: tuple
    PSI_MARKED: tuple
    PSI_GENERIC: tuple
    W: tuple
    VOL: int
    FM: int
    HS2: int


def dual(model, angles) -> Dual:
    return Dual(*legendre_dual(model, angles))


class Minimum(NamedTuple):
    """``tvariety.delta_minimum``'s integers by name, as ``DeltaReport``
    names them."""

    a_min: int
    s_min: int
    FM: int
    a: tuple
    s: tuple
    VOL: int


def tampered_minimum(delta_minimum, tamper):
    """``delta_minimum`` with its integers passed through ``tamper``, a map
    of ``Minimum`` records."""
    def tampered(*args):
        return tamper(Minimum(*delta_minimum(*args)))

    return tampered


def with_delta(delta):
    """A ``tampered_minimum`` tamper: the least orbit's integers set so that
    delta = a_min / s_min reads ``delta``."""
    return lambda minimum: minimum._replace(a_min=delta.numerator, s_min=delta.denominator)


def with_vol(scaled_duals, vol):
    """``scaled_duals`` (``tvariety.scaled_duals``) with VOL read as ``vol``."""
    def tampered(*args):
        psi_p0, psi_marked, psi_generic, W, _, FM, HS2 = scaled_duals(*args)
        return psi_p0, psi_marked, psi_generic, W, vol, FM, HS2

    return tampered


def with_fm(scaled_duals, factor):
    """``scaled_duals`` (``tvariety.scaled_duals``) with FM multiplied by
    ``factor``: a positive factor keeps the Futaki sign."""
    def tampered(*args):
        *duals, FM, HS2 = scaled_duals(*args)
        return *duals, factor * FM, HS2

    return tampered


def futaki_vanishes(model, angles) -> int:
    """Sign of the angle bracket; 0 exactly when the barycenter vanishes.

    Computed on the torus side as -integral of u * deg Psi(u) du (no
    division, so no ampleness assumption is needed): -sign(FM) of the
    ``FM`` that ``DeltaReport`` records."""
    return -sign(dual(model, angles).FM)


def reference_delta_tvariety(model, angles) -> SimpleNamespace:
    """delta by the torus route with every name spelled: the form
    ``tvariety.delta_tvariety`` had before it kept one record per S_m orbit.
    The orbits carry their names, sliced from ``model.candidates``; the
    witnesses are the names of every orbit tied at the minimum, and
    ``terms`` maps each name to its (A, S)."""
    model.ensure_ample(angles)
    n, m = model.n, model.m
    d = dual(model, angles)
    L, p1, p2 = angles.scaled
    VOL, FM = d.VOL, d.FM
    cross_marked = cross(d.W, d.HS2, d.PSI_MARKED)
    names = model.candidates  # C1tilde, C2tilde, E1..Em, F1tilde..Fmtilde
    orbits = [  # (names, A, L A, 2 L VOL S)
        (("C1tilde",), angles.beta1, p1, 2 * (FM + p1 * VOL)),
        (("C2tilde",), angles.beta2, p2, 2 * (p2 * VOL - FM)),
        (names[2:m + 2], Rat(1), L, cross_marked - 2 * FM),
        (names[m + 2:], Rat(1), L, cross_marked),
        (("FiberP0",), Rat(1), L, cross(d.W, d.HS2, d.PSI_P0) + 2 * n * FM + 4 * L * VOL),
        (("GenericFiber",), Rat(1), L, cross(d.W, d.HS2, d.PSI_GENERIC)),
    ]
    orbits = [orbit for orbit in orbits if orbit[0]]
    if VOL <= 0:
        raise InconsistencyError("torus route: vol is not positive")
    for names, _, _, s in orbits:
        if s <= 0:
            raise InconsistencyError(f"torus route: S of {names[0]} is not positive")
    best = orbits[0]
    for orbit in orbits[1:]:
        if orbit[2] * best[3] < best[2] * orbit[3]:
            best = orbit
    _, _, a_min, s_min = best
    ties = (names for names, _, a, s in orbits if a * s_min == a_min * s)
    den = 2 * L * VOL
    return SimpleNamespace(
        delta=Rat(2 * VOL * a_min, s_min),
        witnesses=tuple(name for names in ties for name in names),
        futaki_sign=-sign(FM),
        terms={name: (A, Rat(s, den)) for names, A, _, s in orbits for name in names},
    )


@dataclass(frozen=True)
class ReferenceDivisorClass:
    """The rational class a.pi*C2 + b.pi*F - sum c_i E_i as m + 2 Fractions:
    the form ``picard.DivisorClass`` had before it held integer coordinates
    over one denominator.  Equality and ``repr`` are the ones the integer
    class must keep."""

    a: object
    b: object
    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", Rat(self.a))
        object.__setattr__(self, "b", Rat(self.b))
        object.__setattr__(self, "c", tuple(Rat(x) for x in self.c))

    def __add__(self, other):
        self._check_rank(other)
        return ReferenceDivisorClass(
            self.a + other.a, self.b + other.b, tuple(x + y for x, y in zip(self.c, other.c)))

    def __sub__(self, other):
        self._check_rank(other)
        return ReferenceDivisorClass(
            self.a - other.a, self.b - other.b, tuple(x - y for x, y in zip(self.c, other.c)))

    def __neg__(self):
        return ReferenceDivisorClass(-self.a, -self.b, tuple(-x for x in self.c))

    def scale(self, t):
        t = Rat(t)
        return ReferenceDivisorClass(t * self.a, t * self.b, tuple(t * x for x in self.c))

    def _check_rank(self, other):
        if len(self.c) != len(other.c):
            raise ValueError(
                f"dimension mismatch: classes live on m={len(self.c)} vs m={len(other.c)}"
            )

    def __repr__(self) -> str:
        cs = ",".join(str(x) for x in self.c)
        return f"DivisorClass(a={self.a}, b={self.b}, c=({cs}))"


def add_multiple(d: DivisorClass, t, e: DivisorClass) -> DivisorClass:
    """d + t e, added and scaled as ``ReferenceDivisorClass``es."""
    r = ReferenceDivisorClass(*coordinates(d)) + ReferenceDivisorClass(*coordinates(e)).scale(t)
    return divisor(r.a, r.b, r.c)


def zero_class(model) -> DivisorClass:
    return DivisorClass((0,) * (model.m + 2))


def negative_class(model, zd) -> DivisorClass:
    """N = sum a_i C_i of a Zariski decomposition."""
    n = zero_class(model)
    for curve, coeff in zd.negative:
        n = add_multiple(n, coeff, model.class_of(curve))
    return n


def reference_intersect(model, d1, d2):
    """n a1 a2 + a1 b2 + a2 b1 - sum c1i c2i on ``ReferenceDivisorClass``es."""
    acc = model.n * d1.a * d2.a + d1.a * d2.b + d2.a * d1.b
    for x, y in zip(d1.c, d2.c):
        acc -= x * y
    return acc


def reference_pairings(model, d) -> list:
    """D.C over the candidate curves, in closed form, on Fractions."""
    return [d.b, model.n * d.a + d.b - sum(d.c), *d.c, *(d.a - x for x in d.c)]


def reference_is_nef(model, d) -> bool:
    return all(x >= 0 for x in reference_pairings(model, d)) and d.a >= 0


def reference_log_anticanonical(model, angles):
    b1, b2 = angles.beta1, angles.beta2
    return ReferenceDivisorClass(b1 + b2, 2 - model.n * b1, (b2,) * model.m)


# The closed-form oracle on Fractions: the form ``kedge.closedforms`` had
# before it read the angles' integers (L, P1, P2).  The integer forms must
# return the same pieces, S values and Nones.

def _reference_square(k, c, s=ZERO):
    """k (c - x)^2 + s as a coefficient triple (q0, q1, q2); k is a Rat."""
    return (k * c * c + s, -2 * k * c, k)


def _reference_product(t, c, d):
    """(t - x)(c + d x) as a coefficient triple; d is a Rat."""
    return (t * c, t * d - c, -d)


def reference_classify_exceptional_case(model, angles) -> str | None:
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
    """b1^2 - b2^2 - (n*b1^3 + (n-m)*b2^3)/3, the sign-carrying bracket:
    S(C1tilde) = b1 - 2*bracket/vol and S(C2tilde) = b2 + 2*bracket/vol."""
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    return b1 * b1 - b2 * b2 - (n * b1**3 + (n - m) * b2**3) / Rat(3)


def reference_closed_form_S(E, model, angles) -> Rat | None:
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
    if E == GENERIC_FIBER:
        # S (-K_Delta)^2 = [b1 ((n b1 - 3)^2 + 3) + b2 (((m - n) b2 - 3)^2 + 3)] / 3
        return (b1 * ((n * b1 - 3) ** 2 + 3) + b2 * (((m - n) * b2 - 3) ** 2 + 3)) / (3 * vol)
    return None


def _reference_normalize(raw) -> tuple:
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


def _reference_freeze(walls, chambers) -> tuple:
    pieces = [
        QuadraticPiece(lo, hi, *quadratic(), support)
        for (lo, hi), (quadratic, support) in zip(pairwise(walls), chambers, strict=True)
        if lo != hi
    ]
    return _reference_normalize(pieces)


def reference_closed_form_volume_curve(E, model, angles) -> tuple | None:
    model.ensure_ample(angles)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    total = b1 + b2
    vol = total_volume(model, angles)
    es, fs = model.candidates[2:m + 2], model.candidates[m + 2:]

    if E in (C1TILDE, C2TILDE):
        if E == C1TILDE:
            (b, e), (b_other, e_other), joining = (b1, -n), (b2, n - m), fs
        else:
            (b, e), (b_other, e_other), joining = (b2, n - m), (b1, -n), es
        return _reference_freeze((ZERO, b, total), (
            (lambda: (vol, -2 * (2 + e * b), Rat(e)), ()),
            (lambda: _reference_product(total, 4 + e_other * (b_other - b), Rat(e_other)),
             joining),
        ))

    if E not in es:
        return None
    case = reference_classify_exceptional_case(model, angles)
    if case is None:
        return None
    i = es.index(E)
    fi = fs[i]
    c1_wall, c2_wall, two = 2 - (n - 1) * b1, 2 - (m - n) * b2, Rat(2)
    opening = (
        (lambda: (vol, -2 * b2, Rat(-1)), ()),
        (lambda: (4 * total - (n - 1) * b1 * b1 + (n - m) * b2 * b2, -2 * total, ZERO), (fi,)),
    )
    with_c1 = (lambda: _reference_square(Rat(1, n - 1), 2 + (n - 1) * b2, -(m - 1) * b2 * b2),
               (C1TILDE, fi))
    with_c2 = (lambda: _reference_square(Rat(1, m - n), 2 + (m - n) * b1, -(m - 1) * b1 * b1),
               (C2TILDE, fi))
    with_c1_c2 = (lambda: _reference_square(Rat(m - 1, (m - n) * (n - 1)), 2),
                  (C1TILDE, C2TILDE, fi))
    if case == CASE_N_GE_M:
        tau = 2 + (n - m) * b2
        last = (lambda: _reference_square(Rat(1, n - m), tau), (C1TILDE, *fs))
        walls, chambers = (c1_wall, two, tau), (with_c1, last)
    elif case == CASE_C1_FIRST:
        walls, chambers = (c1_wall, c2_wall, two), (with_c1, with_c1_c2)
    elif case == CASE_C2_FIRST:
        walls, chambers = (c2_wall, c1_wall, two), (with_c2, with_c1_c2)
    else:  # CASE_N_ZERO
        others = es[:i] + es[i + 1:]
        last = (lambda: _reference_square(Rat(1), 2 + b1), (C2TILDE, *others, fi))
        walls, chambers = (c2_wall, two, 2 + b1), (with_c2, last)
    return _reference_freeze((ZERO, b1, *walls), (*opening, *chambers))
