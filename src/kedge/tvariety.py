"""Complexity-one torus route: support function, Legendre duals, delta.

The surface carries a C*-action of complexity one, encoded (rank-1
lattice, so every polyhedron is an interval) by one nontrivial slice per
marked point of P^1: the slice over p0 has the single vertex n, the
slice over each blown-up point p_i has vertices -1 and 0, all other
slices are trivial.  The log anticanonical class corresponds to a
divisorial support function h: its linear tail has slope beta2 on v < 0
and -beta1 on v >= 0, and its per-point affine pieces are pinned down by
the vertex values h_p0(n) = -2 and h_pi(-1) = h_pi(0) = 0.  So h is fixed
by n, m and the angles, and no object stands for it:
``legendre_dual(model, angles)`` certifies once per surface (n, m) in a
process that h encodes -K_{S,Delta} (the round trip depends on n and m
only, and its passing is kept per surface like the candidate tables), then
returns its pointwise Legendre duals

    Psi_p(u) = min over vertices v of the slice over p of (u v - h_p(v)).

They live on the moment interval [-beta1, beta2] and carry the integrals
of deg Psi (vol, first moment, half square).  With one cross term per
point they assemble into the delta invariant as a minimum over ray and
vertex valuations; delta and the verdict's Futaki check read the same
first moment.

Three points carry every dual exactly.  Psi_p0(u) = n u + 2 is one line
and Psi_generic = 0 another; the two lines -u and 0 of a marked slice
cross at u = 0, which is the only crossing of any two vertex lines of
one slice.  So every dual, and deg Psi = Psi_p0 + m Psi_pi, is linear on
[-beta1, 0] and on [0, beta2], and is stored as its values at
x = (-beta1, 0, beta2).  With g = deg Psi(x), the hat functions phi_i
at x_i have the weights

    w_0 = (beta1/6) (2 g_0 + g_1)
    w_1 = (beta1/6) (g_0 + 2 g_1) + (beta2/6) (2 g_1 + g_2)
    w_2 = (beta2/6) (g_1 + 2 g_2),

w_i = int phi_i * deg Psi, and every integral of f * deg Psi with f
linear on both halves is the exact dot product sum f(x_i) w_i: vol takes
f = 1, the first moment f = u, the half square f = deg Psi / 2 and each
cross term f = Psi_p.

All of it is integer arithmetic over one common denominator, read from
the angles' integer form ``Angles.scaled`` = (L, P1, P2): L = lcm(q1, q2)
for beta_i = p_i / q_i, and P_i = L beta_i.  Every slice vertex v and
every value h_p(v) is an integer, so at X = L x = (-P1, 0, P2) each
scaled dual

    L Psi_p(x_i) = min over vertices v of (X_i v - L h_p(v))

is an integer, and so is G = L deg Psi(x).  The scaled hat weights
W = 6 L^2 w are the integers

    W_0 = P1 (2 G_0 + G_1)
    W_1 = P1 (G_0 + 2 G_1) + P2 (2 G_1 + G_2)
    W_2 = P2 (G_1 + 2 G_2),

and VOL = sum W_i, FM = sum X_i W_i and HS2 = sum G_i W_i are 6 L^2 vol,
6 L^3 (first moment) and 12 L^3 (half square).  So the barycenter is
bc = FM / (L VOL), each cross term is bc_p = (HS2 - 2 sum L Psi_p(x_i) W_i)
/ (2 L VOL), every S of the delta minimum is an integer numerator over
2 L VOL, and the Futaki sign is -sign(FM).  The minimum keeps FM itself,
which the verdict checks against the angle condition's cubics of
``SurfaceModel.boundary_cubics``: FM = 2 (f2 - f1).  ``scaled_duals(model,
L, P1, P2)`` returns the scaled duals, W, VOL, FM and HS2, integers only (X and
G are read off L, the angles and the duals), with no record around them;
``legendre_dual`` puts L in front.  A reader divides by the power of L it
needs.

The delta minimum stays on integers too, with one entry per S_m orbit,
and every A and S is an integer over one denominator D = 2 L VOL: each S
is a cross term's numerator over D, and each A is beta1, beta2 or 1, so
its L A is P1, P2 or L and D A = 2 VOL (L A).  So an orbit's A/S is a/s
and delta = a_min / s_min.  ``delta_minimum(model, L, P1, P2)`` keeps
each orbit's a = D A and s = D S, canonical order, and nothing more per
point.  One pass over the six orbits (four at m = 0) checks every S > 0,
after VOL > 0, and finds a least A/S by cross-multiplying the small L A
with s; the scale 2 VOL is applied once, after the search.  It returns
plain integers and tuples, and the verdict compares a with s, so a
``scan`` row forms no record and no Fraction.  A ``DeltaReport`` is
those integers followed by the surface and L, formed by ``delta_tvariety``
(after its ample check) and by ``verdict.k_polystable``, and the report
forms delta, the one Fraction, when it is read.  The orbits' first names
and sizes, in the minimum's order, are the surface's
``SurfaceModel.orbit_rows``, the table that the closed forms and the
verdict read too.  An ``Orbit`` record, with its first name, size, A and
S, is formed only when the report's orbits or a term are read, and a name
is spelled only there and in the witnesses: the CLI's per-divisor table
reads the orbits once, a scan row never.  ``DeltaReport.term`` finds a
name's orbit by its first name, or by ``picard.orbit_of``, which reads the
name grammar, and forms that one record; ``picard.orbit_names`` spells an
orbit's names, as it spells the surface's candidate curves.  ``FiberP0``
is a name of this route alone, which the name grammar does not read.
"""
from __future__ import annotations

from typing import NamedTuple

from .picard import (C1TILDE, C2TILDE, GENERIC_FIBER, Angles, DivisorClass, InconsistencyError,
                     SurfaceModel, orbit_names, orbit_of, per_surface)
from .ratmath import Rat


def _slices(n: int) -> tuple:
    """Vertices (v, h_p(v)) of the slices over p0, over every marked point
    p_i and over a generic point, as ints; every vertex is a lattice point,
    so every multiplicity is 1."""
    return ((n, -2),), ((-1, 0), (0, 0)), ((0, 0),)


def _encoded_class(model: SurfaceModel, angles: Angles) -> DivisorClass:
    """Reassemble the divisor class encoded by h at ``angles``.

    The ray with primitive generator +1 carries C~1, the ray with -1
    carries C~2, and each vertex (p, v) carries the corresponding
    vertical divisor; the class is -sum h_t(n_rho) D_rho -
    sum mu(v) h_p(v) D_{p,v}.  The tail gives -h_t(1) = beta1 and
    -h_t(-1) = beta2, and only the p0 vertex value is nonzero,
    contributing 2 F.  Every named class has denominator 1, so the sum
    is taken on the classes' integer coordinates with the weights over
    the angles' common denominator L, and the class is formed once.
    """
    ((_, h_p0),), _, _ = _slices(model.n)
    L, p1, p2 = angles.scaled
    w3 = -L * h_p0
    coords = (model.class_of(c).num for c in (C1TILDE, C2TILDE, GENERIC_FIBER))
    num = [p1 * x + p2 * y + w3 * z for x, y, z in zip(*coords)]
    return DivisorClass(num, L)


# Three affinely independent angle pairs.
_CERTIFICATE_ANGLES = (Angles(1, 1), Angles(2, 1), Angles(1, 2))


@per_surface
def _certify_support_function(model: SurfaceModel) -> None:
    """Round-trip h's encoded class against ``log_anticanonical`` at the
    three angle pairs (see ``legendre_dual``), kept per surface (n, m).  A
    failed round trip raises InconsistencyError and is not kept."""
    for frame in _CERTIFICATE_ANGLES:
        if _encoded_class(model, frame) != model.log_anticanonical(frame):
            raise InconsistencyError("support function does not encode -K_{S,Delta}")


def scaled_duals(model: SurfaceModel, L: int, p1: int, p2: int) -> tuple:
    """The duals at the angles' integer form (L, P1, P2), with the support
    function certified first (see ``legendre_dual``): the integers of the
    module docstring, at these scales,

        PSI_P0       L Psi_p0(x)
        PSI_MARKED   L Psi_pi(x), common to every p_i, i >= 1
        PSI_GENERIC  L Psi_generic(x)
        W            6 L^2 w, w_i = integral of phi_i * deg Psi
        VOL          6 L^2 vol = sum W_i
        FM           6 L^3 first moment = sum X_i W_i
        HS2          12 L^3 half square = sum G_i W_i,

    in this order, each PSI_* and W a triple over x = (-beta1, 0, beta2)."""
    _certify_support_function(model)
    duals = []
    for vertices in _slices(model.n):
        # L Psi_p at X = (-P1, 0, P2): the least vertex line X v - L h_p(v).
        lo = mid = hi = None
        for v, hv in vertices:
            c = L * hv
            x, y, z = -p1 * v - c, -c, p2 * v - c
            if lo is None or x < lo:
                lo = x
            if mid is None or y < mid:
                mid = y
            if hi is None or z < hi:
                hi = z
        duals.append((lo, mid, hi))
    p0, marked, generic = duals
    m = model.m
    g0, g1, g2 = p0[0] + m * marked[0], p0[1] + m * marked[1], p0[2] + m * marked[2]
    w0 = p1 * (2 * g0 + g1)
    w1 = p1 * (g0 + 2 * g1) + p2 * (2 * g1 + g2)
    w2 = p2 * (g1 + 2 * g2)
    return (p0, marked, generic, (w0, w1, w2),
            w0 + w1 + w2, p2 * w2 - p1 * w0, g0 * w0 + g1 * w1 + g2 * w2)


def legendre_dual(model: SurfaceModel, angles: Angles) -> tuple:
    """Duals Psi_p(u) = min over slice vertices v of (u v - h_p(v)) of the
    support function h of -K_{S,Delta}, at x = (-beta1, 0, beta2), the ends
    of the moment interval cut out by the tail slopes of h_t and the one
    crossing of vertex lines, scaled by L: (L, *``scaled_duals``).

    h is certified first by round-tripping its encoded class against the
    lattice side (InconsistencyError if not).  The encoded class,
    beta1 [C~1] + beta2 [C~2] + 2 F, and ``log_anticanonical`` are both
    affine in (beta1, beta2).  Two affine maps that agree at three affinely
    independent points agree everywhere, so the round trip is checked at
    (1, 1), (2, 1) and (1, 2) once per surface (n, m) in a process
    (``_certify_support_function``), and then holds for every angle pair.
    """
    L, p1, p2 = angles.scaled
    return (L, *scaled_duals(model, L, p1, p2))


def cross(W: tuple, HS2: int, psi: tuple) -> int:
    """2 L VOL bc_p for the scaled dual ``psi`` (one of the PSI_* of
    ``scaled_duals``), with the hat weights W and the half square HS2."""
    w0, w1, w2 = W
    return HS2 - 2 * (psi[0] * w0 + psi[1] * w1 + psi[2] * w2)


class Orbit(NamedTuple):
    """One S_m orbit of the delta minimum: every term in it, a valuation of
    one of the orbit's names, has this one A, S and A/S."""

    name: str  # first name, canonical order
    size: int
    A: object  # Rat: beta1, beta2 or 1
    S: object  # Rat

    @property
    def ratio(self):
        return self.A / self.S

    def names(self) -> tuple:
        """Every name in the orbit, canonical order."""
        return orbit_names(self.name, self.size)


class DeltaReport(NamedTuple):
    """delta = min over ray and vertex valuations of A/S, with witnesses.

    The terms are kept as integers over one denominator D = 2 L VOL, one
    D A and one D S per S_m orbit, so each orbit's A/S is a/s and
    delta = a_min / s_min, formed when read; the ``Orbit`` records, and
    the names they spell, are formed only when the orbits or a term are
    asked for."""

    a_min: int  # D A of a least orbit
    s_min: int  # its D S
    FM: int  # 6 L^3 first moment; the Futaki sign is -sign(FM)
    a: tuple  # D A of each orbit, canonical order
    s: tuple  # D S of each orbit, canonical order
    VOL: int  # 6 L^2 vol
    model: SurfaceModel  # the surface: ``orbit_rows`` names and sizes the orbits
    L: int  # lcm of the angles' denominators

    @property
    def delta(self):
        return Rat(self.a_min, self.s_min)

    def _orbit(self, i: int) -> Orbit:
        """The record of the orbit at position i, canonical order."""
        first, size, _, _ = self.model.orbit_rows[i]
        den = 2 * self.L * self.VOL
        return Orbit(first, size, Rat(self.a[i], den), Rat(self.s[i], den))

    @property
    def orbits(self) -> tuple:
        """One ``Orbit`` record per S_m orbit, canonical order."""
        return tuple(map(self._orbit, range(len(self.s))))

    @property
    def witnesses(self) -> tuple:
        """Names of all terms attaining the minimum, canonical order."""
        a_min, s_min, rows = self.a_min, self.s_min, self.model.orbit_rows
        return tuple(name for (first, size, _, _), a, s in zip(rows, self.a, self.s)
                     if a * s_min == a_min * s for name in orbit_names(first, size))

    def term(self, name: str) -> Orbit:
        """The ``Orbit`` record of ``name``'s S_m orbit, the one term its
        members share; KeyError for a name with no term on this surface."""
        firsts = [row[0] for row in self.model.orbit_rows]
        try:
            i = firsts.index(name if name in firsts else orbit_of(name, self.model.m)[0])
        except ValueError:  # no curve name, or PullbackC2: no orbit of this route
            raise KeyError(name) from None
        return self._orbit(i)


def delta_minimum(model: SurfaceModel, L: int, p1: int, p2: int) -> tuple:
    """delta as the exact minimum over ray and vertex valuations, at the
    angles' integer form (L, P1, P2), as the integers a ``DeltaReport``
    holds: (a_min, s_min, FM, a, s, VOL).  Whether the angles are
    in the ample range is the caller's to check.

    Ray terms: -h_t(n_rho) / (bc n_rho - h_t(n_rho)) for the two rays,
    bc = (1/vol) integral of u * deg Psi the barycenter.
    Vertex terms: 1 / (bc_p + bc v - h_p(v)) per slice vertex (all
    multiplicities are 1), including the vertex of the fiber over p0 and
    one representative of the identical generic-fiber terms.

    S_m permutes the E_i and the F~i, so each orbit has one A and one S,
    and the minimum keeps one a = D A and one s = D S per orbit, over
    D = 2 L VOL.  One pass over them checks S > 0 (InconsistencyError
    otherwise, as for VOL <= 0) and finds a least A/S by cross-multiplying
    L A with s; a and a_min are scaled to D A after it (module docstring).
    """
    n, m = model.n, model.m
    psi_p0, psi_marked, psi_generic, W, VOL, FM, HS2 = scaled_duals(model, L, p1, p2)
    if VOL <= 0:
        raise InconsistencyError("torus route: vol is not positive")
    # S = bc + beta1, beta2 - bc, bc_pi - bc, bc_pi, bc_p0 + n bc + 2 and bc_generic
    s = (2 * (FM + p1 * VOL), 2 * (p2 * VOL - FM))
    if m:
        cross_marked = cross(W, HS2, psi_marked)
        s += (cross_marked - 2 * FM, cross_marked)
    s += (cross(W, HS2, psi_p0) + 2 * n * FM + 4 * L * VOL, cross(W, HS2, psi_generic))
    vertical = len(s) - 2
    la = (p1, p2) + (L,) * vertical
    a_min, s_min = p1, s[0]
    for i, si in enumerate(s):
        if si <= 0:
            raise InconsistencyError(f"torus route: S of {model.orbit_rows[i][0]} is not positive")
        if la[i] * s_min < a_min * si:
            a_min, s_min = la[i], si
    # Searched on the small L A; D A = 2 VOL (L A).
    two_vol = 2 * VOL
    a = (two_vol * p1, two_vol * p2, *(two_vol * L,) * vertical)
    return two_vol * a_min, s_min, FM, a, s, VOL


def delta_tvariety(model: SurfaceModel, angles: Angles) -> DeltaReport:
    """``delta_minimum``'s report at ``angles``, which must lie in the
    ample range (OutsideAmpleRange otherwise)."""
    model.ensure_ample(angles)
    L, p1, p2 = angles.scaled
    return DeltaReport(*delta_minimum(model, L, p1, p2), model, L)
