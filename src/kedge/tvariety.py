"""Complexity-one torus route: support function, Legendre duals, delta.

The surface carries a C*-action of complexity one, encoded (rank-1
lattice, so every polyhedron is an interval) by one nontrivial slice per
marked point of P^1: the slice over p0 has the single vertex n, the
slice over each blown-up point p_i has vertices -1 and 0, all other
slices are trivial.  The log anticanonical class corresponds to a
divisorial support function h; its pointwise Legendre duals

    Psi_p(u) = min over vertices v of the slice over p of (u v - h_p(v))

live on the moment interval [-beta1, beta2] and carry the integrals of
deg Psi (vol, first moment, half square).  With one cross term per point
they assemble into the delta invariant as a minimum over ray and vertex
valuations; delta and the Futaki sign read the same first moment.

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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .picard import (
    C1TILDE,
    C2TILDE,
    GENERIC_FIBER,
    Angles,
    DivisorClass,
    SurfaceModel,
    SurfaceParams,
    as_model,
)
from .ratmath import ONE, ZERO, Rat, sign
from .zariski import InconsistencyError


def _dot(xs, ws):
    return sum((a * b for a, b in zip(xs, ws)), ZERO)


@dataclass(frozen=True)
class SupportFunction:
    """Divisorial support function of -K_{S,Delta}.

    The linear tail has slope beta2 on v < 0 and -beta1 on v >= 0; the
    per-point affine pieces are pinned down by their vertex values
    h_{p0}(n) = -2 and h_{pi}(-1) = h_{pi}(0) = 0.
    """

    params: SurfaceParams
    angles: Angles

    def tail(self, v):
        """h_t(v): slope beta2 for v < 0, slope -beta1 for v >= 0."""
        v = Rat(v)
        return self.angles.beta2 * v if v < 0 else -self.angles.beta1 * v

    @property
    def slices(self) -> tuple:
        """Vertices (v, h_p(v)) of the slices over p0, over every marked
        point p_i and over a generic point; every vertex is a lattice
        point, so every multiplicity is 1."""
        return ((Rat(self.params.n), Rat(-2)),), ((-ONE, ZERO), (ZERO, ZERO)), ((ZERO, ZERO),)

    def divisor_class(self, model: SurfaceModel):
        """Reassemble the divisor class encoded by h.

        The ray with primitive generator +1 carries C~1, the ray with -1
        carries C~2, and each vertex (p, v) carries the corresponding
        vertical divisor; the class is -sum h_t(n_rho) D_rho -
        sum mu(v) h_p(v) D_{p,v}.  Only the p0 vertex value is nonzero,
        contributing 2 F.  The sum is formed coordinatewise, as one class.
        """
        ((_, h_p0),), _, _ = self.slices
        t1, t2, tf = -self.tail(ONE), -self.tail(-ONE), -h_p0
        c1, c2, f = (model.class_of(c) for c in (C1TILDE, C2TILDE, GENERIC_FIBER))
        return DivisorClass(
            t1 * c1.a + t2 * c2.a + tf * f.a,
            t1 * c1.b + t2 * c2.b + tf * f.b,
            tuple(t1 * x + t2 * y + tf * z for x, y, z in zip(c1.c, c2.c, f.c)),
        )


def anticanonical_support_function(params, angles: Angles) -> SupportFunction:
    """Support function h of -K_{S,Delta}, certified by round-tripping
    the encoded class against the lattice side (InconsistencyError if not)."""
    model = as_model(params)
    h = SupportFunction(params=model.params, angles=angles)
    if h.divisor_class(model) != model.log_anticanonical(angles):
        raise InconsistencyError("support function does not encode -K_{S,Delta}")
    return h


@dataclass(frozen=True)
class DualData:
    """Legendre duals of h and deg Psi as their values at x, with the hat
    weights of deg Psi and the integrals read off them."""

    x: tuple  # (-beta1, 0, beta2)
    psi_p0: tuple
    psi_marked: tuple  # common dual for every p_i, i >= 1
    psi_generic: tuple
    deg_psi: tuple  # psi_p0 + m psi_marked
    weights: tuple  # w_i = integral of phi_i * deg Psi
    vol: object  # integral of deg Psi = sum w_i
    first_moment: object  # integral of u * deg Psi(u) = sum x_i w_i
    half_square: object  # (1/2) integral of deg Psi^2 = (1/2) sum g_i w_i


def legendre_dual(h: SupportFunction) -> DualData:
    """Duals Psi_p(u) = min over slice vertices v of (u v - h_p(v)) at
    x = (-beta1, 0, beta2), the ends of the moment interval cut out by the
    tail slopes of h_t and the one crossing of vertex lines."""
    b1, b2 = h.angles.beta1, h.angles.beta2
    x = (-b1, ZERO, b2)
    p0, marked, generic = (
        tuple(min(u * v - hv for v, hv in vertices) for u in x) for vertices in h.slices
    )
    g = tuple(a + h.params.m * b for a, b in zip(p0, marked))
    s1, s2 = b1 / 6, b2 / 6
    w = (
        s1 * (2 * g[0] + g[1]),
        s1 * (g[0] + 2 * g[1]) + s2 * (2 * g[1] + g[2]),
        s2 * (g[1] + 2 * g[2]),
    )
    return DualData(
        x=x,
        psi_p0=p0,
        psi_marked=marked,
        psi_generic=generic,
        deg_psi=g,
        weights=w,
        vol=sum(w, ZERO),
        first_moment=_dot(x, w),
        half_square=_dot(g, w) / 2,
    )


def bc_p(d: DualData, psi: tuple):
    """bc_p = (1/vol(Psi)) * integral of ((1/2) deg Psi - Psi_p) deg Psi du,
    for Psi_p given by its values at d.x (the cross term is their dot
    product with the hat weights)."""
    return (d.half_square - _dot(psi, d.weights)) / d.vol


@dataclass(frozen=True)
class ValuationTerm:
    """One competitor in the delta minimum: named valuation with A, S, A/S."""

    name: str
    A: object
    S: object

    @cached_property
    def ratio(self):
        return self.A / self.S


@dataclass(frozen=True)
class DeltaReport:
    """delta = min over ray and vertex valuations of A/S, with witnesses."""

    delta: object
    witnesses: tuple  # names of all terms attaining the minimum, canonical order
    terms: tuple  # ValuationTerm, canonical order
    futaki_sign: int  # sign of -integral of u * deg Psi, as futaki_vanishes

    @property
    def witness(self) -> str:
        return self.witnesses[0]

    def term(self, name: str) -> ValuationTerm:
        for t in self.terms:
            if t.name == name:
                return t
        raise KeyError(name)


def futaki_vanishes(params, angles: Angles) -> int:
    """Sign of the angle bracket; 0 exactly when the barycenter vanishes.

    Computed on the torus side as -integral of u * deg Psi(u) du (no
    division, so no ampleness assumption is needed)."""
    return sign(-legendre_dual(anticanonical_support_function(params, angles)).first_moment)


def delta_tvariety(params, angles: Angles) -> DeltaReport:
    """delta as the exact minimum over ray and vertex valuations.

    Ray terms: -h_t(n_rho) / (bc n_rho - h_t(n_rho)) for the two rays,
    bc = (1/vol) integral of u * deg Psi the barycenter.
    Vertex terms: 1 / (bc_p + bc v - h_p(v)) per slice vertex (all
    multiplicities are 1), including the vertex of the fiber over p0 and
    one representative of the identical generic-fiber terms.
    """
    model = as_model(params)
    model.ensure_ample(angles)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    d = legendre_dual(anticanonical_support_function(model, angles))
    bc = d.first_moment / d.vol
    bc_pi = bc_p(d, d.psi_marked)

    terms = [
        ValuationTerm(name="C1tilde", A=b1, S=bc + b1),
        ValuationTerm(name="C2tilde", A=b2, S=b2 - bc),
    ]
    terms += [ValuationTerm(name=f"E{i}", A=ONE, S=bc_pi - bc) for i in range(1, m + 1)]
    terms += [ValuationTerm(name=f"F{i}tilde", A=ONE, S=bc_pi) for i in range(1, m + 1)]
    terms.append(ValuationTerm(name="FiberP0", A=ONE, S=bc_p(d, d.psi_p0) + n * bc + 2))
    terms.append(ValuationTerm(name="GenericFiber", A=ONE, S=bc_p(d, d.psi_generic)))

    delta = min(t.ratio for t in terms)
    witnesses = tuple(t.name for t in terms if t.ratio == delta)
    return DeltaReport(delta, witnesses, tuple(terms), futaki_sign=sign(-d.first_moment))
