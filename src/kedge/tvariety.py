"""Complexity-one torus route: slices, support function, dual PL data, delta.

The surface carries a C*-action of complexity one, encoded (rank-1
lattice, so every polyhedron is an interval) by one nontrivial slice per
marked point of P^1: the slice over p0 has the single vertex n, the
slice over each blown-up point p_i has vertices -1 and 0, all other
slices are trivial.  The log anticanonical class corresponds to a
divisorial support function h; its pointwise Legendre duals Psi_p live
on the moment interval and carry the integrals of deg Psi (vol, first
moment, half square).  With one cross term per point they assemble into
the delta invariant as a minimum over ray and vertex valuations; delta
and the Futaki sign read the same first moment.

Every integral here has the form int f * deg Psi with f linear on each
segment between consecutive breakpoints x_0 < ... < x_k of deg Psi.
With phi_i the hat function at x_i and g_i = deg Psi(x_i), the weights

    w_i = int phi_i * deg Psi
        = (x_i - x_{i-1})/6 (g_{i-1} + 2 g_i) + (x_{i+1} - x_i)/6 (2 g_i + g_{i+1})

(a term is absent at an end of the interval) are computed once per dual,
and every such integral is the exact dot product sum f(x_i) w_i: vol
takes f = 1, the first moment f = u, the half square f = deg Psi / 2 and
each cross term f = Psi_p, whose breakpoints all lie among the x_i.
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
from .ratmath import ONE, ZERO, Rat, as_rat, sign
from .zariski import InconsistencyError

# ---------------------------------------------------------------------------
# Piecewise-linear functions on a closed rational interval


@dataclass(frozen=True)
class PLFunction:
    """Continuous piecewise-linear function via breakpoints and values."""

    breakpoints: tuple  # sorted Rats; at least the two interval endpoints
    values: tuple

    def __post_init__(self):
        bps = tuple(as_rat(x) for x in self.breakpoints)
        vals = tuple(as_rat(v) for v in self.values)
        if len(bps) != len(vals) or len(bps) < 2:
            raise ValueError("need matching breakpoints/values, at least two")
        if any(x >= y for x, y in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @property
    def lo(self):
        return self.breakpoints[0]

    @property
    def hi(self):
        return self.breakpoints[-1]

    def value(self, u):
        u = Rat(u)
        if u < self.lo or u > self.hi:
            raise ValueError(f"{u} outside [{self.lo}, {self.hi}]")
        bps, vals = self.breakpoints, self.values
        for i in range(len(bps) - 1):
            if u <= bps[i + 1]:
                t = (u - bps[i]) / (bps[i + 1] - bps[i])
                return vals[i] + t * (vals[i + 1] - vals[i])
        raise AssertionError("unreachable")

    def slopes(self) -> tuple:
        return tuple(
            (v1 - v0) / (x1 - x0)
            for (x0, v0), (x1, v1) in zip(
                zip(self.breakpoints, self.values),
                zip(self.breakpoints[1:], self.values[1:]),
            )
        )

    def is_concave(self) -> bool:
        s = self.slopes()
        return all(a >= b for a, b in zip(s, s[1:]))

    def __add__(self, other: "PLFunction") -> "PLFunction":
        pts, fv, gv = _refine(self, other)
        return PLFunction(pts, tuple(a + b for a, b in zip(fv, gv)))

    def scale(self, t) -> "PLFunction":
        t = Rat(t)
        return PLFunction(self.breakpoints, tuple(t * v for v in self.values))

    def integral(self):
        """Exact integral over the domain (trapezoid per segment)."""
        total = ZERO
        for i in range(len(self.breakpoints) - 1):
            width = self.breakpoints[i + 1] - self.breakpoints[i]
            total += width * (self.values[i] + self.values[i + 1]) / 2
        return total

    def min_value(self):
        return min(self.values)


def pl_line(lo, hi, slope, intercept=ZERO) -> PLFunction:
    lo, hi, slope, intercept = Rat(lo), Rat(hi), Rat(slope), Rat(intercept)
    return PLFunction((lo, hi), (slope * lo + intercept, slope * hi + intercept))


def pl_min_of_lines(lo, hi, lines) -> PLFunction:
    """Lower envelope of affine functions u -> slope*u + intercept on [lo, hi].

    All pairwise intersection points inside the interval are taken as
    candidate breakpoints; the envelope is linear between consecutive
    candidates, so pointwise minimization there is exact.
    """
    lo, hi = Rat(lo), Rat(hi)
    lines = [(as_rat(s), as_rat(c)) for s, c in lines]
    if not lines:
        raise ValueError("need at least one line")
    pts = {lo, hi}
    for i, (s1, c1) in enumerate(lines):
        for s2, c2 in lines[i + 1 :]:
            if s1 != s2:
                u = (c2 - c1) / (s1 - s2)
                if lo < u < hi:
                    pts.add(u)
    bps = tuple(sorted(pts))
    vals = tuple(min(s * u + c for s, c in lines) for u in bps)
    return PLFunction(bps, vals)


def _refine(f: PLFunction, g: PLFunction):
    """Union of the breakpoints of f and g, with the values of each there
    (tabulate refuses functions on different domains)."""
    pts = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
    return pts, tabulate(f, pts), tabulate(g, pts)


def tabulate(f: PLFunction, pts: tuple) -> tuple:
    """Values of f at the sorted points pts, in one merge walk: f's own
    breakpoints are read off, the others interpolated on their segment.

    pts must span f's domain and contain every breakpoint of f (the
    refinement of f); otherwise ValueError.
    """
    bps, vals = f.breakpoints, f.values
    if (pts[0], pts[-1]) != (bps[0], bps[-1]):
        raise ValueError("domain mismatch")
    out = []
    j = 0  # first breakpoint of f not yet passed
    for x in pts:
        if x == bps[j]:
            out.append(vals[j])
            j += 1
        elif x < bps[j]:
            x0, v0 = bps[j - 1], vals[j - 1]
            out.append(v0 + (x - x0) * (vals[j] - v0) / (bps[j] - x0))
        else:
            raise ValueError(f"breakpoint {bps[j]} is not among the points")
    return tuple(out)


def hat_weights(g: PLFunction) -> tuple:
    """w_i = integral of phi_i * g over g's domain, phi_i the hat function
    at the i-th breakpoint of g.  For any f linear on each segment of g,
    integral of f * g = sum of f(x_i) * w_i exactly."""
    x, v = g.breakpoints, g.values
    w = [ZERO] * len(x)
    for i in range(len(x) - 1):
        step = (x[i + 1] - x[i]) / 6
        w[i] += step * (2 * v[i] + v[i + 1])
        w[i + 1] += step * (v[i] + 2 * v[i + 1])
    return tuple(w)


def _dot(xs, ws):
    return sum((a * b for a, b in zip(xs, ws)), ZERO)


# ---------------------------------------------------------------------------
# The f-divisor and the support function of the log anticanonical class


@dataclass(frozen=True)
class Slice:
    """Nontrivial slice over a marked point: its vertex set (rank 1)."""

    point: str  # "p0" or "p1".."pm"
    vertices: tuple

    def __post_init__(self):
        verts = tuple(Rat(v) for v in self.vertices)
        for v in verts:
            # all slice vertices are lattice points, so every multiplicity
            # mu(v) is 1; fractional vertices would need rescaling we
            # deliberately do not implement
            if v.denominator != 1:
                raise ValueError(f"non-integral vertex {v} on slice {self.point}")
        object.__setattr__(self, "vertices", verts)


@dataclass(frozen=True)
class FDivisorModel:
    """Slices of the complexity-one structure; empty degree part."""

    params: SurfaceParams
    slices: tuple  # Slice for p0, p1..pm

    @property
    def slice_p0(self) -> Slice:
        return self.slices[0]

    def slice_marked(self, i: int) -> Slice:
        if not 1 <= i <= self.params.m:
            raise ValueError(f"marked point index {i} out of range")
        return self.slices[i]


def build_fdivisor(params) -> FDivisorModel:
    """Slice over p0 has vertex {n}; over each p_i the vertices {-1, 0}."""
    params = as_model(params).params
    slices = [Slice("p0", (params.n,))]
    slices += [Slice(f"p{i}", (-1, 0)) for i in range(1, params.m + 1)]
    return FDivisorModel(params=params, slices=tuple(slices))


@dataclass(frozen=True)
class SupportFunction:
    """Divisorial support function of -K_{S,Delta}.

    The linear tail has slope beta2 on v < 0 and -beta1 on v >= 0; the
    per-point affine pieces are pinned down by their vertex values
    h_{p0}(n) = -2 and h_{pi}(-1) = h_{pi}(0) = 0.
    """

    params: SurfaceParams
    angles: Angles
    fdivisor: FDivisorModel

    def tail(self, v):
        """h_t(v): slope beta2 for v < 0, slope -beta1 for v >= 0."""
        v = Rat(v)
        return self.angles.beta2 * v if v < 0 else -self.angles.beta1 * v

    def vertex_value(self, point: str, v):
        """h_p(v) at a vertex of the slice over p."""
        v = Rat(v)
        if point == "p0":
            if v != self.params.n:
                raise ValueError(f"vertex {v} not on slice p0")
            return Rat(-2)
        if point == "generic":
            if v != 0:
                raise ValueError("trivial slices have the single vertex 0")
            return ZERO
        sl = self.fdivisor.slice_marked(int(point[1:]))
        if v not in sl.vertices:
            raise ValueError(f"vertex {v} not on slice {point}")
        return ZERO

    def divisor_class(self, model: SurfaceModel):
        """Reassemble the divisor class encoded by h.

        The ray with primitive generator +1 carries C~1, the ray with -1
        carries C~2, and each vertex (p, v) carries the corresponding
        vertical divisor; the class is -sum h_t(n_rho) D_rho -
        sum mu(v) h_p(v) D_{p,v}.  Only the p0 vertex value is nonzero,
        contributing 2 F.  The sum is formed coordinatewise, as one class.
        """
        t1, t2, tf = -self.tail(ONE), -self.tail(-ONE), -self.vertex_value("p0", self.params.n)
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
    h = SupportFunction(params=model.params, angles=angles, fdivisor=build_fdivisor(model))
    if h.divisor_class(model) != model.log_anticanonical(angles):
        raise InconsistencyError("support function does not encode -K_{S,Delta}")
    return h


# ---------------------------------------------------------------------------
# Legendre duals and their exact integrals


@dataclass(frozen=True)
class DualData:
    """Pointwise Legendre duals of h on the moment interval box = [-beta1, beta2],
    with the hat weights of deg Psi and the integrals that the barycenters
    and delta read off them."""

    params: SurfaceParams
    box: tuple  # (lo, hi)
    psi_p0: PLFunction
    psi_marked: PLFunction  # common dual for every p_i, i >= 1
    psi_generic: PLFunction
    deg_psi: PLFunction
    weights: tuple  # w_i = integral of phi_i * deg Psi at deg_psi's breakpoints
    vol: object  # integral of deg Psi = sum w_i
    first_moment: object  # integral of u * deg Psi(u) = sum x_i w_i
    half_square: object  # (1/2) integral of deg Psi^2 = (1/2) sum g_i w_i

    def psi(self, point: str) -> PLFunction:
        if point == "p0":
            return self.psi_p0
        if point == "generic":
            return self.psi_generic
        i = int(point[1:])
        if not 1 <= i <= self.params.m:
            raise ValueError(f"marked point index {i} out of range")
        return self.psi_marked


def legendre_dual(h: SupportFunction) -> DualData:
    """Duals Psi_p(u) = min over slice vertices v of (u v - h_p(v)).

    The moment interval is cut out by the tail slopes of h_t:
    box = [-beta1, beta2].
    """
    b1, b2 = h.angles.beta1, h.angles.beta2
    lo, hi = -b1, b2
    m = h.params.m

    def dual_of(point: str, vertices) -> PLFunction:
        return pl_min_of_lines(
            lo, hi, [(v, -h.vertex_value(point, v)) for v in vertices]
        )

    psi_p0 = dual_of("p0", h.fdivisor.slice_p0.vertices)
    psi_generic = dual_of("generic", (ZERO,))
    # no blown-up points: the zero dual stands in, so deg_psi is psi_p0
    psi_marked = dual_of("p1", h.fdivisor.slice_marked(1).vertices) if m else psi_generic
    deg = psi_p0 + psi_marked.scale(m)
    w = hat_weights(deg)
    return DualData(
        params=h.params,
        box=(lo, hi),
        psi_p0=psi_p0,
        psi_marked=psi_marked,
        psi_generic=psi_generic,
        deg_psi=deg,
        weights=w,
        vol=sum(w, ZERO),
        first_moment=_dot(deg.breakpoints, w),
        half_square=_dot(deg.values, w) / 2,
    )


def vol_psi(d: DualData):
    """vol(Psi) = integral of deg Psi over the moment interval."""
    return d.vol


def barycenter(d: DualData):
    """bc(Psi) = (1/vol(Psi)) * integral of u * deg Psi(u) du."""
    return d.first_moment / d.vol


def bc_p(d: DualData, point: str):
    """bc_p = (1/vol(Psi)) * integral of ((1/2) deg Psi - Psi_p) deg Psi du.

    The cross term is Psi_p tabulated on deg Psi's breakpoints against the
    hat weights; Psi_p has no breakpoint elsewhere (deg Psi = Psi_p0 +
    m Psi_marked, Psi_generic = 0), and tabulate refuses one that had."""
    cross = _dot(tabulate(d.psi(point), d.deg_psi.breakpoints), d.weights)
    return (d.half_square - cross) / d.vol


# ---------------------------------------------------------------------------
# Delta via the minimum over ray and vertex valuations


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

    Ray terms: -h_t(n_rho) / (bc n_rho - h_t(n_rho)) for the two rays.
    Vertex terms: 1 / (bc_p + bc v - h_p(v)) per slice vertex (all
    multiplicities are 1), including the vertex of the fiber over p0 and
    one representative of the identical generic-fiber terms.
    """
    model = as_model(params)
    model.ensure_ample(angles)
    n, m = model.n, model.m
    b1, b2 = angles.beta1, angles.beta2
    h = anticanonical_support_function(model, angles)
    d = legendre_dual(h)
    bc = barycenter(d)
    bc_p0 = bc_p(d, "p0")
    bc_generic = bc_p(d, "generic")

    terms = [
        ValuationTerm(name="C1tilde", A=b1, S=bc + b1),
        ValuationTerm(name="C2tilde", A=b2, S=b2 - bc),
    ]
    if m > 0:
        bc_pi = bc_p(d, "p1")
        for i in range(1, m + 1):
            terms.append(ValuationTerm(name=f"E{i}", A=ONE, S=bc_pi - bc))
        for i in range(1, m + 1):
            terms.append(ValuationTerm(name=f"F{i}tilde", A=ONE, S=bc_pi))
    terms.append(ValuationTerm(name="FiberP0", A=ONE, S=bc_p0 + n * bc + 2))
    terms.append(ValuationTerm(name="GenericFiber", A=ONE, S=bc_generic))

    delta = min(t.ratio for t in terms)
    witnesses = tuple(t.name for t in terms if t.ratio == delta)
    return DeltaReport(delta, witnesses, tuple(terms), futaki_sign=sign(-d.first_moment))
