"""Torus-side route: PL functions, Legendre duals, barycenters, delta."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kedge.picard import Angles, SurfaceParams, as_model
from kedge.ratmath import ONE, ZERO, rat
from kedge.sampling import sample_angles, sample_rational, sample_surface
from kedge.tvariety import (
    DeltaReport,
    PLFunction,
    Slice,
    anticanonical_support_function,
    barycenter,
    bc_p,
    build_fdivisor,
    delta_tvariety,
    futaki_vanishes,
    hat_weights,
    legendre_dual,
    pl_line,
    pl_min_of_lines,
    tabulate,
    vol_psi,
)

HALF = rat(1, 2)

SMALL_RATS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def pl_pairs(draw):
    """Two PL functions on one domain with independent breakpoints.

    Interior breakpoints come from a coarse grid so that the two sets
    often share some points and often differ."""
    lo = draw(SMALL_RATS)
    hi = lo + draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 3)))

    def function():
        cuts = draw(st.sets(st.builds(Fraction, st.integers(1, 5), st.just(6)), max_size=4))
        bps = (lo, *sorted(lo + t * (hi - lo) for t in cuts), hi)
        return PLFunction(bps, tuple(draw(SMALL_RATS) for _ in bps))

    return function(), function()


def integrate_product(f, g):
    """Integral of f*g by the endpoint rule on the common refinement, with
    every value taken pointwise.  Both factors are linear on each common
    segment [a, b], where the integral of the product is
    ((b-a)/6)(2 f_a g_a + f_a g_b + f_b g_a + 2 f_b g_b)."""
    pts = sorted(set(f.breakpoints) | set(g.breakpoints))
    total = ZERO
    for a, b in zip(pts, pts[1:]):
        fa, fb, ga, gb = f.value(a), f.value(b), g.value(a), g.value(b)
        total += (b - a) / 6 * (2 * fa * ga + fa * gb + fb * ga + 2 * fb * gb)
    return total


def weighted_integral(f, g):
    """Integral of f*g as the dot product of f with g's hat weights, on
    the refinement of g by f's breakpoints."""
    pts = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
    weights = hat_weights(PLFunction(pts, tabulate(g, pts)))
    return sum(v * w for v, w in zip(tabulate(f, pts), weights))


def simpson_reference(f, g):
    """Integral of f*g by Simpson's rule on the common refinement, with
    every value taken pointwise: exact, since f*g is quadratic there."""
    pts = sorted(set(f.breakpoints) | set(g.breakpoints))
    total = ZERO
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        fg = [f.value(x) * g.value(x) for x in (a, mid, b)]
        total += (b - a) / 6 * (fg[0] + 4 * fg[1] + fg[2])
    return total


class TestPLFunction:
    def test_construction_and_value(self):
        f = PLFunction(breakpoints=(0, 1, 3), values=(0, 2, 0))
        assert f.value(HALF) == 1
        assert f.value(rat(2)) == 1
        assert f.lo == 0 and f.hi == 3
        assert f.slopes() == (2, -1)
        assert f.min_value() == 0
        with pytest.raises(ValueError):
            f.value(rat(4))
        with pytest.raises(ValueError):
            PLFunction(breakpoints=(0, 0, 1), values=(0, 1, 2))
        with pytest.raises(ValueError):
            PLFunction(breakpoints=(0, 1), values=(0, 1, 2))

    def test_algebra(self):
        f = pl_line(0, 2, rat(1))  # x
        g = PLFunction(breakpoints=(0, 1, 2), values=(1, 0, 1))  # |x-1|
        s = f + g
        assert s.value(HALF) == HALF + HALF
        assert s.value(rat(3, 2)) == rat(2)
        assert f.scale(rat(3)).value(rat(2)) == 6
        assert f.is_concave()
        assert not g.is_concave()

    def test_integral(self):
        # Triangle of base 2, height 1.
        g = PLFunction(breakpoints=(0, 1, 2), values=(0, 1, 0))
        assert g.integral() == 1
        assert pl_line(0, 3, rat(2), rat(1)).integral() == 12

    def test_integrate_product_is_exact(self):
        # Both factors are linear on each common segment, where the
        # endpoint rule integrates their product exactly.
        f = pl_line(0, 1, rat(1))  # x
        assert integrate_product(f, f) == rat(1, 3)
        g = PLFunction(breakpoints=(0, HALF, 1), values=(0, HALF, 0))
        # int x*g = int_0^1/2 x^2 + int_1/2^1 x(1-x) = 1/24 + (1/2-7/24).
        assert integrate_product(f, g) == rat(1, 8)
        f = PLFunction(breakpoints=(0, 1, 3), values=(0, 2, 0))
        g = PLFunction(breakpoints=(0, 2, 3), values=(1, 0, 1))
        assert integrate_product(f, g) == rat(5, 4)

    def test_hat_weights(self):
        # deg(u) = 1 + u on [0, 1]: w_0 = (1/6)(2 + 2), w_1 = (1/6)(1 + 4).
        g = pl_line(0, 1, ONE, ONE)
        assert hat_weights(g) == (rat(2, 3), rat(5, 6))
        assert sum(hat_weights(g)) == g.integral()

    @given(pl_pairs())
    def test_refinement_matches_pointwise_references(self, pair):
        f, g = pair
        assert integrate_product(f, g) == simpson_reference(f, g)
        assert weighted_integral(f, g) == simpson_reference(f, g)
        pts = tuple(sorted(set(f.breakpoints) | set(g.breakpoints)))
        s = f + g
        assert s.breakpoints == pts
        assert s.values == tuple(f.value(x) + g.value(x) for x in pts)
        if set(f.breakpoints) <= set(g.breakpoints):
            assert tabulate(f, g.breakpoints) == tuple(f.value(x) for x in g.breakpoints)
        else:
            with pytest.raises(ValueError, match="not among the points"):
                tabulate(f, g.breakpoints)
        shifted = PLFunction(tuple(x + 1 for x in g.breakpoints), g.values)
        with pytest.raises(ValueError, match="domain mismatch"):
            tabulate(f, shifted.breakpoints)
        with pytest.raises(ValueError, match="domain mismatch"):
            f + shifted

    def test_addition_reads_values_off_one_merge_walk(self, monkeypatch):
        f = PLFunction(breakpoints=(0, 1, 3), values=(0, 2, 0))
        g = PLFunction(breakpoints=(0, 2, 3), values=(1, 0, 1))

        def pointwise(self, u):
            raise AssertionError("refinement evaluated pointwise")

        monkeypatch.setattr(PLFunction, "value", pointwise)
        assert tabulate(f, (0, 1, 2, 3)) == (0, 2, 1, 0)
        assert (f + g).values == (1, rat(5, 2), 1, 1)

    def test_min_of_lines(self):
        env = pl_min_of_lines(rat(-1), rat(1), [(rat(1), ZERO), (rat(-1), ZERO)])
        assert env.value(rat(-1)) == -1
        assert env.value(ZERO) == 0
        assert env.value(rat(1)) == -1
        assert env.breakpoints == (-1, 0, 1)
        assert env.is_concave()


class TestStructure:
    def test_slices(self):
        fdiv = build_fdivisor((3, 2))
        assert fdiv.slice_p0.vertices == (3,)
        assert fdiv.slice_marked(1).vertices == (-1, 0)
        assert fdiv.slice_marked(2).vertices == (-1, 0)
        with pytest.raises(ValueError):
            fdiv.slice_marked(3)
        with pytest.raises(ValueError):
            Slice("p1", (HALF,))

    def test_support_function_data(self):
        h = anticanonical_support_function((2, 1), Angles(HALF, rat(1, 3)))
        # Tail slopes: beta2 on the negative side, -beta1 on the positive.
        assert h.tail(rat(-3)) == -1
        assert h.tail(rat(2)) == -1
        assert h.tail(ZERO) == ZERO
        assert h.vertex_value("p0", rat(2)) == -2
        assert h.vertex_value("p1", ZERO) == ZERO
        assert h.vertex_value("generic", ZERO) == ZERO

    def test_divisor_class_round_trip(self):
        for n, m in [(0, 0), (0, 2), (1, 1), (3, 2)]:
            angles = Angles(rat(1, 3), rat(1, 4))
            h = anticanonical_support_function((n, m), angles)
            model = as_model((n, m))
            assert h.divisor_class(model) == model.log_anticanonical(angles)

    def test_dual_values(self):
        angles = Angles(HALF, rat(1, 3))
        d = legendre_dual(anticanonical_support_function((2, 3), angles))
        assert d.box == (-HALF, rat(1, 3))
        # Psi_p0(u) = n u + 2; Psi_marked(u) = min(0, -u); Psi_generic = 0.
        assert d.psi_p0.value(ZERO) == 2
        assert d.psi_p0.value(-HALF) == 1
        assert d.psi_marked.value(-HALF) == 0
        assert d.psi_marked.value(rat(1, 3)) == rat(-1, 3)
        assert d.psi_generic.value(rat(1, 4)) == 0
        assert d.psi("p2") is d.psi_marked
        assert d.psi("generic") is d.psi_generic
        with pytest.raises(ValueError):
            d.psi("p4")
        u = rat(1, 5)
        assert d.deg_psi.value(u) == d.psi_p0.value(u) + 3 * d.psi_marked.value(u)
        # Without marked points the zero dual stands in and adds nothing.
        d0 = legendre_dual(anticanonical_support_function((2, 0), angles))
        assert d0.psi_marked is d0.psi_generic
        assert d0.deg_psi.breakpoints == d0.psi_p0.breakpoints
        assert d0.deg_psi.values == d0.psi_p0.values

    def test_legendre_inequality_and_attainment(self, rng):
        params = SurfaceParams(2, 2)
        angles = Angles(HALF, rat(2, 3))
        h = anticanonical_support_function(params, angles)
        d = legendre_dual(h)
        fdiv = build_fdivisor(params)
        for point, verts in [("p0", fdiv.slice_p0.vertices),
                             ("p1", fdiv.slice_marked(1).vertices)]:
            psi = d.psi(point)
            for _ in range(20):
                u = sample_rational(rng) - sample_rational(rng)
                if not d.box[0] <= u <= d.box[1]:
                    continue
                values = [u * v - h.vertex_value(point, v) for v in verts]
                assert psi.value(u) == min(values)

    def test_deg_psi_positive_on_box_iff_ample(self, rng):
        # Ample angles give strictly positive weight on the whole closed
        # moment interval; on the boundary of the ample cone the minimum
        # (always attained at an interval endpoint) drops to zero.
        for _ in range(30):
            params = sample_surface(rng)
            angles = sample_angles(rng, params)
            d = legendre_dual(anticanonical_support_function(params, angles))
            assert d.deg_psi.is_concave()
            assert d.deg_psi.min_value() > 0
        boundary = legendre_dual(
            anticanonical_support_function((2, 0), Angles(rat(1), rat(1, 2)))
        )
        assert boundary.deg_psi.min_value() == 0
        outside = legendre_dual(
            anticanonical_support_function((2, 0), Angles(rat(3, 2), rat(1, 2)))
        )
        assert outside.deg_psi.min_value() < 0


class TestMoments:
    def test_pinned_values(self):
        d = legendre_dual(
            anticanonical_support_function((0, 2), Angles(HALF, HALF))
        )
        assert vol_psi(d) == rat(7, 4)
        assert barycenter(d) == rat(-1, 21)
        assert bc_p(d, "p0") == rat(-23, 21)
        assert bc_p(d, "p1") == 1
        assert bc_p(d, "generic") == rat(19, 21)

    def test_weights_match_pointwise_integrals(self, rng):
        # Every integral the dual carries, and every cross term, equals the
        # pointwise reference on sampled surfaces (n, m <= 6), ample angles.
        for _ in range(40):
            params = sample_surface(rng)
            angles = sample_angles(rng, params)
            d = legendre_dual(anticanonical_support_function(params, angles))
            deg = d.deg_psi
            vol, square = deg.integral(), integrate_product(deg, deg)
            assert vol_psi(d) == vol
            assert d.first_moment == integrate_product(pl_line(*d.box, ONE), deg)
            assert d.half_square == square / 2
            for point in ("p0", "generic") + (("p1",) if params.m else ()):
                cross = integrate_product(d.psi(point), deg)
                assert bc_p(d, point) == (square / 2 - cross) / vol

    def test_cross_term_refuses_a_breakpoint_off_the_refinement(self):
        d = legendre_dual(anticanonical_support_function((0, 2), Angles(HALF, HALF)))
        assert d.deg_psi.breakpoints == (-HALF, 0, HALF)
        kinked = PLFunction((-HALF, rat(1, 4), HALF), (ZERO, ONE, ZERO))
        with pytest.raises(ValueError, match="breakpoint 1/4 is not among the points"):
            bc_p(dataclasses.replace(d, psi_generic=kinked), "generic")

    def test_generic_base_identity(self, rng):
        # bc_generic = bc_p0 + n * bc + 2 (the fiber over p0 and a generic
        # fiber differ by a principal divisor of that slope).
        for _ in range(20):
            params = sample_surface(rng)
            angles = sample_angles(rng, params)
            d = legendre_dual(anticanonical_support_function(params, angles))
            assert bc_p(d, "generic") == bc_p(d, "p0") + params.n * barycenter(d) + 2

    def test_barycenter_interior(self, rng):
        for _ in range(20):
            params = sample_surface(rng)
            angles = sample_angles(rng, params)
            d = legendre_dual(anticanonical_support_function(params, angles))
            assert -angles.beta1 < barycenter(d) < angles.beta2


class TestDelta:
    def test_generic_point_report(self):
        report = delta_tvariety((0, 2), Angles(HALF, HALF))
        assert report.delta == rat(21, 23)
        assert report.witness == "C2tilde"
        assert report.witnesses == ("C2tilde",)
        assert [t.name for t in report.terms] == [
            "C1tilde", "C2tilde", "E1", "E2", "F1tilde", "F2tilde",
            "FiberP0", "GenericFiber",
        ]
        assert report.term("C1tilde").ratio == rat(21, 19)
        assert report.term("E1").S == rat(22, 21)
        assert report.term("F2tilde").ratio == 1
        assert report.term("GenericFiber").S == rat(19, 21)
        with pytest.raises(KeyError):
            report.term("E3")

    def test_condition_point_all_curve_terms_attain(self):
        report = delta_tvariety((0, 2), Angles(rat(63, 128), rat(21, 32)))
        assert report.delta == 1
        assert report.witnesses == (
            "C1tilde", "C2tilde", "E1", "E2", "F1tilde", "F2tilde",
        )

    def test_single_point_condition_still_unstable(self):
        report = delta_tvariety((0, 1), Angles(rat(144, 125), rat(48, 25)))
        assert report.delta == rat(175, 202)
        # Both the exceptional curve and its fiber transform attain delta.
        assert report.witnesses == ("E1", "F1tilde")
        assert report.witness == "E1"

    def test_toric_case_all_terms_one(self):
        report = delta_tvariety((0, 0), Angles(rat(3, 4), rat(3, 4)))
        assert report.delta == 1
        assert report.witnesses == (
            "C1tilde", "C2tilde", "FiberP0", "GenericFiber",
        )
        assert all(t.ratio == 1 for t in report.terms)

    def test_futaki_sign(self):
        assert futaki_vanishes((0, 2), Angles(HALF, HALF)) == 1
        assert futaki_vanishes((0, 2), Angles(rat(63, 128), rat(21, 32))) == 0
        assert futaki_vanishes((0, 2), Angles(rat(1, 4), HALF)) == -1
        # No ampleness precondition: signs are defined on all positive angles.
        assert futaki_vanishes((2, 0), Angles(rat(3, 2), rat(1, 2))) in (-1, 0, 1)
