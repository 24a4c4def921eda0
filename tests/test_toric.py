"""A third route for m <= 2, sharing no code with the sweep or the torus
route.  For m <= 2 the blown-up points can be taken torus-fixed, so the pair
is toric and its moment polygon decides it.  With
P = {u : <u, v_rho> >= -a_rho} over the fan's rays v_rho, each carrying its
coefficient a_rho in -K_Delta (the log discrepancy of its curve),
S(D_rho) = a_rho + <bc(P), v_rho> and delta = min a_rho / S(D_rho)
(Blum-Jonsson, Adv. Math. 2020, the toric case), and the pair is
K-polystable exactly when bc(P) = 0 (Berman-Berndtsson, Ann. Fac. Sci.
Toulouse 2013).  The polygon is built in exact rationals."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kedge.picard import Angles, SurfaceModel
from kedge.verdict import (KPOLYSTABLE, NOT_KPOLYSTABLE, NotFound, condition_sign,
                           k_polystable, rational_condition_point)


def fan(n: int, m: int, beta1, beta2) -> list:
    """The rays of the surface's fan, counter-clockwise, each with its
    coefficient: F_n's four rays, C~1 on (0, 1) and C~2 on (0, -1), then
    (1, -1) for the first blown-up point and (-1, n - 1) for the second."""
    rays = [((1, 0), 1), ((0, 1), beta1), ((-1, n), 1)]
    if m == 2:
        rays.append(((-1, n - 1), 1))
    rays.append(((0, -1), beta2))
    if m >= 1:
        rays.append(((1, -1), 1))
    return rays


def barycenter(rays) -> tuple:
    """bc(P) by the shoelace formula over P's vertices, one per pair of
    consecutive rays, where both of their inequalities are equalities."""
    vertices = []
    for ((x1, y1), a1), ((x2, y2), a2) in zip(rays, rays[1:] + rays[:1]):
        det = x1 * y2 - y1 * x2
        vertices.append((Fraction(a2 * y1 - a1 * y2, det), Fraction(a1 * x2 - a2 * x1, det)))
    twice_area = cx = cy = 0
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        cross = x1 * y2 - x2 * y1
        twice_area += cross
        cx += (x1 + x2) * cross
        cy += (y1 + y2) * cross
    return cx / (3 * twice_area), cy / (3 * twice_area)


def toric_delta(rays, bc):
    return min(a / (a + bc[0] * x + bc[1] * y) for (x, y), a in rays)


def fraction_of(bound):
    """Rationals p / q in (0, bound), q <= 12."""
    return st.integers(2, 12).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda p: Fraction(p, q) * bound))


@st.composite
def ample_points(draw):
    """(n, m, beta1, beta2) with n <= 12, m <= 2 and the angles in the ample
    range: beta1 < 2 / n when n > 0 and beta2 < 2 / (m - n) when n < m; an
    angle with no bound is drawn below 4."""
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 2))
    beta1 = draw(fraction_of(Fraction(2, n) if n else 4))
    beta2 = draw(fraction_of(Fraction(2, m - n) if n < m else 4))
    return n, m, beta1, beta2


@settings(max_examples=100, deadline=None)
@given(ample_points())
def test_the_polygon_decides_as_the_verdict_does(point):
    n, m, beta1, beta2 = point
    model, angles = SurfaceModel(n, m), Angles(beta1, beta2)
    rays = fan(n, m, angles.beta1, angles.beta2)
    bc = barycenter(rays)
    verdict = k_polystable(model, angles)
    assert toric_delta(rays, bc) == verdict.delta
    assert (bc[1] == 0) == (condition_sign(model, angles) == 0)
    assert (verdict.status == KPOLYSTABLE) == (bc == (0, 0))


def test_condition_points():
    # Every condition point on a line of slope p / q, q <= 11, through the
    # cubic's node: bc = 0 and K-polystable for m = 0 and m = 2; for m = 1
    # bc is off 0 along the other torus direction only, and the verdict is
    # the m = 1 exclusion.
    slopes = {Fraction(p, q) for q in range(1, 12) for p in range(1, 3 * q + 1)}
    found = {0: 0, 1: 0, 2: 0}
    for n in range(7):
        for m in found:
            model = SurfaceModel(n, m)
            for s in slopes:
                try:
                    angles = rational_condition_point(model, s)
                except NotFound:
                    continue
                bc = barycenter(fan(n, m, angles.beta1, angles.beta2))
                status = k_polystable(model, angles).status
                if m == 1:
                    assert (status, bc[1]) == (NOT_KPOLYSTABLE, 0) and bc[0] != 0, (n, s)
                else:
                    assert (status, bc) == (KPOLYSTABLE, (0, 0)), (n, m, s)
                found[m] += 1
    assert found == {0: 372, 1: 250, 2: 286}
