"""A third route for m <= 2, sharing no code with the sweep or the torus
route.  For m <= 2 the blown-up points can be taken torus-fixed, so the pair
is toric and its moment polygon decides it.  With
P = {u : <u, v_rho> >= -a_rho} over the fan's rays v_rho, each carrying its
coefficient a_rho in -K_Delta (the log discrepancy of its curve),
S(D_rho) = a_rho + <bc(P), v_rho> and delta = min a_rho / S(D_rho)
(Blum-Jonsson, Adv. Math. 2020, the toric case), and the pair is
K-polystable exactly when bc(P) = 0 (Berman-Berndtsson, Ann. Fac. Sci.
Toulouse 2013).  The polygon is built in exact rationals.

Each ray carries a curve, named by ``ray_names`` and pinned by the
intersection numbers the fan gives, so the polygon's terms and witnesses
are compared with the torus route's by name."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kedge.picard import (C1TILDE, C2TILDE, FIBER_P0, GENERIC_FIBER, Angles, Ei, FiTilde,
                          SurfaceModel)
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


def ray_names(n: int, m: int) -> dict:
    """The curve names on each ray of ``fan``: C~1 and C~2 on (0, 1) and
    (0, -1), E1 on (1, -1) and E2 on (-1, n - 1), F~1 on (1, 0) when m >= 1
    and F~2 on (-1, n) when m = 2.  The other rays, (1, 0) at m = 0 and
    (-1, n) at m <= 1, are fibers, whose terms are FiberP0's and
    GenericFiber's."""
    fiber = (FIBER_P0, GENERIC_FIBER)
    names = {(0, 1): (C1TILDE,), (0, -1): (C2TILDE,),
             (1, 0): (FiTilde(1),) if m >= 1 else fiber,
             (-1, n): (FiTilde(2),) if m == 2 else fiber}
    if m >= 1:
        names[(1, -1)] = (Ei(1),)
    if m == 2:
        names[(-1, n - 1)] = (Ei(2),)
    return names


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


def ray_terms(rays, bc) -> list:
    """(ray, a_rho, S(D_rho)) for each ray."""
    return [((x, y), a, a + bc[0] * x + bc[1] * y) for (x, y), a in rays]


def toric_delta(rays, bc):
    return min(a / s for _, a, s in ray_terms(rays, bc))


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
    delta = toric_delta(rays, bc)
    assert delta == verdict.delta
    assert (bc[1] == 0) == (condition_sign(model, angles) == 0)
    assert (verdict.status == KPOLYSTABLE) == (bc == (0, 0))
    # Each ray's term is the torus route's term of its curve, and the
    # curves on the rays attaining delta are the verdict's witnesses.
    names = ray_names(n, m)
    attaining = set()
    for ray, a, s in ray_terms(rays, bc):
        for name in names[ray]:
            term = verdict.report.term(name)
            assert (term.A, term.S) == (a, s), name
        if a / s == delta:
            attaining.update(names[ray])
    assert attaining == set(verdict.witnesses)


def test_ray_names_by_intersection_numbers():
    # The fan's intersection numbers: a ray's self-intersection from
    # v_(i-1) + v_(i+1) = -D_i^2 v_i, one point where adjacent rays meet,
    # none elsewhere; against the lattice side's pairing of the named
    # classes, a fiber ray read as GenericFiber.
    for n, m in itertools.product(range(9), range(3)):
        model = SurfaceModel(n, m)
        rays = [v for v, _ in fan(n, m, 1, 1)]
        names = ray_names(n, m)
        assert set(names) == set(rays)
        coords = [model.class_of(GENERIC_FIBER if names[v][0] == FIBER_P0 else names[v][0]).num
                  for v in rays]
        k = len(rays)
        for i, (x, y) in enumerate(rays):
            (x0, y0), (x1, y1) = rays[i - 1], rays[(i + 1) % k]
            sx, sy = x0 + x1, y0 + y1
            minus_square = sx // x if x else sy // y
            assert (sx, sy) == (minus_square * x, minus_square * y)
            for j in range(k):
                expected = -minus_square if i == j else int((i - j) % k in (1, k - 1))
                assert model.pair(coords[i], coords[j]) == expected, (n, m, i, j)


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
