"""The torus route's side of the paper's theorem, proved as polynomials.

On the integers of ``tvariety.delta_minimum`` every S_m orbit has

    a - s = 2 (alpha f1 + beta f2),

with (f1, f2) = ``SurfaceModel.boundary_cubics(L, P1, P2)`` and
(alpha, beta) the orbit's row of ``SurfaceModel.orbit_rows``.  The C~1 row
is FM = 2 (f2 - f1), the verdict's Futaki check, since a0 - s0 = -2 FM
by construction.

Why finitely many evaluations prove it.  For P1, P2 > 0 every minimum of
vertex lines in ``scaled_duals`` picks the same line (the marked slice's
duals are (0, 0, -P2)), and everything else is sums and products, so each
a, s, f1, f2, alpha and beta is a polynomial in (n, m, L, P1, P2), and so
is the difference

    D = a - s - 2 (alpha f1 + beta f2).

A polynomial of degree at most d_i in its i-th variable that vanishes on
a product of sets of sizes d_i + 1 is zero (Alon, "Combinatorial
Nullstellensatz", Combin. Probab. Comput. 8, 1999, Lemma 2.1).  So D
vanishing on a product grid, with ``DEGREE`` + 1 values per variable,
proves the identity at every (n, m, L, P1, P2) with P1, P2 > 0 (m >= 1 for
the E_i and F~i rows), the whole ample range included.  Every grid point
is inside the ample range, where ``delta_minimum`` refuses no S.

The bounds carry the proof.  With G = L deg Psi(x) =
(2 L - n P1, 2 L, 2 L + (n - m) P2), each entry of degree 1 in every
variable, the hat weights W, VOL, FM = P2 W2 - P1 W0 and
HS2 = sum G_i W_i, and the cross terms of ``tvariety.cross``:
- n <= 2: G and W are linear in n, HS2 and the cross terms quadratic, and
  the S of FiberP0 adds 2 n FM; on the right, alpha (linear in n) times
  f1 or f2 (linear in n).
- m <= 2: the same count, m entering G as n does, and beta = m - n or
  m - n - 2 times f2.
- L <= 1: a and s are each at most quadratic in L, with equal L^2 parts.
  L enters G only as 2 L in each entry, so VOL = 12 L (P1 + P2) + (terms
  free of L), FM is linear in L and HS2 has the L^2 part 24 L^2 (P1 + P2).
  C~1 and C~2 have a = 2 VOL P1 or 2 VOL P2 and s = 2 (FM + P1 VOL) or
  2 (P2 VOL - FM), linear in L.  Every other orbit has a = 2 L VOL, of L^2
  part 24 L^2 (P1 + P2), and an s of the same L^2 part: HS2's, for E_i,
  F~i and the generic fiber, whose duals are free of L; for FiberP0 the
  dual's -2 sum L Psi_p0 W (L^2 part -48 L^2 (P1 + P2)) cancels 4 L VOL
  (48 L^2 (P1 + P2)).  f1 and f2 are linear in L.
- P1 <= 3 and P2 <= 3: W and VOL are quadratic in each, FM, HS2, a and s
  cubic, and so are f1 = (3 L - n P1) P1^2 and f2 = (3 L + (n - m) P2) P2^2.

Each bound is checked too: along every axis, on every line of the grid,
the (d + 1)-th finite difference of a - s and of the right side over
d + 2 points is zero, so a bound that is too low fails here.
"""

from math import comb

import pytest

from kedge.picard import SurfaceModel
from kedge.tvariety import delta_minimum

AXES = ("n", "m", "L", "P1", "P2")
DEGREE = {"n": 2, "m": 2, "L": 1, "P1": 3, "P2": 3}
# d + 1 values per axis.  The E_i and F~i orbits exist for m >= 1 only, so
# m runs over 0..3 and each of those two rows sees 1..3.
GRID = {"n": range(3), "m": range(4), "L": range(11, 13), "P1": range(1, 5),
        "P2": range(1, 5)}
# d + 2 values per axis for the finite differences, m from 1 so that every
# orbit has a term on each line.  L >= 11 keeps every point of the grid and
# of the lines in the ample range: n P1 <= 15 < 2 L and (m - n) P2 <= 20 < 2 L.
LINE = {"n": range(4), "m": range(1, 5), "L": range(11, 14), "P1": range(1, 6),
        "P2": range(1, 6)}


def sides(n, m, L, p1, p2) -> dict:
    """(a - s, 2 (alpha f1 + beta f2)) of every orbit at one point of the
    ample range, by the orbit's first name."""
    model = SurfaceModel(n, m)
    assert model.broken_ample_bound(L, p1, p2) == 0 and p1 > 0 and p2 > 0
    f1, f2 = model.boundary_cubics(L, p1, p2)
    _, _, _, a, s, _ = delta_minimum(model, L, p1, p2)
    return {first: (ai - si, 2 * (alpha * f1 + beta * f2))
            for (first, _, alpha, beta), ai, si in zip(model.orbit_rows, a, s)}


def grid_points(axes: dict) -> list:
    """Every point of the product of the value ranges ``axes``, as the
    argument tuple of ``sides``."""
    points = [()]
    for axis in AXES:
        points = [point + (value,) for point in points for value in axes[axis]]
    return points


def test_every_orbit_row_vanishes_on_the_grid():
    checked = {}  # orbit -> the values of each axis it was checked at
    for point in grid_points(GRID):
        for first, (lhs, rhs) in sides(*point).items():
            assert lhs == rhs, (first, point)
            for seen, value in zip(checked.setdefault(first, [set() for _ in AXES]), point):
                seen.add(value)
    # The product-grid condition, orbit by orbit: d + 1 values on every axis.
    assert len(checked) == 6
    for first, seen in checked.items():
        assert all(len(values) >= DEGREE[axis] + 1 for values, axis in zip(seen, AXES)), first


@pytest.mark.parametrize("axis", AXES)
def test_degree_bound_holds_along_every_grid_line(axis):
    # A polynomial of degree at most d along a line has a zero (d + 1)-th
    # finite difference over d + 2 consecutive integers.
    d, i = DEGREE[axis], AXES.index(axis)
    assert len(LINE[axis]) == d + 2
    for base in grid_points({**GRID, axis: LINE[axis][:1]}):
        line = [sides(*base[:i], x, *base[i + 1:]) for x in LINE[axis]]
        for first in line[0]:
            for side in (0, 1):
                difference = sum((-1) ** k * comb(d + 1, k) * line[k][first][side]
                                 for k in range(d + 2))
                assert difference == 0, (first, axis, base, side)
