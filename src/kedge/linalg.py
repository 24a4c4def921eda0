"""Exact negative-definite linear algebra on integers, fraction-free.

Every system the package solves is negative definite: the negative part
of a Zariski decomposition lives on a negative-definite set of curves,
and Bauer's support growth never leaves that set for a pseudoeffective
class.  Its Gram matrices are integer, so there is one elimination: the
symmetric Bareiss elimination (Bareiss, Math. Comp. 22, 1968), grown one
row at a time by bordering.  Every quantity it forms is a minor of the
matrix, so each division is exact and nothing leaves the integers.

A factor of a k x k integer matrix G is ``(rows, minors)``.  ``minors``
holds the leading principal minors 1 = D_0, D_1, ..., D_k, so
``minors[-1]`` is det G; G is negative definite exactly when consecutive
minors alternate in sign (every LDL^T pivot D_i / D_(i-1) is negative),
so bordering is also the definiteness test: it raises NotNegativeDefinite
at the first pivot >= 0.  Row i holds only the nonzero entries of L's
row i scaled by D_(j+1), as ``(j, W_ij)`` pairs with j < i: W_ij is the
entry (i, j) after j Bareiss steps.  A row with no entries costs one
multiplication per solve, so a Gram matrix whose elimination does not
fill in is factored and solved in time proportional to its size.  The
package's right-hand sides are integer columns (scaled by a positive
integer where they are rational); ``solve_factored`` returns the
solution times |det G|, again in integers.
"""
from __future__ import annotations

EMPTY_FACTOR = ((), (1,))


class NotNegativeDefinite(ArithmeticError):
    """A pivot D_i / D_(i-1) of the elimination is >= 0."""


def _eliminate(row, y, minors, value, end):
    """Entry ``value`` of a column after ``end`` Bareiss steps, given the
    row's nonzeros (p, W) and the column's eliminated entries y[p].  A step
    at which W y[p] = 0 only rescales by D_(p+1) / D_p, so the rescalings
    between nonzero steps telescope into one exact division."""
    s = 0
    for p, w in row:
        if y[p]:
            value = (minors[p + 1] * (value * minors[p] // minors[s]) - w * y[p]) // minors[p]
            s = p + 1
    return value * minors[end] // minors[s] if value else 0


def _forward(rows, minors, column) -> list:
    """y_j = D_j (L^{-1} column)_j: entry j of the column after j steps."""
    y = [c * d if c else 0 for c, d in zip(column, minors)]
    for j, row in enumerate(rows):
        if row:
            y[j] = _eliminate(row, y, minors, column[j], j)
    return y


def border(factor, column, diagonal):
    """The factor of [[G, column], [column^T, diagonal]] from the factor of G.

    The new row is the column after elimination, and the new minor is
    the diagonal after every step.  Raises NotNegativeDefinite when the
    new pivot, the ratio of the new minor to det G, is >= 0.
    """
    rows, minors = factor
    y = _forward(rows, minors, column)
    row = tuple((j, v) for j, v in enumerate(y) if v)
    minor = _eliminate(row, y, minors, diagonal, len(rows))
    if minor * minors[-1] >= 0:
        raise NotNegativeDefinite(f"pivot {minor} / {minors[-1]} >= 0 at row {len(rows)}")
    return rows + (row,), minors + (minor,)


def factorize(matrix):
    """The factor of a symmetric integer matrix, bordered row by row from
    its lower triangle (row i is read only up to its diagonal); raises
    NotNegativeDefinite."""
    factor = EMPTY_FACTOR
    for i, row in enumerate(matrix):
        factor = border(factor, row[:i], row[i])
    return factor


def solve_factored(factor, rhs) -> list:
    """|det G| G^{-1} rhs, in integers for an integer column: forward,
    then backward, x_i = (|det G| y_i - sum_(j > i) W_ji x_j) / D_(i+1)."""
    rows, minors = factor
    scale = abs(minors[-1])
    x = [scale * v for v in _forward(rows, minors, rhs)]
    for i in reversed(range(len(rows))):
        xi = x[i] = x[i] // minors[i + 1]
        if xi:
            for j, w in rows[i]:
                x[j] -= w * xi
    return x


