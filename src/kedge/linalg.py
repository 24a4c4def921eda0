"""Exact negative-definite linear algebra over the rationals.

Every system the package solves is negative definite: the negative part
of a Zariski decomposition lives on a negative-definite set of curves,
and Bauer's support growth never leaves that set for a pseudoeffective
class.  So there is one elimination, an LDL^T factorisation
G = L diag(d) L^T (L unit lower triangular) grown one row at a time by
bordering (Golub-Van Loan, *Matrix Computations*).  A symmetric matrix is
negative definite exactly when every pivot d_i is negative, so bordering
is also the definiteness test: it raises NotNegativeDefinite at the first
pivot >= 0.  A factor is ``(rows, pivots)``; row i of L holds only its
nonzero entries, as ``(j, L_ij)`` pairs with j < i, so a Gram matrix
whose elimination does not fill in is factored and solved in time
proportional to its size.  The package's right-hand sides are rational
columns: Bauer's support growth solves each of its columns on one factor
(the chamber sweep's value and slope columns share it).  The kernel asks
of a right-hand side only ``-``, left-multiplication by Rat and division
by Rat.

``signature`` is a separate congruence diagonalization over arbitrary
symmetric matrices; it is the tests' independent reference.
"""
from __future__ import annotations

from .ratmath import Rat

EMPTY_FACTOR = ((), ())


class NotNegativeDefinite(ArithmeticError):
    """A pivot of the LDL^T factorisation is >= 0."""


def _forward(rows, rhs) -> list:
    """z = L^{-1} rhs, skipping zero entries of z."""
    z = list(rhs)
    for i, row in enumerate(rows):
        for j, l in row:
            if z[j]:
                z[i] = z[i] - l * z[j]
    return z


def border(factor, column, diagonal):
    """The factor of [[G, column], [column^T, diagonal]] from the factor of G.

    With y = L^{-1} column, the new row of L is y_j / d_j and the new
    pivot is the Schur complement diagonal - sum y_j^2 / d_j.  Raises
    NotNegativeDefinite when that pivot is >= 0.
    """
    rows, pivots = factor
    y = _forward(rows, column)
    row = tuple((j, y[j] / d) for j, d in enumerate(pivots) if y[j])
    # Pivots are Rat before anything divides by them: the Gram matrices
    # are integer, and int / int would be a float.
    pivot = Rat(diagonal)
    for j, l in row:
        pivot = pivot - l * y[j]
    if pivot >= 0:
        raise NotNegativeDefinite(f"pivot {pivot} >= 0 at row {len(pivots)}")
    return rows + (row,), pivots + (pivot,)


def factorize(matrix):
    """The LDL^T factor of a symmetric matrix, bordered row by row from
    its lower triangle; raises NotNegativeDefinite."""
    factor = EMPTY_FACTOR
    for i, row in enumerate(matrix):
        factor = border(factor, row[:i], row[i])
    return factor


def solve_factored(factor, rhs) -> list:
    """Solve G x = rhs on the factor of G: forward, diagonal, backward."""
    rows, pivots = factor
    x = [z / d for d, z in zip(pivots, _forward(rows, rhs))]
    for i in reversed(range(len(rows))):
        for j, l in rows[i]:
            x[j] = x[j] - l * x[i]
    return x


def is_negative_definite_matrix(matrix) -> bool:
    try:
        factorize(matrix)
    except NotNegativeDefinite:
        return False
    return True


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
