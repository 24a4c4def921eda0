"""Exact linear algebra over the rationals.

Small dense systems only (the lattice has rank m+2 <= 14 in practice).
Everything is exact: Gaussian elimination with rational pivots, Sylvester
definiteness tests, and signature by symmetric (congruence)
diagonalization.  The right-hand sides of ``solve_exact`` may live in any
vector space over Rat (e.g. affine functions of a sweep parameter), as
long as they support ``+``, ``-`` and left-multiplication by Rat.
"""
from __future__ import annotations

from .ratmath import Rat


class SingularMatrixError(ArithmeticError):
    """The coefficient matrix is singular over the rationals."""


def solve_exact(matrix, rhs):
    """Solve ``matrix @ x = rhs`` exactly.

    ``matrix`` is a square list-of-rows of Rat; ``rhs`` a list of values
    in a Rat-module.  Returns the solution list; raises
    SingularMatrixError when no unique solution exists.
    """
    k = len(matrix)
    if k == 0:
        return []
    a = [list(row) for row in matrix]
    b = list(rhs)
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            raise SingularMatrixError(f"singular {k}x{k} system")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        inv = Rat(1) / a[col][col]
        for r in range(col + 1, k):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, k):
                a[r][c] = a[r][c] - factor * a[col][c]
            b[r] = b[r] - factor * b[col]
    x = [None] * k
    for r in range(k - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, k):
            acc = acc - a[r][c] * x[c]
        x[r] = (Rat(1) / a[r][r]) * acc
    return x


def det_exact(matrix):
    """Exact determinant by fraction-preserving elimination."""
    k = len(matrix)
    a = [list(row) for row in matrix]
    det = Rat(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return Rat(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det = det * a[col][col]
        inv = Rat(1) / a[col][col]
        for r in range(col + 1, k):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, k):
                a[r][c] = a[r][c] - factor * a[col][c]
    return det


def is_positive_definite(matrix) -> bool:
    """Sylvester test: all leading principal minors positive (exact)."""
    k = len(matrix)
    a = [list(row) for row in matrix]
    for col in range(k):
        # Without row exchanges the pivots are ratios of successive
        # leading minors; a nonpositive (or vanishing) pivot refutes
        # positive definiteness.
        if a[col][col] <= 0:
            return False
        inv = Rat(1) / a[col][col]
        for r in range(col + 1, k):
            if a[r][col] == 0:
                continue
            factor = a[r][col] * inv
            for c in range(col, k):
                a[r][c] = a[r][c] - factor * a[col][c]
    return True


def is_negative_definite_matrix(matrix) -> bool:
    return is_positive_definite([[-x for x in row] for row in matrix])


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
