"""Shared fixtures: seeded generators, condition-locus parametrizations and
the rational LDL^T kernel that the tests use as their reference."""

from __future__ import annotations

import random

import pytest

from kedge.linalg import NotNegativeDefinite
from kedge.picard import Angles, SurfaceParams
from kedge.ratmath import Rat


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return random.Random(20260823)


def condition_point_m0(n: int, t: Rat) -> Angles:
    """Rational point on the m=0 condition locus, parameter t in (0, 1).

    For n > 0 the locus beta1^2 - (n/3) beta1^3 = beta2^2 + (n/3) beta2^3
    is rationally parametrized by beta2 = t*beta1 with
    beta1 = 3(1-t) / (n (1 - t + t^2)); for n = 0 it is the diagonal.
    """
    t = Rat(t)
    if not 0 < t < 1:
        raise ValueError("t must lie in (0, 1)")
    if n == 0:
        return Angles(t, t)
    beta1 = 3 * (1 - t) / (n * (1 - t + t * t))
    return Angles(beta1, t * beta1)


def small_surfaces(n_max: int = 4, m_max: int = 4):
    """All (n, m) pairs up to the given bounds."""
    return [
        SurfaceParams(n, m) for n in range(n_max + 1) for m in range(m_max + 1)
    ]


def negative_definite_families():
    """The seven curve families with negative-definite Gram matrices.

    Each entry: (family number, curve builder over (n, m), constraint on
    (n, m), list of boundary (n, m) pairs violating the constraint).
    The builders use marked point i = 1 where a single fiber is involved.
    """
    from kedge.picard import C1TILDE, C2TILDE, Ei, FiTilde

    def f_all(n, m):
        return [FiTilde(i) for i in range(1, m + 1)]

    def e_all(n, m):
        return [Ei(i) for i in range(1, m + 1)]

    return [
        (1, f_all, lambda n, m: m >= 1, []),
        (2, e_all, lambda n, m: m >= 1, []),
        (3, lambda n, m: [C1TILDE, FiTilde(1)], lambda n, m: n > 1, [(1, 1)]),
        (4, lambda n, m: [C1TILDE] + f_all(n, m), lambda n, m: n > m, [(2, 2)]),
        (5, lambda n, m: [C2TILDE, FiTilde(1)], lambda n, m: n < m, [(2, 2)]),
        (6, lambda n, m: [C1TILDE, C2TILDE, FiTilde(1)], lambda n, m: 1 < n < m,
         [(1, 3), (3, 3)]),
        (7, lambda n, m: [C2TILDE, FiTilde(1)] + e_all(n, m)[1:], lambda n, m: n == 0,
         []),
    ]


def _reference_forward(rows, rhs) -> list:
    """z = L^{-1} rhs, skipping zero entries of z."""
    z = list(rhs)
    for i, row in enumerate(rows):
        for j, l in row:
            if z[j]:
                z[i] = z[i] - l * z[j]
    return z


def reference_factorize(matrix):
    """The rational LDL^T factor ``(rows, pivots)`` of a symmetric matrix,
    bordered row by row: the kernel the fraction-free elimination in
    ``kedge.linalg`` replaced.  Row i of L holds its nonzero (j, L_ij);
    raises NotNegativeDefinite at the first pivot >= 0."""
    rows, pivots = (), ()
    for i, entries in enumerate(matrix):
        y = _reference_forward(rows, entries[:i])
        row = tuple((j, y[j] / d) for j, d in enumerate(pivots) if y[j])
        pivot = Rat(entries[i])
        for j, l in row:
            pivot = pivot - l * y[j]
        if pivot >= 0:
            raise NotNegativeDefinite(f"pivot {pivot} >= 0 at row {i}")
        rows, pivots = rows + (row,), pivots + (pivot,)
    return rows, pivots


def reference_solve(factor, rhs) -> list:
    """Solve G x = rhs on a ``reference_factorize`` factor.  The right-hand
    side may live in any module over the rationals: the kernel asks of it
    only ``-``, left-multiplication by Rat and division by Rat."""
    rows, pivots = factor
    x = [z / d for d, z in zip(pivots, _reference_forward(rows, rhs))]
    for i in reversed(range(len(rows))):
        for j, l in rows[i]:
            x[j] = x[j] - l * x[i]
    return x
