"""Exact linear algebra: solving, determinants, definiteness, signature."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kedge.linalg import (
    SingularMatrixError,
    det_exact,
    is_negative_definite_matrix,
    is_positive_definite,
    signature,
    solve_exact,
)
from kedge.ratmath import Rat, rat

small_rats = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).map(lambda f: Rat(f.numerator) / Rat(f.denominator))


def square_matrices(k):
    return st.lists(st.lists(small_rats, min_size=k, max_size=k), min_size=k, max_size=k)


def test_solve_exact_known_system():
    a = [[rat(2), rat(1)], [rat(1), rat(3)]]
    x = solve_exact(a, [rat(5), rat(10)])
    assert x == [rat(1), rat(3)]


def test_solve_exact_empty_system():
    assert solve_exact([], []) == []


def test_solve_exact_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact([[rat(1), rat(2)], [rat(2), rat(4)]], [rat(1), rat(1)])


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    square_matrices(k), st.lists(small_rats, min_size=k, max_size=k))))
def test_solve_exact_verifies(data):
    matrix, rhs = data
    try:
        x = solve_exact(matrix, rhs)
    except SingularMatrixError:
        assert det_exact(matrix) == 0
        return
    for row, b in zip(matrix, rhs):
        assert sum((c * xi for c, xi in zip(row, x)), rat(0)) == b


def test_solve_exact_accepts_module_valued_rhs():
    """The right-hand side may live in any module over the rationals;
    tuples-as-vectors via a minimal wrapper must work unchanged."""

    class Vec:
        def __init__(self, *parts):
            self.parts = tuple(Rat(p) for p in parts)

        def __add__(self, other):
            return Vec(*(a + b for a, b in zip(self.parts, other.parts)))

        def __sub__(self, other):
            return Vec(*(a - b for a, b in zip(self.parts, other.parts)))

        def __rmul__(self, t):
            return Vec(*(t * a for a in self.parts))

        def __eq__(self, other):
            return self.parts == other.parts

    a = [[rat(2), rat(0)], [rat(0), rat(4)]]
    x = solve_exact(a, [Vec(2, 4), Vec(8, 0)])
    assert x == [Vec(1, 2), Vec(2, 0)]


def test_det_exact():
    assert det_exact([]) == 1
    assert det_exact([[rat(5)]]) == 5
    assert det_exact([[rat(1), rat(2)], [rat(3), rat(4)]]) == -2
    assert det_exact([[rat(1), rat(2)], [rat(2), rat(4)]]) == 0
    # A zero pivot swaps rows, which flips the sign.
    assert det_exact([[rat(0), rat(1)], [rat(1), rat(0)]]) == -1


def test_definiteness_small_cases():
    assert is_positive_definite([[rat(2), rat(1)], [rat(1), rat(2)]])
    assert not is_positive_definite([[rat(1), rat(2)], [rat(2), rat(1)]])
    assert is_negative_definite_matrix([[rat(-2), rat(1)], [rat(1), rat(-2)]])
    assert not is_negative_definite_matrix([[rat(-1), rat(-2)], [rat(-2), rat(-1)]])
    assert not is_negative_definite_matrix([[rat(0)]])


def test_signature_known():
    assert signature([[rat(1), rat(0)], [rat(0), rat(-1)]]) == (1, 1, 0)
    assert signature([[rat(0), rat(1)], [rat(1), rat(0)]]) == (1, 1, 0)
    assert signature([[rat(0)]]) == (0, 0, 1)
    assert signature([]) == (0, 0, 0)


@given(square_matrices(3))
def test_signature_of_symmetrized(matrix):
    sym = [
        [matrix[i][j] + matrix[j][i] for j in range(3)] for i in range(3)
    ]
    pos, neg, zero = signature(sym)
    assert pos + neg + zero == 3
    assert is_negative_definite_matrix(sym) == (neg == 3)
    assert is_positive_definite(sym) == (pos == 3)
