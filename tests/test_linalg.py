"""Exact linear algebra: the bordered LDL^T kernel and the signature."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kedge.linalg import (
    NotNegativeDefinite,
    border,
    factorize,
    is_negative_definite_matrix,
    signature,
    solve_factored,
)
from kedge.ratmath import Rat, rat

small_rats = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).map(lambda f: Rat(f.numerator) / Rat(f.denominator))


def solve_exact(matrix, rhs) -> list:
    """Solve the negative-definite system ``matrix @ x = rhs`` on one
    factor; raises NotNegativeDefinite."""
    return solve_factored(factorize(matrix), rhs)


def square_matrices(k):
    return st.lists(st.lists(small_rats, min_size=k, max_size=k), min_size=k, max_size=k)


def negative_definite(b):
    """-(B^T B + I), negative definite for any square B."""
    k = len(b)
    return [
        [-sum((b[r][i] * b[r][j] for r in range(k)), Rat(i == j)) for j in range(k)]
        for i in range(k)
    ]


# Cheaper to draw than ``st.fractions``, and built once per size:
# hypothesis validates every new strategy object.
ratios = st.tuples(st.integers(-6, 6), st.integers(1, 3)).map(lambda t: Rat(t[0], t[1]))
VECTORS = {k: st.lists(ratios, min_size=k, max_size=k) for k in range(1, 7)}
SQUARES = {k: st.lists(VECTORS[k], min_size=k, max_size=k) for k in range(1, 6)}


@st.composite
def negative_definite_systems(draw):
    """(G, v, w, u) for a random negative-definite k x k G, k <= 5, random
    v, w of length k and a random u of length k + 1."""
    k = draw(st.integers(1, 5))
    return (negative_definite(draw(SQUARES[k])), draw(VECTORS[k]), draw(VECTORS[k]),
            draw(VECTORS[k + 1]))


class Vec:
    """A minimal Rat-module: tuples of rationals, like the sweep's jets."""

    def __init__(self, *parts):
        self.parts = tuple(Rat(p) for p in parts)

    def __add__(self, other):
        return Vec(*(a + b for a, b in zip(self.parts, other.parts)))

    def __sub__(self, other):
        return Vec(*(a - b for a, b in zip(self.parts, other.parts)))

    def __rmul__(self, t):
        return Vec(*(t * a for a in self.parts))

    def __truediv__(self, t):
        return Vec(*(a / t for a in self.parts))

    def __eq__(self, other):
        return self.parts == other.parts

    def __repr__(self):
        return f"Vec{self.parts}"


def test_solve_exact_known_system():
    a = [[rat(-2), rat(-1)], [rat(-1), rat(-3)]]
    x = solve_exact(a, [rat(-5), rat(-10)])
    assert x == [rat(1), rat(3)]


def test_solve_exact_empty_system():
    assert solve_exact([], []) == []


def test_solve_exact_singular():
    # Singular and indefinite 2x2 systems are both refused.
    with pytest.raises(NotNegativeDefinite):
        solve_exact([[rat(-1), rat(2)], [rat(2), rat(-4)]], [rat(1), rat(1)])
    with pytest.raises(NotNegativeDefinite):
        solve_exact([[rat(-1), rat(2)], [rat(2), rat(-1)]], [rat(1), rat(1)])
    with pytest.raises(NotNegativeDefinite):
        solve_exact([[rat(0), rat(1)], [rat(1), rat(-1)]], [rat(1), rat(1)])


def test_integer_gram_solves_to_rationals():
    # int / int is a float in Python: every pivot must be a Rat first.
    x = solve_exact([[-1, 1], [1, -6]], [0, 1])
    assert x == [rat(-1, 5), rat(-1, 5)]
    assert all(type(xi) is Rat for xi in x)
    assert all(type(d) is Rat for d in factorize([[-1, 1], [1, -6]])[1])


@given(negative_definite_systems())
def test_solve_exact_verifies(data):
    matrix, rhs, slopes, _ = data
    x = solve_exact(matrix, rhs)
    for row, b in zip(matrix, rhs):
        assert sum((c * xi for c, xi in zip(row, x)), rat(0)) == b
    jets = [Vec(b, s) for b, s in zip(rhs, slopes)]
    xs = solve_exact(matrix, jets)
    for row, b in zip(matrix, jets):
        assert sum((c * xi for c, xi in zip(row, xs)), Vec(0, 0)) == b


@given(negative_definite_systems())
def test_border_matches_signature_and_fresh_solve(data):
    matrix, column, (diagonal, *_), rhs = data
    k = len(matrix)
    bordered = [row + [c] for row, c in zip(matrix, column)] + [column + [diagonal]]
    definite = signature(bordered) == (0, k + 1, 0)
    try:
        grown = border(factorize(matrix), column, diagonal)
    except NotNegativeDefinite:
        assert not definite
        return
    assert definite
    assert solve_factored(grown, rhs) == solve_exact(bordered, rhs)


def test_solve_exact_accepts_module_valued_rhs():
    """The right-hand side may live in any module over the rationals;
    tuples-as-vectors via a minimal wrapper must work unchanged."""
    a = [[rat(-2), rat(0)], [rat(0), rat(-4)]]
    x = solve_exact(a, [Vec(-2, -4), Vec(-8, 0)])
    assert x == [Vec(1, 2), Vec(2, 0)]


def test_definiteness_small_cases():
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
