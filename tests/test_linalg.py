"""Exact linear algebra: the fraction-free bordered elimination, checked
against the rational LDL^T reference, and the signature."""

import math

import pytest
from conftest import rat, reference_factorize, reference_solve, signature
from hypothesis import given
from hypothesis import strategies as st

from kedge.linalg import (
    NotNegativeDefinite,
    border,
    factorize,
    solve_factored,
)
from kedge.ratmath import Rat

small_rats = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).map(lambda f: Rat(f.numerator) / Rat(f.denominator))


def integral(matrix, *vectors):
    """``matrix`` and ``vectors`` times the least common denominator of all
    their entries: integers, with the same solutions and definiteness."""
    s = math.lcm(*(Rat(x).denominator for part in (*matrix, *vectors) for x in part))
    scaled = lambda v: [int(x * s) for x in v]
    return [scaled(row) for row in matrix], *map(scaled, vectors)


def solve_exact(matrix, rhs) -> list:
    """Solve the negative-definite rational system ``matrix @ x = rhs`` on
    the integer kernel, divided once at the end; raises NotNegativeDefinite."""
    integer, column = integral(matrix, rhs)
    factor = factorize(integer)
    return [Rat(x, abs(factor[1][-1])) for x in solve_factored(factor, column)]


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
    """A minimal Rat-module: tuples of rationals, like the reference sweep's jets."""

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
    # The factor holds the leading minors 1, -1, 5, and the solve returns
    # |det G| x in integers; one division gives the rationals.
    factor = factorize([[-1, 1], [1, -6]])
    assert factor == (((), ((0, 1),)), (1, -1, 5))
    x = solve_factored(factor, [0, 1])
    assert x == [-1, -1]
    assert all(type(v) is int for v in x + list(factor[1]))
    assert solve_exact([[-1, 1], [1, -6]], [0, 1]) == [rat(-1, 5), rat(-1, 5)]


@given(negative_definite_systems())
def test_solve_exact_verifies(data):
    matrix, rhs, slopes, _ = data
    x = solve_exact(matrix, rhs)
    for row, b in zip(matrix, rhs):
        assert sum((c * xi for c, xi in zip(row, x)), rat(0)) == b
    # The reference kernel solves the jets the reference sweep uses, and
    # agrees with the integer kernel on every component.
    jets = [Vec(b, s) for b, s in zip(rhs, slopes)]
    xs = reference_solve(reference_factorize(matrix), jets)
    for row, b in zip(matrix, jets):
        assert sum((c * xi for c, xi in zip(row, xs)), Vec(0, 0)) == b
    assert [xi.parts for xi in xs] == list(zip(x, solve_exact(matrix, slopes)))


@given(negative_definite_systems())
def test_minors_are_the_leading_principal_minors(data):
    # D_i is the product of the reference's first i pivots, and row i holds
    # L_ij D_(j+1) at exactly the reference's nonzeros.
    matrix, *_ = data
    integer, = integral(matrix)
    rows, minors = factorize(integer)
    ref_rows, pivots = reference_factorize(integer)
    assert list(minors) == [math.prod(pivots[:i]) for i in range(len(pivots) + 1)]
    assert rows == tuple(tuple((j, l * minors[j + 1]) for j, l in row) for row in ref_rows)


@given(negative_definite_systems())
def test_border_matches_signature_and_fresh_solve(data):
    matrix, column, (diagonal, *_), rhs = data
    k = len(matrix)
    bordered = [row + [c] for row, c in zip(matrix, column)] + [column + [diagonal]]
    definite = signature(bordered) == (0, k + 1, 0)
    bordered, rhs = integral(bordered, rhs)
    try:
        grown = border(factorize([row[:k] for row in bordered[:k]]), bordered[k][:k],
                       bordered[k][k])
    except NotNegativeDefinite:
        assert not definite
        return
    assert definite
    assert grown == factorize(bordered)
    scale = abs(grown[1][-1])
    assert [Rat(x, scale) for x in solve_factored(grown, rhs)] == reference_solve(
        reference_factorize(bordered), rhs)


def test_solve_exact_accepts_module_valued_rhs():
    """The reference kernel's right-hand side may live in any module over
    the rationals (the reference sweep solves jets on it); tuples-as-vectors
    via a minimal wrapper must work unchanged."""
    a = [[rat(-2), rat(0)], [rat(0), rat(-4)]]
    x = reference_solve(reference_factorize(a), [Vec(-2, -4), Vec(-8, 0)])
    assert x == [Vec(1, 2), Vec(2, 0)]


def test_rows_without_fill_stay_empty():
    # -I with two sections bordered last, shaped like a Zariski support:
    # every minor before the sections is +-1, only the section rows hold
    # entries, and the solve stays on integers.
    gram = [[-1, 0, 0, 1, 0], [0, -1, 0, 0, 1], [0, 0, -1, 0, 1],
            [1, 0, 0, -2, 0], [0, 1, 1, 0, -3]]
    factor = factorize(gram)
    assert factor == (((), (), (), ((0, 1),), ((1, -1), (2, 1))), (1, -1, 1, -1, 1, -1))
    assert solve_factored(factor, [1, 0, 0, 0, 0]) == [-2, 0, 0, -1, 0]


def test_definiteness_small_cases():
    factorize(*integral([[rat(-2), rat(1)], [rat(1), rat(-2)]]))
    for matrix in ([[rat(-1), rat(-2)], [rat(-2), rat(-1)]], [[rat(0)]]):
        with pytest.raises(NotNegativeDefinite):
            factorize(*integral(matrix))


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
    if neg == 3:
        factorize(*integral(sym))
    else:
        with pytest.raises(NotNegativeDefinite):
            factorize(*integral(sym))
