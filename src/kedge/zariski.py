"""Zariski decomposition against the family's candidate negative curves.

On this surface every irreducible curve of negative self-intersection is
one of C~1, C~2, E_i, F~i, so the negative part of any pseudoeffective
class is supported there.  ``grow_support`` is the package's one
active-set loop, Bauer's support growth.  It works on pairings only, in
integers: columns of D.C over the candidate indices, each scaled by its
own positive integer, and the sparse table of nonzero candidate
pairings (``SurfaceModel.candidate_table``).  Each round factors the
support's integer Gram matrix G_S fraction-free from the table, solves
every column on it for |det G_S| a, reads the residual pairings
|det G_S| P.C off the table's nonzeros, and adds every candidate the
residual meets negatively, until nothing is added.  Only signs are read,
and every scale is positive, so the rational decomposition never has to
be formed inside the loop.  The sections C~1 and C~2 go last, the others
by index, so that a set of curves has one order: the others have pairwise
Gram matrix -I (E_j and F~j together are singular, since E_j + F~j = F),
so every pivot before the sections is -1 and the factor does not fill
in; the sections do not meet each other or a common curve, so their
pivots are integers too.  Neither a support's factor nor a swept curve's
slope column depends on the angles, so both, and the slope column's half
of each solve, are kept per surface by ``picard.per_surface``: one factor
per (surface, support), one ``SweptCurve`` per (surface, curve) and one
slope half per (surface, curve, support).  ``grow_support`` takes the one
column it solves: ``zariski_decompose`` passes D.C times the class's
denominator, from the empty support, and forms the positive part in one
sparse pass over the support's integer coordinates; the chamber sweep in
``volumes`` passes the value column and the swept curve, whose kept slope
half is read after the value (lexicographically), from the previous
chamber's support (Bauer's guarantee needs a start inside the true one).
``zariski_decompose`` certifies each decomposition against the three defining conditions on every call;
``zariski_decompose_bruteforce`` enumerates every negative-definite set
of candidates and is kept as an independent oracle.  Every solve and definiteness test goes through the one
fraction-free elimination in ``linalg``: growth factors a support once per
surface, the oracle's depth-first walk borders the parent set's factor by
one row per extension and solves on it, both from the table.
The walk depends only on (n, m): the family it builds is kept per surface
like the candidate tables; each call solves afresh.
Curves are candidate indices throughout; the column D.C comes from
``SurfaceModel.pairings``.  ``_certify`` pairs through the generic
``intersect`` instead, and ``is_negative_definite`` factors the integer
lower triangle of the support's pairings, so the certificate also checks
the table's closed forms.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .linalg import EMPTY_FACTOR, NotNegativeDefinite, border, factorize, solve_factored
from .picard import (C1TILDE, C2TILDE, DivisorClass, InconsistencyError, SurfaceModel,
                     per_surface)
from .ratmath import Rat


class NotPseudoeffective(ArithmeticError):
    """No Zariski decomposition exists within the candidate curve set."""


class DecompositionError(InconsistencyError):
    """Internal certification of a decomposition failed (should not happen)."""


class ZariskiDecomposition(NamedTuple):
    """D = P + N with P nef, P.N_i = 0, and negative-definite support."""

    positive: DivisorClass
    negative: tuple  # ordered tuple of (curve name, Rat coefficient > 0)

    @property
    def support(self) -> tuple:
        return tuple(curve for curve, _ in self.negative)


def is_negative_definite(model: SurfaceModel, curves) -> bool:
    """Whether the Gram matrix of the given curves is negative definite:
    its lower triangle, paired through their classes (integer coordinates)
    and the generic ``intersect``, factored with C~1 and C~2 last, as in
    ``grow_support`` (the order does not change definiteness, and the
    others' factor has no fill-in)."""
    classes = [model.class_of(c) for c in sorted(curves, key=lambda c: c in (C1TILDE, C2TILDE))]
    try:
        factorize([[int(model.intersect(x, y)) for y in classes[:i + 1]]
                   for i, x in enumerate(classes)])
    except NotNegativeDefinite:
        return False
    return True


@per_surface
def negative_definite_supports(model: SurfaceModel) -> tuple:
    """Every negative-definite set of candidate indices with the
    fraction-free factor of its Gram matrix, as (indices, factor) tuples,
    the empty set first; kept per surface, like the candidate tables.

    Depth first in candidate order, extending only negative-definite
    sets: the family is closed under subsets (principal submatrices of a
    negative-definite matrix are negative definite), so nothing is missed.
    Each extension borders the parent set's factor by one row, read off
    the candidate table.
    """
    table = model.candidate_table

    def extend(subset, factor, start):
        yield subset, factor
        position = {s: p for p, s in enumerate(subset)}
        for c in range(start, len(table)):
            try:
                grown = border(factor, *_bordering(table, c, position))
            except NotNegativeDefinite:
                continue
            yield from extend(subset + (c,), grown, c + 1)

    return tuple(extend((), EMPTY_FACTOR, 0))


def _bordering(table, c, position):
    """(C.S for S placed by ``position``, a dict index -> row; C.C), from the table."""
    column, diagonal = [0] * len(position), 0
    for j, g in table[c]:
        if j == c:
            diagonal = g
        elif j in position:
            column[position[j]] = g
    return column, diagonal


@per_surface
def _support_factor(model: SurfaceModel, support: tuple):
    """The factor of ``support``'s Gram matrix, a tuple of candidate indices
    in factor order, bordered from the candidate table and kept per
    (surface, support); a support that is not negative definite raises
    NotNegativeDefinite and is not kept."""
    table, factor, position = model.candidate_table, EMPTY_FACTOR, {}
    for c in support:
        factor = border(factor, *_bordering(table, c, position))
        position[c] = len(position)
    return factor


def _solve(table, support, factor, column) -> tuple:
    """(a, P) for one column on the support: a = |det G_S| G_S^{-1} column_S
    over the support, and the residual pairings P = |det G_S| column -
    sum a_i (C_i.C) over every candidate, read off the table's nonzeros."""
    coeffs = solve_factored(factor, [column[c] for c in support])
    scale = abs(factor[1][-1])
    residual = [scale * v for v in column]
    for c, a in zip(support, coeffs):
        if a:
            for j, g in table[c]:
                residual[j] -= a * g
    return coeffs, residual


class SweptCurve(NamedTuple):
    """A curve E as the chamber sweep reads it: its class, its slope column
    r1 = (-E).C over the candidates, F.E and E^2, all integers (every
    named class is integral)."""

    cls: DivisorClass
    slope: tuple
    fiber: int
    square: int


@per_surface
def swept_curve(model: SurfaceModel, E: str) -> SweptCurve:
    """The ``SweptCurve`` of the curve named ``E``, kept per (surface,
    curve); ValueError for a name that is not a curve there, as ``class_of``."""
    e = model.class_of(E)
    _, *pairings = model.pairings(e)
    return SweptCurve(e, tuple(-x for x in pairings), e.num[0], model.pair(e.num, e.num))


@per_surface
def _slope_half(model: SurfaceModel, curve: str, support: tuple) -> tuple:
    """``_solve`` of ``curve``'s slope column on ``support``, kept per
    (surface, curve, support): it depends on neither the angles nor x."""
    coeffs, residual = _solve(model.candidate_table, support, _support_factor(model, support),
                              swept_curve(model, curve).slope)
    return tuple(coeffs), tuple(residual)


def _subtract_curves(model: SurfaceModel, d: DivisorClass, support, coeffs, scale: int):
    """The class D - sum (a_i / scale) C_i over the candidate indices
    ``support``, for integers a_i and scale > 0: one pass over the
    candidates' nonzero integer coordinates, and one class formed."""
    rows, den = model.candidate_coordinates, d.den
    num = [scale * x for x in d.num]
    for c, a in zip(support, coeffs):
        if a:
            a *= den
            for j, x in rows[c]:
                num[j] -= a * x
    return DivisorClass(num, scale * den)


def _negative_part(candidates, support, coeffs, scale: int) -> tuple:
    """(curve, a_i / scale) pairs with nonzero a_i, in candidate order."""
    return tuple((candidates[c], Rat(a, scale)) for c, a in sorted(zip(support, coeffs)) if a)


def _certify(model: SurfaceModel, d: DivisorClass, zd: ZariskiDecomposition):
    """Check the three defining conditions, and that P + N rebuilds D on
    integer coordinates over one denominator s; raise DecompositionError if
    violated."""
    p = zd.positive
    if not model.is_nef(p):
        raise DecompositionError(f"positive part not nef: {p}")
    s = math.lcm(p.den, *(coeff.denominator for _, coeff in zd.negative))
    rebuilt = [x * (s // p.den) for x in p.num]
    for curve, coeff in zd.negative:
        if coeff <= 0:
            raise DecompositionError(f"nonpositive coefficient {coeff} on {curve}")
        c = model.class_of(curve)
        if model.intersect(p, c) != 0:
            raise DecompositionError(f"positive part not orthogonal to {curve}")
        a = coeff.numerator * (s // coeff.denominator)
        rebuilt = [x + a * y for x, y in zip(rebuilt, c.num)]
    if not is_negative_definite(model, zd.support):
        raise DecompositionError("support Gram matrix not negative definite")
    if DivisorClass(rebuilt, s) != d:
        raise DecompositionError("P + N does not reconstruct the input class")


def grow_support(model: SurfaceModel, column, start=(), curve=None):
    """Bauer's support growth: (support, scale, coefficients, residuals).

    Curves are indices into ``model.candidates``.  ``column`` is an
    integer column over the candidates, D.C times a positive scale: for
    ``zariski_decompose`` the class's pairings; for the chamber sweep the
    value of the pairing jet at a chamber's left end x0, with ``curve``
    the swept curve's name, whose slope column
    ``swept_curve(model, curve).slope`` then joins it, the two compared
    lexicographically (exact "x = x0 + epsilon" arithmetic).  From
    ``start``, each round factors the support's Gram matrix G_S from
    ``model.candidate_table``, solves G_S a = (D.C)_{C in S} for each
    column on it, forms the residuals P.C = D.C - sum a_i (C_i.C) over the
    table's nonzeros, and adds every candidate outside S with a negative
    residual, until none is added.  Neither the factor nor the slope
    column's half depends on the angles: they are kept per (surface,
    support) and per (surface, curve, support), so a round on a support
    met before solves only ``column`` afresh.  It returns
    scale = |det G_S|, and the coefficient columns over S and the
    residual columns over every candidate, one per column (the slope's
    last), each times scale, in integers.
    S grows strictly: at most k + 1 factors for k candidates.  For a
    pseudoeffective class and a start inside the true negative support, S
    stays inside it (Bauer, J. Algebraic Geom. 18, 2009), so G_S is
    negative definite and no coefficient is negative; either failure
    raises NotPseudoeffective.
    """
    table = model.candidate_table
    zero = (0,) if curve is None else (0, 0)
    support = list(start)
    while True:
        # C~1 and C~2 (indices 0 and 1) meet every F~i and E_i: factoring
        # them last keeps the factor free of fill-in, O(k^2) rather than
        # O(k^3) for k curves.  The others go in index order, so that a set
        # of curves is one key of the caches.
        support.sort(key=lambda c: (c < 2, c))
        key = tuple(support)
        try:
            factor = _support_factor(model, key)
        except NotNegativeDefinite:
            raise NotPseudoeffective(
                "support is not negative definite, which cannot happen "
                "for a pseudoeffective class"
            ) from None
        halves = [_solve(table, key, factor, column)]
        if curve is not None:
            halves.append(_slope_half(model, curve, key))
        coeffs, residuals = zip(*halves)
        if any(a < zero for a in zip(*coeffs)):
            raise NotPseudoeffective(
                "orthogonality forces a negative coefficient, which "
                "cannot happen for a pseudoeffective class"
            )
        violated = [c for c, r in enumerate(zip(*residuals)) if r < zero and c not in support]
        if not violated:
            return support, abs(factor[1][-1]), coeffs, residuals
        support.extend(violated)


def zariski_decompose(model: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Zariski decomposition of ``d``, or NotPseudoeffective.

    ``grow_support`` over the pairings of ``d`` times its denominator,
    one sparse pass for P = D - sum a_i C_i, then the generic-fiber test
    on P (the brute-force oracle cross-checks the
    NotPseudoeffective reasoning in the test suite).  Every returned
    decomposition is certified against the three defining conditions.
    """
    denominator, *column = model.pairings(d)
    try:
        support, scale, (coeffs,), _residuals = grow_support(model, column)
    except NotPseudoeffective as exc:
        raise NotPseudoeffective(f"{d}: {exc}") from None
    scale *= denominator
    positive = _subtract_curves(model, d, support, coeffs, scale)
    if positive.num[0] < 0:
        # Residual meets the (nef, moving) generic fiber negatively:
        # no effective class can, so d is not pseudoeffective.
        raise NotPseudoeffective(f"{d} pairs negatively with the generic fiber")
    negative = _negative_part(model.candidates, support, coeffs, scale)
    zd = ZariskiDecomposition(positive, negative)
    _certify(model, d, zd)
    return zd


def zariski_decompose_bruteforce(model: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Oracle: try every negative-definite set of candidate curves.

    A set yields a valid decomposition when the orthogonality system has
    nonnegative coefficients and the resulting P is nef; the positively
    weighted support is a subset, hence negative definite too.  All
    passing sets must agree after dropping zero coefficients; the unique
    decomposition is returned.

    Skipping the other subsets changes nothing.  Any decomposition that
    a subset T passes with has a negative-definite positive support T+.
    T+ is visited, its system is nonsingular, and the solution on T
    restricted to T+ solves it, so T+ passes with the same decomposition.
    Conversely, every set visited here is one of the 2^k subsets and
    passes there too.  The set of passing decompositions is therefore
    that of the full 2^k enumeration, and so are the "two distinct
    decompositions" and NotPseudoeffective outcomes.
    """
    candidates = model.candidates
    denominator, *column = model.pairings(d)
    found: ZariskiDecomposition | None = None
    for subset, factor in negative_definite_supports(model):
        coeffs = solve_factored(factor, [column[c] for c in subset])
        if any(x < 0 for x in coeffs):
            continue
        scale = abs(factor[1][-1]) * denominator
        p = _subtract_curves(model, d, subset, coeffs, scale)
        if not model.is_nef(p):
            continue
        zd = ZariskiDecomposition(p, _negative_part(candidates, subset, coeffs, scale))
        if found is not None and (found.positive != zd.positive or found.negative != zd.negative):
            raise DecompositionError(
                f"two distinct decompositions found for {d}: {found} vs {zd}"
            )
        found = zd
    if found is None:
        raise NotPseudoeffective(f"no candidate subset decomposes {d}")
    return found
