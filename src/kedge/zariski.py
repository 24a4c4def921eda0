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
be formed inside the loop.  The sections C~1 and C~2 go last: the
others have pairwise Gram matrix -I (E_j and F~j together are singular,
since E_j + F~j = F), so every pivot before the sections is -1 and the
factor does not fill in; the sections do not meet each other or a common
curve, so their pivots are integers too.  ``zariski_decompose`` runs it
on one column, D.C times the least common denominator of its entries,
from the empty support, and divides once at the end; the chamber sweep
in ``volumes`` runs it on two (value and slope, read lexicographically)
from the previous chamber's support (Bauer's guarantee needs a start
inside the true one).  ``zariski_decompose`` forms the positive part
once, after growth, and certifies it against the three defining
conditions on every call; ``zariski_decompose_bruteforce`` enumerates
every negative-definite set of candidates and is kept as an independent
oracle.  Every solve and definiteness test goes through the one
fraction-free elimination in ``linalg``: growth factors each round's
support afresh, the oracle's depth-first walk borders the parent set's
factor by one row per extension and solves on it, both from the table.
Curves are candidate indices throughout; the column D.C comes from
``SurfaceModel.pairings``.  ``is_negative_definite`` pairs classes
through the generic ``intersect`` instead, and ``_certify`` uses it and
``intersect`` for the support, so it also checks the table's closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass

from .linalg import (EMPTY_FACTOR, NotNegativeDefinite, border, is_negative_definite_matrix,
                     solve_factored)
from .picard import C1TILDE, C2TILDE, DivisorClass, SurfaceModel
from .ratmath import Rat, common_denominator


class NotPseudoeffective(ArithmeticError):
    """No Zariski decomposition exists within the candidate curve set."""


class InconsistencyError(ArithmeticError):
    """An internal cross-check failed: the two computation routes, a
    theorem hypothesis check or a certificate disagreed; results cannot
    be trusted."""


class DecompositionError(InconsistencyError):
    """Internal certification of a decomposition failed (should not happen)."""


@dataclass(frozen=True)
class ZariskiDecomposition:
    """D = P + N with P nef, P.N_i = 0, and negative-definite support."""

    positive: DivisorClass
    negative: tuple  # ordered tuple of (CurveId, Rat coefficient > 0)

    @property
    def support(self) -> tuple:
        return tuple(cid for cid, _ in self.negative)

    def negative_class(self, model: SurfaceModel) -> DivisorClass:
        acc = model.zero()
        for cid, coeff in self.negative:
            acc = acc + model.class_of(cid).scale(coeff)
        return acc


def is_negative_definite(model: SurfaceModel, curves) -> bool:
    """Whether the Gram matrix of the given curves is negative definite,
    paired through their classes and the generic ``intersect``.  C~1 and
    C~2 go last, as in ``grow_support``: the order does not change
    definiteness, and the factor of the others has no fill-in."""
    curves = sorted(curves, key=lambda c: c in (C1TILDE, C2TILDE))
    return is_negative_definite_matrix(model.gram_matrix([model.class_of(c) for c in curves]))


def negative_definite_supports(model: SurfaceModel):
    """Every negative-definite set of candidate indices with the
    fraction-free factor of its Gram matrix, as (indices, factor), the empty set first.

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
            yield from extend(subset + [c], grown, c + 1)

    return extend([], EMPTY_FACTOR, 0)


def _bordering(table, c, position):
    """(C.S for S placed by ``position``, a dict index -> row; C.C), from the table."""
    column, diagonal = [0] * len(position), 0
    for j, g in table[c]:
        if j == c:
            diagonal = g
        elif j in position:
            column[position[j]] = g
    return column, diagonal


def _support_factor(table, support):
    """The factor of ``support``'s Gram matrix, bordered from the table."""
    factor, position = EMPTY_FACTOR, {}
    for c in support:
        factor = border(factor, *_bordering(table, c, position))
        position[c] = len(position)
    return factor


def _subtract_curves(model: SurfaceModel, d: DivisorClass, candidates, support, coeffs):
    """The class D - sum a_i C_i over the candidate indices ``support``."""
    for c, x in zip(support, coeffs):
        d = d - model.class_of(candidates[c]).scale(x)
    return d


def _negative_part(candidates, support, coeffs) -> tuple:
    """(curve, coefficient) pairs with nonzero coefficient, in candidate order."""
    return tuple((candidates[c], x) for c, x in sorted(zip(support, coeffs)) if x)


def _certify(model: SurfaceModel, d: DivisorClass, zd: ZariskiDecomposition):
    """Check the three defining conditions; raise DecompositionError if violated."""
    p = zd.positive
    if not model.is_nef(p):
        raise DecompositionError(f"positive part not nef: {p}")
    for cid, coeff in zd.negative:
        if coeff <= 0:
            raise DecompositionError(f"nonpositive coefficient {coeff} on {cid.label}")
        if model.intersect(p, model.class_of(cid)) != 0:
            raise DecompositionError(f"positive part not orthogonal to {cid.label}")
    if not is_negative_definite(model, zd.support):
        raise DecompositionError("support Gram matrix not negative definite")
    if p + zd.negative_class(model) != d:
        raise DecompositionError("P + N does not reconstruct the input class")


def grow_support(model: SurfaceModel, columns, start=()):
    """Bauer's support growth: (support, scale, coefficients, residuals).

    Curves are indices into ``model.candidate_curves()``.  ``columns`` are
    integer columns over the candidates, each D.C times a positive scale
    of its own, compared lexicographically: one for ``zariski_decompose``;
    for the chamber sweep the value and the slope of the pairing jet at a
    chamber's left end x0 (exact "x = x0 + epsilon" arithmetic).  From
    ``start``, each round factors the support's Gram matrix G_S from
    ``model.candidate_table``, solves G_S a = (D.C)_{C in S} for every
    column on it, forms the residuals P.C = D.C - sum a_i (C_i.C) over the
    table's nonzeros, and adds every candidate outside S with a negative
    residual, until none is added.  It returns scale = |det G_S|, and the
    coefficient columns over S and the residual columns over every
    candidate, each times scale, in integers.  S grows strictly: at most
    k + 1 factors for k candidates.  For a pseudoeffective class and a
    start inside the true negative support, S stays inside it (Bauer, J.
    Algebraic Geom. 18, 2009), so G_S is negative definite and no
    coefficient is negative; either failure raises NotPseudoeffective.
    """
    table = model.candidate_table
    zero = (0,) * len(columns)
    support = list(start)
    while True:
        # C~1 and C~2 (indices 0 and 1) meet every F~i and E_i: factoring
        # them last keeps the factor free of fill-in, O(k^2) rather than
        # O(k^3) for k curves.
        support.sort(key=lambda c: c < 2)
        try:
            factor = _support_factor(table, support)
        except NotNegativeDefinite:
            raise NotPseudoeffective(
                "support is not negative definite, which cannot happen "
                "for a pseudoeffective class"
            ) from None
        coeffs = [solve_factored(factor, [column[c] for c in support]) for column in columns]
        if any(a < zero for a in zip(*coeffs)):
            raise NotPseudoeffective(
                "orthogonality forces a negative coefficient, which "
                "cannot happen for a pseudoeffective class"
            )
        scale = abs(factor[1][-1])
        residuals = [[scale * v for v in column] for column in columns]
        for residual, coeff in zip(residuals, coeffs):
            for c, a in zip(support, coeff):
                if a:
                    for j, g in table[c]:
                        residual[j] -= a * g
        violated = [c for c, r in enumerate(zip(*residuals)) if r < zero and c not in support]
        if not violated:
            return support, scale, coeffs, residuals
        support.extend(violated)


def zariski_decompose(model: SurfaceModel, d: DivisorClass) -> ZariskiDecomposition:
    """Zariski decomposition of ``d``, or NotPseudoeffective.

    ``grow_support`` over the pairings of ``d`` times their least common
    denominator, divided once at the end, then the generic-fiber test on
    P = D - sum a_i C_i (the brute-force oracle cross-checks the
    NotPseudoeffective reasoning in the test suite).  Every returned
    decomposition is certified against the three defining conditions.
    """
    candidates = model.candidate_curves()
    denominator, *column = common_denominator(*model.pairings(d))
    try:
        support, scale, (coeffs,), _residuals = grow_support(model, (column,))
    except NotPseudoeffective as exc:
        raise NotPseudoeffective(f"{d}: {exc}") from None
    coeffs = [Rat(a, scale * denominator) for a in coeffs]
    positive = _subtract_curves(model, d, candidates, support, coeffs)
    if positive.a < 0:
        # Residual meets the (nef, moving) generic fiber negatively:
        # no effective class can, so d is not pseudoeffective.
        raise NotPseudoeffective(f"{d} pairs negatively with the generic fiber")
    zd = ZariskiDecomposition(positive, _negative_part(candidates, support, coeffs))
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
    candidates = model.candidate_curves()
    denominator, *column = common_denominator(*model.pairings(d))
    found: ZariskiDecomposition | None = None
    for subset, factor in negative_definite_supports(model):
        coeffs = solve_factored(factor, [column[c] for c in subset])
        if any(x < 0 for x in coeffs):
            continue
        scale = abs(factor[1][-1]) * denominator
        coeffs = [Rat(x, scale) for x in coeffs]
        p = _subtract_curves(model, d, candidates, subset, coeffs)
        if not model.is_nef(p):
            continue
        zd = ZariskiDecomposition(p, _negative_part(candidates, subset, coeffs))
        if found is not None and (found.positive != zd.positive or found.negative != zd.negative):
            raise DecompositionError(
                f"two distinct decompositions found for {d}: {found} vs {zd}"
            )
        found = zd
    if found is None:
        raise NotPseudoeffective(f"no candidate subset decomposes {d}")
    return found


def volume(model: SurfaceModel, d: DivisorClass):
    """vol(D) = P^2 for the Zariski positive part (= D^2 when D is nef)."""
    if model.is_nef(d):
        return model.self_intersection(d)
    zd = zariski_decompose(model, d)
    return model.self_intersection(zd.positive)
