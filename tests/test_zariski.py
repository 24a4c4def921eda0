"""Zariski decompositions: incremental route, brute-force oracle, volumes."""

import pytest

from conftest import (add_multiple, common_denominator, divisor, gram, negative_class,
                      negative_definite_families, rat, signature, volume, zero_class)
from kedge.linalg import factorize
from kedge.picard import (
    Angles,
    C1TILDE,
    C2TILDE,
    Ei,
    FiTilde,
    GENERIC_FIBER,
    SurfaceModel,
)
from kedge.ratmath import Rat
from kedge.sampling import sample_angles, sample_divisor_class, sample_surface
from kedge.zariski import (
    DecompositionError,
    NotPseudoeffective,
    ZariskiDecomposition,
    _certify,
    grow_support,
    is_negative_definite,
    negative_definite_supports,
    zariski_decompose,
    zariski_decompose_bruteforce,
)


def shifted_anticanonical(n, m, beta1, beta2, curve, x):
    """-K_{Delta} - x * curve as a DivisorClass."""
    model = SurfaceModel(n, m)
    angles = Angles(rat(*beta1) if isinstance(beta1, tuple) else beta1,
                    rat(*beta2) if isinstance(beta2, tuple) else beta2)
    return model, add_multiple(model.log_anticanonical(angles), -x, model.class_of(curve))


class TestNegativeDefinite:
    def test_fiber_transforms_are_minus_identity(self):
        model = SurfaceModel(3, 4)
        curves = [FiTilde(i) for i in range(1, 5)]
        assert is_negative_definite(model, curves)

    def test_section_plus_fiber_degenerates_at_n1(self):
        # Gram [[-1, 1], [1, -1]] is singular, so not negative definite.
        assert not is_negative_definite(SurfaceModel(1, 1), [C1TILDE, FiTilde(1)])
        assert is_negative_definite(SurfaceModel(2, 1), [C1TILDE, FiTilde(1)])

    def test_both_sections_and_fiber(self):
        assert is_negative_definite(SurfaceModel(2, 3), [C1TILDE, C2TILDE, FiTilde(1)])

    @pytest.mark.parametrize("family,builder,constraint,violations",
                             negative_definite_families())
    def test_families_under_constraints(self, family, builder, constraint, violations):
        hits = 0
        for n in range(0, 5):
            for m in range(1, 5):
                if not constraint(n, m):
                    continue
                hits += 1
                model = SurfaceModel(n, m)
                assert is_negative_definite(model, builder(n, m)), (family, n, m)
        assert hits > 0
        for n, m in violations:
            model = SurfaceModel(n, m)
            assert not is_negative_definite(model, builder(n, m)), (family, n, m)

    def test_order_free_on_shuffled_supports(self, rng):
        # Sections go last inside; the answer is the signature's, whatever
        # order the curves come in.
        for n in range(5):
            for m in range(5):
                model = SurfaceModel(n, m)
                candidates = model.candidates
                for _ in range(20):
                    curves = rng.sample(candidates, rng.randint(0, len(candidates)))
                    classes = [model.class_of(c) for c in curves]
                    expected = signature(gram(model, classes)) == (0, len(curves), 0)
                    assert is_negative_definite(model, curves) == expected, (n, m, curves)


class TestDecompose:
    def test_nef_class_is_its_own_positive_part(self):
        model = SurfaceModel(2, 2)
        d = model.log_anticanonical(Angles(rat(1, 2), rat(1, 2)))
        zd = zariski_decompose(model, d)
        assert zd.negative == ()
        assert zd.positive == d
        assert zariski_decompose_bruteforce(model, d) == zd

    def test_section_sweep_negative_parts(self):
        # Past the first wall, -K - x C1tilde picks up all fiber transforms
        # with coefficient (x - beta1), and the C2tilde sweep dually picks
        # up all exceptional curves with coefficient (x - beta2).
        model, d = shifted_anticanonical(1, 2, (1, 2), (2, 3), C1TILDE, rat(3, 4))
        zd = zariski_decompose(model, d)
        assert zd.negative == (
            (FiTilde(1), rat(1, 4)),
            (FiTilde(2), rat(1, 4)),
        )
        model, d = shifted_anticanonical(1, 2, (1, 2), (2, 3), C2TILDE, rat(5, 6))
        zd = zariski_decompose(model, d)
        assert zd.negative == ((Ei(1), rat(1, 6)), (Ei(2), rat(1, 6)))

    def test_exceptional_sweep_third_chamber(self):
        # n=2, m=1, angles (1/2, 1/2), x = 9/4 in (2-(n-1)beta1, 2]:
        # N = (beta1 - (2-x)/(n-1)) C1tilde + ((n x - 2)/(n-1)) F1tilde.
        model, d = shifted_anticanonical(2, 1, (1, 2), (1, 2), Ei(1), rat(9, 4))
        zd = zariski_decompose(model, d)
        assert zd.negative == ((C1TILDE, rat(3, 4)), (FiTilde(1), rat(5, 2)))

    def test_exceptional_sweep_last_chamber_n0(self):
        # n=0, m=2, angles (1/4, 1/2), x = 9/4 in (2, 2+beta1]:
        # N = (beta2+x-2) C2tilde + (x-beta1) F1tilde + (x-2) E2.
        model, d = shifted_anticanonical(0, 2, (1, 4), (1, 2), Ei(1), rat(9, 4))
        zd = zariski_decompose(model, d)
        assert zd.negative == (
            (C2TILDE, rat(3, 4)),
            (Ei(2), rat(1, 4)),
            (FiTilde(1), rat(2)),
        )

    def test_support_property(self):
        zd = ZariskiDecomposition(
            positive=divisor(1, 1, (0,)),
            negative=((Ei(1), rat(1, 2)),),
        )
        assert zd.support == (Ei(1),)
        model = SurfaceModel(0, 1)
        assert negative_class(model, zd) == divisor(0, 0, (rat(-1, 2),))

    def test_not_pseudoeffective(self):
        model = SurfaceModel(2, 1)
        minus_fiber = divisor(0, -1, (0,))
        with pytest.raises(NotPseudoeffective):
            zariski_decompose(model, minus_fiber)
        with pytest.raises(NotPseudoeffective):
            zariski_decompose_bruteforce(model, minus_fiber)
        # A class meeting the generic fiber negatively can never be
        # pseudoeffective, whatever the rest looks like.
        with pytest.raises(NotPseudoeffective):
            zariski_decompose(model, divisor(-1, rat(-1, 2), (0,)))

    def test_fiber_minus_too_much_exceptional(self):
        # F - 2 E_1 = F1tilde - E_1 is not pseudoeffective.
        model = SurfaceModel(2, 1)
        with pytest.raises(NotPseudoeffective):
            zariski_decompose(model, divisor(0, 1, (2,)))
        with pytest.raises(NotPseudoeffective):
            zariski_decompose_bruteforce(model, divisor(0, 1, (2,)))

    def test_two_decompositions_are_an_inconsistency(self, monkeypatch):
        # The decomposition is unique; with every class called nef, E1 + F
        # passes both as its own positive part and as F + 1 E1.
        monkeypatch.setattr(SurfaceModel, "is_nef", lambda self, d: True)
        model = SurfaceModel(0, 2)
        d = add_multiple(model.class_of(Ei(1)), 1, model.class_of(GENERIC_FIBER))
        with pytest.raises(DecompositionError) as raised:
            zariski_decompose_bruteforce(model, d)
        assert str(raised.value) == (
            "two distinct decompositions found for DivisorClass(a=0, b=1, c=(-1,0)):"
            " ZariskiDecomposition(positive=DivisorClass(a=0, b=1, c=(-1,0)), negative=())"
            " vs ZariskiDecomposition(positive=DivisorClass(a=0, b=1, c=(0,0)),"
            " negative=(('E1', Fraction(1, 1)),))")

    def test_oracle_agreement_random(self, rng):
        agreements = 0
        for _ in range(60):
            model = sample_surface(rng, n_max=4, m_max=3)
            d = sample_divisor_class(rng, model)
            try:
                fast = zariski_decompose(model, d)
            except NotPseudoeffective:
                fast = None
            try:
                slow = zariski_decompose_bruteforce(model, d)
            except NotPseudoeffective:
                slow = None
            assert fast == slow, (model, d)
            agreements += 1
        assert agreements == 60

    def test_postconditions_on_random_effective_classes(self, rng):
        for _ in range(60):
            model = sample_surface(rng, n_max=4, m_max=4)
            d = sample_divisor_class(rng, model)
            try:
                zd = zariski_decompose(model, d)
            except NotPseudoeffective:
                continue
            assert model.is_nef(zd.positive)
            for cid, coeff in zd.negative:
                assert coeff > 0
                assert model.intersect(zd.positive, model.class_of(cid)) == 0
            if zd.negative:
                assert is_negative_definite(model, zd.support)
            assert add_multiple(zd.positive, 1, negative_class(model, zd)) == d


class TestCertify:
    """Each of the certificate's refusals, on a hand-built decomposition."""

    def test_positive_part_not_nef(self):
        model = SurfaceModel(1, 1)
        e1 = model.class_of(Ei(1))
        with pytest.raises(DecompositionError) as raised:
            _certify(model, e1, ZariskiDecomposition(e1, ()))
        assert str(raised.value) == "positive part not nef: DivisorClass(a=0, b=0, c=(-1))"

    def test_nonpositive_coefficient(self):
        model = SurfaceModel(1, 1)
        zero = zero_class(model)
        with pytest.raises(DecompositionError) as raised:
            _certify(model, zero, ZariskiDecomposition(zero, ((Ei(1), rat(0)),)))
        assert str(raised.value) == "nonpositive coefficient 0 on E1"

    def test_positive_part_not_orthogonal(self):
        model = SurfaceModel(1, 1)
        fiber = model.class_of(GENERIC_FIBER)
        with pytest.raises(DecompositionError) as raised:
            _certify(model, fiber, ZariskiDecomposition(fiber, ((C1TILDE, rat(1)),)))
        assert str(raised.value) == "positive part not orthogonal to C1tilde"

    def test_support_not_negative_definite(self):
        # C1tilde and F1tilde on (1, 1): Gram [[-1, 1], [1, -1]] is singular.
        model = SurfaceModel(1, 1)
        zero = zero_class(model)
        zd = ZariskiDecomposition(zero, ((C1TILDE, rat(1)), (FiTilde(1), rat(1))))
        with pytest.raises(DecompositionError) as raised:
            _certify(model, zero, zd)
        assert str(raised.value) == "support Gram matrix not negative definite"

    def test_reconstruction(self):
        model, d = shifted_anticanonical(0, 2, (1, 2), (1, 2), Ei(1), rat(3, 2))
        zd = zariski_decompose(model, d)
        with pytest.raises(DecompositionError) as raised:
            _certify(model, add_multiple(d, 1, model.class_of(GENERIC_FIBER)), zd)
        assert str(raised.value) == "P + N does not reconstruct the input class"


class TestGrowSupport:
    def test_residual_pairings_match_reconstructed_class(self, rng):
        # grow_support reads P.C off the candidate table, in integers over
        # |det G_S| and the column's scale; rebuild the class
        # P = D - sum a_i C_i and pair it directly instead.
        grown = 0
        for _ in range(80):
            model = sample_surface(rng, n_max=4, m_max=4)
            d = sample_divisor_class(rng, model)
            candidates = model.candidates
            pairings = [model.intersect(d, model.class_of(c)) for c in candidates]
            denominator, *column = common_denominator(*pairings)
            try:
                support, scale, (coeffs,), (residual,) = grow_support(model, column)
            except NotPseudoeffective:
                continue
            assert scale > 0 and all(type(x) is int for x in coeffs + residual)
            p = d
            for c, x in zip(support, coeffs):
                p = add_multiple(p, Rat(-x, scale * denominator), model.class_of(candidates[c]))
            assert len(residual) == len(candidates)
            for c, r in zip(candidates, residual):
                assert Rat(r, scale * denominator) == model.intersect(p, model.class_of(c)), (
                    model, d, c)
            grown += support != []
        assert grown >= 20

    def test_support_lists_the_sections_last(self, rng):
        # C~1 and C~2 (indices 0 and 1) are factored after every E_i and
        # F~i, which keeps the factor free of fill-in, and the other curves
        # in index order, so that a set of curves is one cache key.
        # -K_Delta + 3 E1 + 3 C~1 on (2, 2) has the support {E1, C~1}.
        model, d = shifted_anticanonical(2, 2, (1, 2), (1, 2), Ei(1), -3)
        d = add_multiple(d, 3, model.class_of(C1TILDE))
        _, *column = model.pairings(d)
        assert grow_support(model, column)[0] == [2, 0]
        for _ in range(40):
            model = sample_surface(rng, n_max=4, m_max=4)
            _, *column = model.pairings(sample_divisor_class(rng, model))
            try:
                support = grow_support(model, column)[0]
            except NotPseudoeffective:
                continue
            assert support == sorted(support, key=lambda c: (c in (0, 1), c))

    def test_start_outside_negative_definite_sets(self):
        # Bauer's guarantee needs a start inside the true support; a start
        # that is not negative definite (C1tilde, F1tilde on (1, 1)) refuses.
        model = SurfaceModel(1, 1)
        candidates = model.candidates
        start = (candidates.index(C1TILDE), candidates.index(FiTilde(1)))
        column = [int(x) for x in model.pairings(zero_class(model))]
        with pytest.raises(NotPseudoeffective, match="support is not negative definite"):
            grow_support(model, column, start)

    def test_negative_coefficient_is_refused(self):
        # F1tilde's pairings on (0, 2) from the start {E1}: orthogonality to
        # E1 (E1^2 = -1, F1tilde.E1 = 1) asks for the coefficient -1.
        model = SurfaceModel(0, 2)
        column = [1, 0, 1, 0, -1, 0]  # C1tilde, C2tilde, E1, E2, F1tilde, F2tilde
        with pytest.raises(NotPseudoeffective) as raised:
            grow_support(model, column, start=[2])
        assert str(raised.value) == (
            "orthogonality forces a negative coefficient, which cannot happen "
            "for a pseudoeffective class"
        )


def pivoting_solve(matrix, rhs):
    """Gaussian elimination with row exchanges, for any nonsingular
    system; None when singular.  Independent of the kernel under test."""
    k = len(matrix)
    a = [[rat(x) for x in row] for row in matrix]
    b = [rat(x) for x in rhs]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, k):
            if a[r][col] == 0:
                continue
            factor = a[r][col] / a[col][col]
            for c in range(col, k):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [None] * k
    for r in range(k - 1, -1, -1):
        x[r] = (b[r] - sum((a[r][c] * x[c] for c in range(r + 1, k)), rat(0))) / a[r][r]
    return x


def exhaustive_decompositions(model, d):
    """Every decomposition some subset of the 2^k candidate subsets passes,
    paired through the generic ``intersect``; every nonsingular subset is
    solved, indefinite ones included."""
    candidates = model.candidates
    found = set()
    for mask in range(1 << len(candidates)):
        subset = [c for i, c in enumerate(candidates) if mask >> i & 1]
        classes = [model.class_of(c) for c in subset]
        coeffs = pivoting_solve(
            gram(model, classes), [model.intersect(d, cls) for cls in classes]
        )
        if coeffs is None:
            continue
        p = d
        for cls, x in zip(classes, coeffs):
            p = add_multiple(p, -x, cls)
        if any(x < 0 for x in coeffs) or not model.is_nef(p):
            continue
        negative = tuple((c, x) for c, x in zip(subset, coeffs) if x != 0)
        support = [model.class_of(c) for c, _ in negative]
        if signature(gram(model, support)) != (0, len(support), 0):
            continue
        found.add(ZariskiDecomposition(positive=p, negative=negative))
    return found


class TestPrunedOracle:
    def test_matches_exhaustive_enumeration(self, rng):
        outcomes = {"decomposed": 0, "not pseudoeffective": 0}
        for n in range(5):
            for m in range(4):
                model = SurfaceModel(n, m)
                classes = [sample_divisor_class(rng, model) for _ in range(3)]
                classes.append(divisor(0, -1, (0,) * m))  # minus a fiber
                for d in classes:
                    expected = exhaustive_decompositions(model, d)
                    assert len(expected) <= 1, (n, m, d)
                    try:
                        got = {zariski_decompose_bruteforce(model, d)}
                        outcomes["decomposed"] += 1
                    except NotPseudoeffective:
                        got = set()
                        outcomes["not pseudoeffective"] += 1
                    assert got == expected, (n, m, d)
        assert min(outcomes.values()) >= 10, outcomes

    @pytest.mark.parametrize("n, count", [(0, 161), (1, 180), (2, 198), (3, 180), (4, 161)])
    def test_negative_definite_support_counts_at_m4(self, n, count):
        model = SurfaceModel(n, 4)
        supports = [s for s, _factor in negative_definite_supports(model)]
        assert len(supports) == count
        assert supports[0] == ()
        candidates = model.candidates
        every_subset = (
            [i for i in range(len(candidates)) if mask >> i & 1]
            for mask in range(1, 1 << len(candidates))
        )
        expected = {(), *(tuple(s) for s in every_subset
                          if is_negative_definite(model, [candidates[i] for i in s]))}
        assert {tuple(s) for s in supports} == expected

    @pytest.mark.parametrize("m, counts", [
        (5, [485, 533, 618, 618, 533, 485]),
        (6, [1457, 1566, 1839, 2004, 1839, 1566, 1457]),
    ])
    def test_negative_definite_support_counts_at_m5_m6(self, m, counts):
        for n, count in enumerate(counts):
            supports = [tuple(s) for s, _factor in negative_definite_supports(SurfaceModel(n, m))]
            assert len(set(supports)) == len(supports) == count, (n, m)

    def test_family_is_shared_by_equal_models(self):
        first, second = SurfaceModel(2, 3), SurfaceModel(2, 3)
        assert first is second
        assert negative_definite_supports(first) is negative_definite_supports(second)
        assert negative_definite_supports(SurfaceModel(3, 3)) is not negative_definite_supports(first)

    def test_family_factors_are_those_of_the_gram_matrices(self):
        # Every set and factor is a tuple (shared, so immutable), and each
        # bordered factor is the one factorize forms from the set's Gram
        # matrix, paired through the classes by the generic intersect.
        for m in range(6):
            for n in range(m + 1):
                model = SurfaceModel(n, m)
                classes = [model.class_of(c) for c in model.candidates]
                for subset, factor in negative_definite_supports(model):
                    assert type(subset) is tuple and type(factor) is tuple, (n, m, subset)
                    matrix = gram(model, [classes[c] for c in subset])
                    expected = factorize([[int(x) for x in row] for row in matrix])
                    assert factor == expected, (n, m, subset)

    @pytest.mark.parametrize("m", [5, 6])
    def test_oracle_agrees_with_growth_at_m5_m6(self, rng, m):
        for n in range(m + 1):
            model = SurfaceModel(n, m)
            for _ in range(2):
                d = sample_divisor_class(rng, model)
                try:
                    fast = zariski_decompose(model, d)
                except NotPseudoeffective:
                    fast = None
                try:
                    slow = zariski_decompose_bruteforce(model, d)
                except NotPseudoeffective:
                    slow = None
                assert fast == slow, (n, m, d)


class TestVolume:
    def test_anticanonical_volume(self):
        model = SurfaceModel(0, 2)
        d = model.log_anticanonical(Angles(rat(1, 2), rat(1, 2)))
        assert volume(model, d) == rat(7, 2)

    def test_volume_vanishes_at_threshold(self):
        model, d = shifted_anticanonical(0, 2, (1, 2), (1, 2), C1TILDE, rat(1))
        assert volume(model, d) == 0

    def test_volume_drops_after_wall(self):
        model, d = shifted_anticanonical(0, 2, (1, 2), (1, 2), C1TILDE, rat(3, 4))
        # (beta1+beta2-x)(4-(m-n)(x-beta1+beta2)) at x=3/4: (1/4)(4-2(3/4)) = 5/8.
        assert volume(model, d) == rat(5, 8)

    def test_monotone_under_effective_additions(self, rng):
        for _ in range(40):
            model = sample_surface(rng, n_max=3, m_max=3)
            d = model.log_anticanonical(sample_angles(rng, model))
            base = volume(model, d)
            bigger = add_multiple(d, rat(1, 3), model.class_of(GENERIC_FIBER))
            assert volume(model, bigger) >= base
            for curve in model.candidates:
                extra = add_multiple(d, rat(1, 4), model.class_of(curve))
                assert volume(model, extra) >= base


def test_decomposition_unavailable_index():
    model = SurfaceModel(1, 1)
    with pytest.raises(ValueError):
        zariski_decompose(model, divisor(1, 1, (0, 0)))
