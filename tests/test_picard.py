"""Picard lattice of the blown-up ruled surface: classes, pairing, cones,
and the one instance and the kept values of each surface."""

import ast
import copy
import math
import pickle
from pathlib import Path

import pytest
from conftest import (ReferenceDivisorClass, add_multiple, clear_per_surface_caches,
                      common_denominator, coordinates, divisor, gram, rat, reference_intersect,
                      reference_is_nef, reference_log_anticanonical, reference_pairings,
                      signature, zero_class)
from hypothesis import given
from hypothesis import strategies as st

from kedge import picard, tvariety, zariski
from kedge.linalg import EMPTY_FACTOR
from kedge.picard import (
    PER_SURFACE_VALUES,
    Angles,
    C1TILDE,
    C2TILDE,
    DivisorClass,
    E1,
    Ei,
    F1TILDE,
    FiTilde,
    GENERIC_FIBER,
    OutsideAmpleRange,
    PULLBACK_C2,
    SurfaceModel,
    SurfaceParams,
    orbit_names,
    orbit_of,
    parse_curve_id,
    per_surface,
)
from kedge.ratmath import Rat, RatParseError
from kedge.volumes import log_discrepancy

small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
).map(lambda f: Rat(f.numerator) / Rat(f.denominator))


def test_surface_model_validation():
    assert (SurfaceModel(2, 3).n, SurfaceModel(2, 3).m) == (2, 3)
    with pytest.raises(ValueError, match="nonnegative, got n=-1, m=0"):
        SurfaceModel(-1, 0)
    with pytest.raises(ValueError, match="nonnegative, got n=0, m=-2"):
        SurfaceModel(0, -2)
    for n, m in [(1.0, 2), (1, "2"), (rat(1), 2), (True, 3), (1, False)]:
        with pytest.raises(TypeError, match="n and m must be integers"):
            SurfaceModel(n, m)


def test_angles_validation():
    a = Angles(rat(1, 2), rat(2, 3))
    assert (a.beta1, a.beta2) == (rat(1, 2), rat(2, 3))
    # Angles above 1 are accepted: the formulas stay exact.
    assert Angles(rat(3, 2), rat(1, 2)).beta1 == rat(3, 2)
    with pytest.raises(ValueError):
        Angles(rat(0), rat(1, 2))
    with pytest.raises(ValueError):
        Angles(rat(1, 2), rat(-1))


def test_angles_refuse_a_float():
    # 0.1 as a float is 3602879701896397/36028797018963968, not 1/10.
    for beta1, beta2 in [(0.1, rat(1, 2)), (rat(1, 2), 0.5)]:
        with pytest.raises(ValueError) as raised:
            Angles(beta1, beta2)
        bad = beta1 if isinstance(beta1, float) else beta2
        assert str(raised.value) == f'angle {bad!r} is a binary float; pass it exactly, as "p/q"'
    assert Angles(1, rat(1, 2)) == Angles("1", "1/2") == Angles(rat(1), "0.5")
    assert Angles("0.1", 1).beta1 == rat(1, 10)


def test_angles_read_a_string_by_the_literal_grammar():
    # A string is read as the CLI reads a literal (decimals accepted), so
    # the CLI's bounds hold: "1e-200000" is refused before Fraction spends
    # seconds on it, and "1_0" and a non-ASCII digit, which Fraction would
    # read as 10 and 1, are refused as the CLI refuses them.
    assert Angles("1", " 1/2 ") == Angles(1, rat(1, 2))
    assert Angles("0.1", "1e-3") == Angles(rat(1, 10), rat(1, 1000))
    for bad in ("1e-200000", "1_0", "\u0661", "1/0", " "):
        with pytest.raises(RatParseError):
            Angles(bad, "1/2")
        with pytest.raises(RatParseError):
            Angles("1/2", bad)


@pytest.mark.parametrize("beta1, beta2, shown", [
    ("0", "1/2", "0, 1/2"), ("1/2", "-1/2", "1/2, -1/2"), (rat(-1, 2), 1, "-1/2, 1"),
    (0, rat(0), "0, 0"), ("-6/4", "1", "-3/2, 1"), ("1/2", "0", "1/2, 0"),
])
def test_angles_refuse_a_nonpositive_angle(beta1, beta2, shown):
    with pytest.raises(ValueError) as raised:
        Angles(beta1, beta2)
    assert str(raised.value) == f"angles must be positive, got ({shown})"


@st.composite
def angle_arguments(draw):
    """(argument, value): a positive angle as ``Angles`` takes it -- an int,
    a Fraction, or a "p/q" string scaled by k, so that it need not be in
    lowest terms ("6/4") -- with denominators up to 10**30."""
    kind = draw(st.sampled_from(("int", "fraction", "string")))
    if kind == "int":
        value = draw(st.integers(1, 10**6))
        return value, Rat(value)
    value = draw(st.fractions(min_value=0, max_value=10**6, max_denominator=10**30).filter(bool))
    if kind == "fraction":
        return value, value
    k = draw(st.integers(1, 10**6))
    return f"{value.numerator * k}/{value.denominator * k}", value


@given(angle_arguments(), angle_arguments())
def test_angles_integer_form_matches_the_reference(first, second):
    (arg1, b1), (arg2, b2) = first, second
    angles = Angles(arg1, arg2)
    assert angles.scaled == common_denominator(b1, b2)
    assert all(type(x) is int for x in angles.scaled)
    # The integer form is invisible to equality, hashing and repr.
    reduced = Angles(Rat(b1.numerator, b1.denominator), Rat(b2.numerator, b2.denominator))
    assert angles == reduced and hash(angles) == hash(reduced)
    assert repr(angles) == repr(reduced) == f"Angles(beta1={b1!r}, beta2={b2!r})"
    # A Fraction is held as it is; anything else becomes one.
    for arg, beta in ((arg1, angles.beta1), (arg2, angles.beta2)):
        assert type(beta) is Rat
        assert (beta is arg) == isinstance(arg, Rat)
    for twin in (copy.copy(angles), pickle.loads(pickle.dumps(angles))):
        assert twin == angles and twin.scaled == angles.scaled
    assert Angles(b2, angles.beta2).scaled == common_denominator(b2, b2)


def test_curve_ids_and_labels():
    assert (C1TILDE, C2TILDE, GENERIC_FIBER, PULLBACK_C2) == (
        "C1tilde", "C2tilde", "GenericFiber", "PullbackC2")
    assert (Ei(2), FiTilde(1)) == ("E2", "F1tilde")
    for name in (C1TILDE, C2TILDE, Ei(3), FiTilde(7), GENERIC_FIBER, PULLBACK_C2):
        assert parse_curve_id(name) == name
    with pytest.raises(ValueError, match=r"^unknown curve label 'E0'$"):
        parse_curve_id("E0")
    # Only what ``Ei`` and ``FiTilde`` write: no leading zero, ASCII digits.
    for label in ("E01", "F02tilde", "F٣tilde", "E٣"):
        with pytest.raises(ValueError):
            parse_curve_id(label)
    assert parse_curve_id(" F3tilde ") == FiTilde(3)
    # At most three digits, refused without converting them.
    assert parse_curve_id("E999") == Ei(999)
    for label in ("E1000", "F1000tilde", "E" + "9" * 5000, "F" + "9" * 5000 + "tilde"):
        with pytest.raises(ValueError) as raised:
            parse_curve_id(label)
        assert str(raised.value) == f"unknown curve label {label!r}"
    with pytest.raises(ValueError):
        parse_curve_id("D5")


def test_orbit_of_and_orbit_names_invert_each_other():
    # S_m permutes the E_i and the F~i: a name is its orbit's first name and
    # its index there, and the orbit spells its names in candidate order.
    assert (orbit_of(Ei(3), 3), orbit_of(FiTilde(2), 3)) == ((E1, 3), (F1TILDE, 2))
    assert orbit_of(Ei(10), 10) == (E1, 10)
    assert (orbit_names(E1, 0), orbit_names(F1TILDE, 2)) == ((), ("F1tilde", "F2tilde"))
    for m in (0, 1, 4):
        for name in (*SurfaceModel(1, m).candidates, GENERIC_FIBER, PULLBACK_C2):
            first, i = orbit_of(name, m)
            size = m if first in (E1, F1TILDE) else 1
            names = orbit_names(first, size)
            assert len(names) == size and names[i - 1] == name
    for name, m in ((Ei(4), 3), (FiTilde(10), 9), ("E" + "1" * 5000, 10**6)):
        with pytest.raises(ValueError) as raised:
            orbit_of(name, m)
        assert str(raised.value) == f"curve {name} out of range for m={m}"


def closed_form_class(n: int, m: int, position: int) -> DivisorClass:
    """The class of ``candidates[position]`` from the candidate order
    alone, in the coordinates (a, b, c) of a.pi*C2 + b.F - sum c_i E_i:
    C~1 = pi*C2 - n F, C~2 = pi*C2 - sum E_i, E_i, F~i = F - E_i."""
    c = [0] * m
    if position == 0:
        return divisor(1, -n, c)
    if position == 1:
        return divisor(1, 0, [1] * m)
    if position < m + 2:
        c[position - 2] = -1
        return divisor(0, 0, c)
    c[position - m - 2] = 1
    return divisor(0, 1, c)


def test_candidates_are_one_tuple_per_model():
    for m in (0, 1, 3):
        model = SurfaceModel(1, m)
        candidates = model.candidates
        assert model.candidates is candidates, "built once, read as the same object"
        assert candidates == (C1TILDE, C2TILDE, *[Ei(i) for i in range(1, m + 1)],
                              *[FiTilde(i) for i in range(1, m + 1)])


CANDIDATE_TABLES = ("candidates", "candidate_table", "candidate_coordinates")


def test_candidate_tables_are_shared_by_equal_models():
    # Equal models are one instance, whose tables are built once.
    first, second = SurfaceModel(2, 5), SurfaceModel(2, 5)
    assert first is second
    for name in CANDIDATE_TABLES:
        assert getattr(first, name) is getattr(second, name), name
    assert SurfaceModel(2, 6).candidate_table is not first.candidate_table


def test_one_instance_per_surface():
    model = SurfaceModel(0, 2)
    assert model is SurfaceModel(0, 2) and model == SurfaceModel(0, 2)
    assert SurfaceModel(0, 3) is not model and SurfaceModel(0, 3).m == 3
    assert SurfaceModel(1, 2) is not model and SurfaceModel(1, 2).n == 1
    assert hash(model) == object.__hash__(model) and model != (0, 2)
    assert repr(model) == "SurfaceModel(n=0, m=2)"
    for twin in (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert twin is model
    for name in ("n", "m", "k"):
        with pytest.raises(AttributeError, match=f"cannot change field '{name}'"):
            setattr(model, name, 5)
        with pytest.raises(AttributeError, match=f"cannot change field '{name}'"):
            delattr(model, name)
    assert (model.n, model.m) == (0, 2)


def test_a_held_surface_outlives_its_kept_values():
    # A kept value holds its surface alive, and so does a caller: after
    # cache_clear() a held surface is the instance returned, and one that
    # nothing holds any more has left the registry.
    held = SurfaceModel(1001, 1)
    assert held.candidates == SurfaceModel(1002, 1).candidates
    assert (1002, 1) in picard._SURFACES
    clear_per_surface_caches()
    assert SurfaceModel(1001, 1) is held
    assert (1002, 1) not in picard._SURFACES


@pytest.mark.parametrize("n, m, error", [(True, 1003, TypeError), (1003.0, 1, TypeError),
                                         (-1, 1003, ValueError), (1003, -1, ValueError)])
def test_a_refused_surface_leaves_no_registry_entry(n, m, error):
    with pytest.raises(error):
        SurfaceModel(n, m)
    assert (n, m) not in picard._SURFACES  # (True, 1003) == (1, 1003), 1003.0 == 1003


def test_per_surface_cache_is_bounded():
    # One least-recently-used cache keeps the values of every kind kept per
    # surface, at least as many as the eight caches it replaced together.
    assert PER_SURFACE_VALUES >= 3 * 64 + 64 + 2048 + 1024 + 8192 + 64
    clear_per_surface_caches()
    keep, model = per_surface(lambda model, i: (model.m, i)), SurfaceModel(1, 1)
    for i in range(PER_SURFACE_VALUES + 5):
        assert keep(model, i) == (1, i)
    info = picard._kept.cache_info()
    assert (info.maxsize, info.currsize) == (PER_SURFACE_VALUES, PER_SURFACE_VALUES)
    # The least recently built value was dropped: it builds again, and the
    # most recent one is read from the cache.
    keep(model, 0)
    keep(model, PER_SURFACE_VALUES + 4)
    after = picard._kept.cache_info()
    assert (after.misses - info.misses, after.hits - info.hits) == (1, 1)


PER_SURFACE_READS = {
    "candidates": lambda model: model.candidates,
    "candidate-table": lambda model: model.candidate_table,
    "candidate-coordinates": lambda model: model.candidate_coordinates,
    "oracle-family": zariski.negative_definite_supports,
    "support-factor": lambda model: zariski._support_factor(model, (2,)),
    "swept-curve": lambda model: zariski.swept_curve(model, C1TILDE),
    "slope-half": lambda model: zariski._slope_half(model, C1TILDE, (2,)),
    "torus-certificate": tvariety._certify_support_function,
}


@pytest.mark.parametrize("read", PER_SURFACE_READS.values(), ids=PER_SURFACE_READS)
def test_each_value_kept_per_surface_is_an_entry_of_the_one_cache(read):
    # A second read of the same surface is one hit of the shared cache and
    # builds nothing; after cache_clear() the held surface builds it again.
    clear_per_surface_caches()
    model = SurfaceModel(1, 2)
    first = read(model)
    info = picard._kept.cache_info()
    assert read(SurfaceModel(1, 2)) is first
    after = picard._kept.cache_info()
    assert (after.hits, after.misses, after.currsize) == (info.hits + 1, info.misses,
                                                          info.currsize)
    clear_per_surface_caches()
    assert read(model) == first
    assert picard._kept.cache_info().misses > 0


def test_kept_values_are_told_apart_by_their_build():
    # Two builds kept for one surface under one key: the torus certificate
    # (None) and the oracle's family, whose first set is the empty one.
    clear_per_surface_caches()
    model = SurfaceModel(1, 2)
    assert tvariety._certify_support_function(model) is None
    assert zariski.negative_definite_supports(model)[0] == ((), EMPTY_FACTOR)
    assert model.candidates[0] == C1TILDE and model.candidate_table[0] != C1TILDE


def test_only_picard_keeps_values():
    # Every value kept per surface goes through picard.per_surface: no other
    # module of src/kedge names lru_cache or cached_property.
    src = Path(__file__).resolve().parents[1] / "src" / "kedge"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        kept = names & {"lru_cache", "cached_property"}
        assert kept == ({"lru_cache"} if path.stem == "picard" else set()), path.stem


@pytest.mark.parametrize("n, m", [(n, m) for n in range(7) for m in range(7)]
                         + [(0, 200), (5, 200)])
def test_candidate_names_round_trip_and_have_their_classes(n, m):
    model = SurfaceModel(n, m)
    for position, name in enumerate(model.candidates):
        assert parse_curve_id(name) == name
        assert model.class_of(name) == closed_form_class(n, m, position), (n, m, name)


def test_class_of_reads_any_index_up_to_m():
    # The CLI's three-digit bound is its own: the lattice reads every index.
    model = SurfaceModel(0, 1000)
    e, f = model.class_of(Ei(1000)), model.class_of(FiTilde(1000))
    assert e.num == (0, 0) + (0,) * 999 + (-1,)
    assert f.num == (0, 1) + (0,) * 999 + (1,)
    assert add_multiple(e, 1, f) == model.class_of(GENERIC_FIBER)
    with pytest.raises(ValueError) as raised:
        parse_curve_id("E1000")
    assert str(raised.value) == "unknown curve label 'E1000'"


def test_unknown_curve_kind_is_refused():
    model, angles = SurfaceModel(0, 3), Angles(rat(1, 2), rat(1, 2))
    for name in ("Bogus", "E0", "F0tilde", "E01", "e1"):
        with pytest.raises(ValueError) as raised:
            model.class_of(name)
        assert str(raised.value) == f"unknown curve name {name!r}"
    with pytest.raises(ValueError) as raised:
        log_discrepancy("Bogus", model, angles)
    assert str(raised.value) == "unknown curve name 'Bogus'"


def test_class_of_refuses_an_index_above_m():
    model, angles = SurfaceModel(0, 3), Angles(rat(1, 2), rat(1, 2))
    # int refuses a string of over 4300 digits: a longer index is above m, unread.
    for name in (Ei(4), FiTilde(4), "E" + "1" * 5000, "F" + "1" * 5000 + "tilde"):
        with pytest.raises(ValueError) as raised:
            model.class_of(name)
        assert str(raised.value) == f"curve {name} out of range for m=3"
    with pytest.raises(ValueError) as raised:
        log_discrepancy(Ei(4), model, angles)
    assert str(raised.value) == "curve E4 out of range for m=3"


def test_intersect_refuses_a_class_of_another_surface():
    model = SurfaceModel(0, 2)
    with pytest.raises(ValueError) as raised:
        model.intersect(zero_class(SurfaceModel(0, 3)), zero_class(model))
    assert str(raised.value) == "dimension mismatch against surface parameters"


@pytest.mark.parametrize("den", [-1, 0])
def test_divisor_class_refuses_a_nonpositive_denominator(den):
    # (1, 2) over -1 would read as (-1, -2) but compare unequal to it, and
    # over 0 it would have no rational coordinates.
    with pytest.raises(ValueError) as raised:
        DivisorClass((1, 2), den)
    assert str(raised.value) == f"a class's denominator must be positive, got {den}"


def test_divisor_class_is_a_value():
    d = divisor(rat(1, 2), -3, (rat(2, 3), 0))
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert twin == d and hash(twin) == hash(d) and repr(twin) == repr(d)
    with pytest.raises(AttributeError):
        d.num = (0, 0, 0, 0)


def test_values_equal_only_equal_values_of_their_type():
    half, third = rat(1, 2), rat(1, 3)
    angles, d = Angles(half, third), DivisorClass((1, 1, 0), 2)
    assert angles == Angles("1/2", rat(2, 6)) and hash(angles) == hash((half, third))
    assert d == DivisorClass((2, 2, 0), 4) and hash(d) == hash(((1, 1, 0), 2))
    # Every argument is compared, and a plain tuple of the fields is no value.
    assert angles != Angles(half, half) and angles != Angles(third, third)
    assert d != DivisorClass((1, 1, 0), 3) and d != DivisorClass((1, 1, 1), 2)
    assert angles != (half, third) and angles != (half, third, angles.scaled)
    assert d != ((1, 1, 0), 2) and d != (1, 1, 0)
    assert angles != d and d != SurfaceModel(0, 1)
    for value, field in ((angles, "beta1"), (angles, "scaled"), (d, "den")):
        with pytest.raises(AttributeError) as raised:
            setattr(value, field, 1)
        assert str(raised.value) == f"cannot change field {field!r}"
        with pytest.raises(AttributeError):
            delattr(value, field)


def test_named_classes():
    model = SurfaceModel(2, 2)
    assert model.class_of(C1TILDE) == divisor(1, -2, (0, 0))
    assert model.class_of(C2TILDE) == divisor(1, 0, (1, 1))
    assert model.class_of(Ei(1)) == divisor(0, 0, (-1, 0))
    assert model.class_of(FiTilde(2)) == divisor(0, 1, (0, 1))
    assert model.class_of(GENERIC_FIBER) == divisor(0, 1, (0, 0))
    assert model.class_of(PULLBACK_C2) == divisor(1, 0, (0, 0))
    with pytest.raises(ValueError):
        model.class_of(Ei(3))  # only m=2 points blown up


def test_self_intersections():
    for n, m in [(0, 0), (0, 3), (2, 1), (3, 4)]:
        model = SurfaceModel(n, m)

        def square(curve):
            cls = model.class_of(curve)
            return model.intersect(cls, cls)

        assert square(C1TILDE) == -n
        assert square(C2TILDE) == n - m
        assert square(GENERIC_FIBER) == 0
        for i in range(1, m + 1):
            assert square(Ei(i)) == -1
            assert square(FiTilde(i)) == -1
            assert model.intersect(
                model.class_of(Ei(i)), model.class_of(FiTilde(i))
            ) == 1
        assert model.intersect(model.class_of(C1TILDE), model.class_of(C2TILDE)) == 0
        assert model.intersect(
            model.class_of(C1TILDE), model.class_of(GENERIC_FIBER)
        ) == 1


def test_fiber_decomposes_through_marked_points():
    model = SurfaceModel(1, 2)
    fiber = model.class_of(GENERIC_FIBER)
    for i in (1, 2):
        assert add_multiple(model.class_of(FiTilde(i)), 1, model.class_of(Ei(i))) == fiber


def test_lattice_signature():
    for n, m in [(0, 0), (1, 2), (3, 4)]:
        model = SurfaceModel(n, m)
        # Basis (pi*C2, pi*F, E_1..E_m): [[n, 1], [1, 0]] + (-I_m).
        basis = [divisor(1, 0, (0,) * m), divisor(0, 1, (0,) * m)]
        basis += [model.class_of(Ei(i)) for i in range(1, m + 1)]
        assert signature(gram(model, basis)) == (1, m + 1, 0)


def test_named_classes_have_integer_coordinates():
    # Every pairing between named classes is then an integral Fraction, so
    # the certificate's int() of a pairing is exact.
    for n in range(7):
        for m in range(7):
            model = SurfaceModel(n, m)
            for curve in (*model.candidates, GENERIC_FIBER, PULLBACK_C2):
                cls = model.class_of(curve)
                assert cls.den == 1, (n, m, curve)


@given(st.tuples(small_rats, small_rats, small_rats, small_rats, small_rats, small_rats))
def test_pairing_symmetric_bilinear(coords):
    model = SurfaceModel(2, 1)
    d1 = divisor(coords[0], coords[1], (coords[2],))
    d2 = divisor(coords[3], coords[4], (coords[5],))
    assert model.intersect(d1, d2) == model.intersect(d2, d1)
    summed = model.intersect(add_multiple(d1, 1, d2), d2)
    assert summed == model.intersect(d1, d2) + model.intersect(d2, d2)
    scaled = model.intersect(add_multiple(zero_class(model), rat(3, 2), d1), d2)
    assert scaled == rat(3, 2) * model.intersect(d1, d2)


def test_closed_form_curve_pairings_match_intersect():
    for n in range(7):
        for m in range(7):
            model = SurfaceModel(n, m)
            curves = model.candidates
            table = [dict(row) for row in model.candidate_table]
            assert len(table) == len(curves)
            for i, row in enumerate(table):
                assert len(row) == len(model.candidate_table[i]), "one entry per pair"
                assert 0 not in row.values(), (n, m, i)
                assert all(table[j][i] == g for j, g in row.items()), "symmetric"
            for i, c1 in enumerate(curves):
                for j, c2 in enumerate(curves):
                    expected = model.intersect(model.class_of(c1), model.class_of(c2))
                    assert table[i].get(j, 0) == expected, (n, m, c1, c2)


def test_closed_form_candidate_coordinates_match_class_of():
    # Every nonzero (index, coordinate) of each candidate's class, in
    # coordinate order, as ``class_of`` spells the class.
    surfaces = [(n, m) for n in range(9) for m in range(13)] + [(0, 200), (3, 200)]
    for n, m in surfaces:
        model = SurfaceModel(n, m)
        expected = tuple(tuple((j, x) for j, x in enumerate(model.class_of(c).num) if x)
                         for c in model.candidates)
        assert model.candidate_coordinates == expected, (n, m)


@given(
    st.integers(min_value=0, max_value=6),
    st.lists(small_rats, min_size=2, max_size=8),
)
def test_closed_form_class_pairings_match_intersect(n, coords):
    model = SurfaceModel(n, len(coords) - 2)
    d = divisor(coords[0], coords[1], tuple(coords[2:]))
    curves = model.candidates
    den, *column = model.pairings(d)
    assert den == d.den and all(type(x) is int for x in column)
    assert [Rat(x, den) for x in column] == [model.intersect(d, model.class_of(c)) for c in curves]
    _, _, c = coordinates(d)
    for wrong_rank in (DivisorClass(d.num + (0,), d.den), divisor(-1, 0, c + (0,))):
        with pytest.raises(ValueError):
            model.pairings(wrong_rank)
        with pytest.raises(ValueError):
            model.is_nef(wrong_rank)


def anticanonical(model):
    """-K_S = 2 pi*C2 + (2-n) pi*F - sum E_i."""
    return divisor(2, 2 - model.n, (1,) * model.m)


def test_anticanonical():
    # -K_S is the log anticanonical class at beta1 = beta2 = 1.
    for n, m in [(0, 0), (1, 1), (2, 3)]:
        model = SurfaceModel(n, m)
        mk = anticanonical(model)
        assert mk == model.log_anticanonical(Angles(1, 1))
        assert model.intersect(mk, mk) == 8 - m


def test_log_anticanonical():
    model = SurfaceModel(2, 1)
    angles = Angles(rat(1, 2), rat(1, 3))
    d = model.log_anticanonical(angles)
    assert d == divisor(rat(5, 6), 1, (rat(1, 3),))
    # -K_{S,Delta} = -K - (1-beta1) C1tilde - (1-beta2) C2tilde
    recon = add_multiple(anticanonical(model), angles.beta1 - 1, model.class_of(C1TILDE))
    recon = add_multiple(recon, angles.beta2 - 1, model.class_of(C2TILDE))
    assert d == recon
    assert model.intersect(d, d) == 4 * rat(5, 6) - 2 * rat(1, 4) + rat(1, 9)


def test_is_nef():
    model = SurfaceModel(2, 1)
    assert model.is_nef(model.class_of(GENERIC_FIBER))
    assert model.is_nef(model.class_of(PULLBACK_C2))
    assert not model.is_nef(model.class_of(Ei(1)))
    assert not model.is_nef(model.class_of(C1TILDE))
    assert not model.is_nef(divisor(-1, 5, (0,)))
    assert model.is_nef(model.log_anticanonical(Angles(rat(1, 2), rat(1, 2))))


def test_ample_range():
    model = SurfaceModel(2, 4)
    assert model.ample_range_violation(Angles(rat(1, 2), rat(1, 2))) is None
    # beta1 = 2/n and beta2 = 2/(m-n) sit on the boundary: excluded.
    assert "beta1" in model.ample_range_violation(Angles(rat(1), rat(1, 2)))
    assert "beta2" in model.ample_range_violation(Angles(rat(1, 2), rat(1)))
    with pytest.raises(OutsideAmpleRange):
        model.ensure_ample(Angles(rat(1), rat(1, 2)))
    # n = m = 0 has no upper bounds at all.
    assert SurfaceModel(0, 0).ample_range_violation(Angles(5, 7)) is None


def test_former_surface_name_is_the_model_type():
    # The benchmark's checks build surfaces by the former name.
    assert SurfaceParams is SurfaceModel
    assert isinstance(SurfaceParams(1, 2), SurfaceModel)


lattice_rats = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def class_pairs(draw):
    """(model, coordinates of two classes, angles), n, m <= 6; the
    second class repeats the first now and then, so equality is exercised."""
    model = SurfaceModel(draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    coords = st.lists(lattice_rats, min_size=model.m + 2, max_size=model.m + 2)
    first = draw(coords)
    second = first if draw(st.booleans()) and draw(st.booleans()) else draw(coords)
    angles = Angles(*draw(st.tuples(*[st.fractions(min_value=0, max_value=4,
                                                   max_denominator=40).filter(bool)] * 2)))
    return model, first, second, angles


def as_classes(coords):
    a, b, *c = coords
    return divisor(a, b, tuple(c)), ReferenceDivisorClass(a, b, tuple(c))


def same(d, ref):
    """The integer class and the rational reference agree field by field."""
    return repr(d) == repr(ref) and coordinates(d) == (ref.a, ref.b, ref.c)


@given(class_pairs())
def test_integer_lattice_matches_the_rational_reference(case):
    model, first, second, angles = case
    (x, rx), (y, ry) = as_classes(first), as_classes(second)
    assert same(x, rx) and same(y, ry)
    assert math.gcd(x.den, *x.num) == 1 and x.den > 0, "lowest terms"
    assert (x == y) == (rx == ry) and (x != y or hash(x) == hash(y)), "equal classes hash equal"
    assert x == DivisorClass([3 * v for v in x.num], 3 * x.den)
    assert model.intersect(x, y) == reference_intersect(model, rx, ry)
    den, *column = model.pairings(x)
    assert [Rat(v, den) for v in column] == reference_pairings(model, rx)
    assert model.is_nef(x) == reference_is_nef(model, rx)
    assert same(model.log_anticanonical(angles), reference_log_anticanonical(model, angles))
