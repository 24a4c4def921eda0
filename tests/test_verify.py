"""The cross-checking suites themselves (small sample counts here; the
acceptance module reruns them at contract strength)."""

import pytest
from conftest import dual, rat, zero_class

from kedge.verify import SUITES, SuiteResult, run_suites
from kedge.zariski import DecompositionError, ZariskiDecomposition


def test_each_suite_passes():
    for name, fn in SUITES.items():
        result = fn(samples=6, seed=11)
        assert isinstance(result, SuiteResult)
        assert result.suite == name
        assert result.samples == 6
        assert result.checks > 0
        assert result.passed, result.counterexample
        assert result.counterexample is None


@pytest.mark.parametrize(
    "suite, name, broken, draws_angles",
    [
        ("lemmas", "closed_form_volume_curve", lambda E, params, angles: None, True),
        ("lemmas", "closed_form_S", lambda E, params, angles: rat(-1), True),
        (
            "zariski-oracle",
            "zariski_decompose_bruteforce",
            lambda model, d: ZariskiDecomposition(positive=zero_class(model), negative=()),
            False,
        ),
        ("route-agreement", "log_discrepancy", lambda E, params, angles: rat(-1), True),
        (
            "halving",
            "legendre_dual",
            lambda model, angles: dual(model, angles)._replace(VOL=0),
            True,
        ),
    ],
)
def test_broken_reference_is_a_counterexample(monkeypatch, suite, name, broken, draws_angles):
    # Each suite's failure branch, reached by breaking one side of its check.
    monkeypatch.setattr(f"kedge.verify.{name}", broken)
    result = SUITES[suite](samples=2, seed=11)
    assert result.passed is False
    assert result.checks >= 1
    keys = set(result.counterexample)
    assert {"n", "m", "detail"} <= keys
    if draws_angles:
        assert {"beta1", "beta2"} <= keys
    if suite == "halving":
        assert result.counterexample["detail"].startswith("2 vol(Psi)")


@pytest.mark.parametrize(
    "suite, name, keys",
    [
        ("lemmas", "closed_form_volume_curve", {"case", "curve"}),
        ("zariski-oracle", "zariski_decompose", {"class"}),
        ("route-agreement", "delta_tvariety", set()),
        ("route-agreement", "log_discrepancy", {"curve"}),
        ("halving", "legendre_dual", set()),
    ],
)
def test_inconsistency_inside_a_sample_is_a_counterexample(monkeypatch, suite, name, keys):
    # The error ends its own suite with the sample's input and the error
    # line; every other suite still runs and passes.
    def boom(*args):
        raise DecompositionError("synthetic")

    monkeypatch.setattr(f"kedge.verify.{name}", boom)
    results = run_suites(sorted(SUITES), samples=2, seed=11)
    assert [r.suite for r in results if not r.passed] == [suite]
    (result,) = [r for r in results if not r.passed]
    assert result.checks == 1
    sample = {"n", "m"} | ({"beta1", "beta2"} if suite != "zariski-oracle" else set())
    assert set(result.counterexample) == sample | keys | {"detail"}
    assert result.counterexample["detail"] == "DecompositionError: synthetic"


def test_lemmas_suite_counts_all_cases():
    # Six case families, several checked quantities per sample each.
    result = SUITES["lemmas"](samples=4, seed=3)
    assert result.checks >= 6 * 4


def test_run_suites_order_and_selection():
    results = run_suites(["halving", "lemmas"], samples=3, seed=5)
    # Registry order, not request order.
    assert [r.suite for r in results] == ["lemmas", "halving"]
    assert all(r.passed for r in results)


def test_run_suites_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["lemmas", "nope"], samples=1, seed=0)


def test_determinism():
    a = run_suites(["zariski-oracle"], samples=5, seed=9)[0]
    b = run_suites(["zariski-oracle"], samples=5, seed=9)[0]
    assert a == b


def test_as_dict_shape():
    # The CLI reports each suite as its _asdict(): fields in order.
    d = SUITES["halving"](samples=2, seed=1)._asdict()
    assert list(d) == ["suite", "samples", "checks", "passed", "counterexample"]
    assert d["suite"] == "halving"
    assert d["passed"] is True
