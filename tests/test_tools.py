"""The repository tools' tables stay in step with ``src/kedge`` and the
tests, and the line counter counts as its docstring says."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_anchor_occurs_once():
    # Each mutant's old text must occur exactly once in its module, so a
    # change that moves one fails here; no mutant runs.
    mutants = load("mutants")
    assert mutants.check_table(mutants.MUTANTS) == []


def test_every_recorded_test_is_defined():
    # Each mutant runs first the test that caught it, so that test must
    # still be defined where the table says; a moved test fails here.
    mutants = load("mutants")
    assert mutants.check_tests(mutants.MUTANTS) == []
    assert mutants.defines_test("tests/test_tools.py::test_every_recorded_test_is_defined")
    for stale in ("tests/test_tools.py::test_gone", "tests/gone.py::test_x",
                  "tests/test_tools.py", "tests/test_tools.py::load::test_x"):
        assert not mutants.defines_test(stale), stale


# 22 lines.  Code lines: 5, 8, 11, 14-17 (the string assigned to ``text``
# is no docstring), 20 and 22; the docstrings, the comment and the blanks
# hold none.
SOURCE = '''"""Module docstring,
over two lines."""
# a comment-only line

import os


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        two lines."""
        text = """not a docstring,
spanning three lines
"""
        return text  # trailing comment


def function():
    """Function docstring."""
    return os.sep
'''


def test_loc_counts_lines_and_code_lines():
    assert load("loc").count(SOURCE) == (22, 9)


def test_pairs_summary_reads_medians_quartiles_and_wins():
    # Five pairs of two metrics, one better higher and one better lower;
    # the change ties pair 3 on items_per_s and wins 3 of 5 on setup_s.
    metrics = [("items_per_s", "1/s", "higher"), ("setup_s", "s", "lower")]
    parent = [{"items_per_s": x, "setup_s": y}
              for x, y in ((100, 0.10), (90, 0.12), (110, 0.11), (95, 0.10), (105, 0.13))]
    change = [{"items_per_s": x, "setup_s": y}
              for x, y in ((101, 0.09), (89, 0.13), (110, 0.10), (96, 0.11), (120, 0.12))]
    header, items, setup = load("pairs").summary(metrics, parent, change)
    assert header.split() == ["metric", "unit", "parent", "median", "[q1,", "q3]",
                              "change", "wins"]
    assert items.split() == ["items_per_s", "1/s", "100", "[95,", "105]", "101", "3/5"]
    assert setup.split() == ["setup_s", "s", "0.11", "[0.1,", "0.12]", "0.11", "3/5"]
