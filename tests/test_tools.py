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
