"""The repository tools' tables stay in step with ``src/kedge``."""

import importlib.util
from pathlib import Path

MUTANTS = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_every_mutant_anchor_occurs_once():
    # Each mutant's old text must occur exactly once in its module, so a
    # change that moves one fails here; no mutant runs.
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.check_table(mutants.MUTANTS) == []
