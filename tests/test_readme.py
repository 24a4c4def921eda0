"""The README's examples run and print what the README shows: the Python
block of *Quick start* and the ``kedge delta`` command with its JSON.  The
root package exports exactly the names that block imports from it."""

import ast
import json
import shlex
from pathlib import Path

import pytest

import kedge
from kedge.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
QUICK_START = README[README.index("## Quick start"):README.index("## Curve names")]


def fenced_blocks(text: str, lang: str) -> list[str]:
    """The bodies of the ``lang`` fenced blocks in ``text``, in order."""
    parts = text.split(f"```{lang}\n")[1:]
    return [part[:part.index("```")] for part in parts]


def shown(comment: str):
    """The value a comment shows: a Python literal, possibly followed by
    ``, <words>`` (``1, exactly``)."""
    try:
        return ast.literal_eval(comment)
    except ValueError:
        return ast.literal_eval(comment.split(",")[0])


def test_python_example_prints_its_comments():
    (block,) = fenced_blocks(QUICK_START, "python")
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        expression, hash_, comment = line.partition("#")
        if hash_:
            assert eval(expression, namespace) == shown(comment.strip()), line
            checked.append(expression.strip())
    assert checked == ["verdict.status", "verdict.delta", "verdict.witnesses"]


def test_delta_example_prints_its_json(capsys):
    command = next(line for block in fenced_blocks(QUICK_START, "sh")
                   for line in block.splitlines() if line.startswith("kedge delta"))
    assert command == "kedge delta --n 0 --m 2 --beta1 1/2 --beta2 1/2"
    (report,) = fenced_blocks(QUICK_START, "json")
    expected = json.loads(report)
    del expected["..."]  # the elided per_divisor table
    with pytest.raises(SystemExit) as exit_:
        main(shlex.split(command)[1:])
    assert exit_.value.code == 0
    out = json.loads(capsys.readouterr().out)
    assert {key: out[key] for key in expected} == expected
    assert list(out["per_divisor"]) == [
        "C1tilde", "C2tilde", "E1", "E2", "F1tilde", "F2tilde", "FiberP0", "GenericFiber",
    ]


def test_root_exports_only_the_quick_start_names():
    (block,) = fenced_blocks(QUICK_START, "python")
    (imported,) = [node for node in ast.parse(block).body
                   if isinstance(node, ast.ImportFrom) and node.module == "kedge"]
    names = [alias.name for alias in imported.names]
    assert names == ["Angles", "SurfaceModel", "k_polystable"]
    assert kedge.__all__ == [*names, "__version__"]
    namespace = {}
    exec("from kedge import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted([*names, "__version__"])
