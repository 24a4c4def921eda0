"""Run tier-1 in-process under a line trace of ``src/kedge`` and print every
refusal that it never reaches.

A refusal is a ``raise`` statement, or a call of the CLI's ``_user_error``
(which exits with code 1).  The trace is ``sys.settrace``, restricted to
the code objects of ``src/kedge`` that hold a refusal not yet reached, so
every other line runs untraced.  Tests that start a separate process are
not traced.  Every refusal is expected to be reached: the tool exits 1
when one is not, and 2 when tier-1 fails.  It is not part of tier-1, and
takes about twice tier-1's time.

Usage: python tools/reach.py
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kedge"


def refusals(path: Path) -> dict[int, str]:
    """First line -> text of every refusal of one module, each of its
    lines stripped and joined by one blank."""
    source = path.read_text(encoding="utf-8")
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_user_error"
        ):
            text = ast.get_source_segment(source, node)
            found[node.lineno] = " ".join(line.strip() for line in text.splitlines())
    return found


def trace_tier1(pending: dict[str, set[int]]) -> int:
    """Run tier-1 in this process, removing from ``pending`` (file name ->
    refusal lines) every line that runs; pytest's exit code."""
    wanted = {}  # code object -> its pending refusal lines

    def local(frame, event, arg):
        if event == "line":
            lines = wanted[frame.f_code]
            if frame.f_lineno in lines:
                lines.discard(frame.f_lineno)
                pending[frame.f_code.co_filename].discard(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        lines = wanted.get(code)
        if lines is None:
            in_file = pending.get(code.co_filename, set())
            lines = wanted[code] = {line for _, _, line in code.co_lines()} & in_file
        return local if lines else None

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(call)
    sys.settrace(call)
    try:
        return pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)


def main() -> int:
    table = {str(path): refusals(path) for path in sorted(SRC.glob("*.py"))}
    pending = {path: set(lines) for path, lines in table.items()}
    code = trace_tier1(pending)
    if code != 0:
        print(f"tier-1 failed (pytest exit {code}); no reach is reported", file=sys.stderr)
        return 2
    total = sum(map(len, table.values()))
    unreached = sorted((path, line) for path, lines in pending.items() for line in lines)
    print(f"\n{total} refusals in src/kedge, {total - len(unreached)} reached by tier-1"
          + ("; unreached:" if unreached else ""))
    for path, line in unreached:
        print(f"  {Path(path).name}:{line}  {table[path][line]}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
