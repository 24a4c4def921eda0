"""No function that nothing calls: every module-level function and every
method in ``src/kedge`` is named somewhere in ``src/kedge``.

A reference is a ``Name`` or an ``Attribute`` node with the function's name;
imports do not count, so a name that only ``__init__`` re-exports is not
referenced.  Dunder methods are called by the language and click commands
by click; the allow-list holds documented library entry points that the
package itself does not call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kedge"

# module.qualname: documented entry points, read by the tests as references.
ALLOWED = {
    "tvariety.futaki_vanishes",
    "verdict.rational_condition_point",
    "zariski.volume",
    "linalg.signature",
}


def _is_click_command(fn):
    return any(
        isinstance(d, ast.Call) and ast.unparse(d.func) in ("cli.command", "click.group")
        for d in fn.decorator_list
    )


def _definitions(module: str, tree: ast.Module):
    """(module.qualname, name) of each module-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_click_command(node):
                yield f"{module}.{node.name}", node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_function_is_referenced_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    defined = [d for module, tree in trees.items() for d in _definitions(module, tree)]
    unreferenced = [qual for qual, name in defined
                    if name not in referenced and qual not in ALLOWED]
    assert unreferenced == []
    # The allow-list names only what exists and is otherwise unreferenced.
    assert ALLOWED <= {qual for qual, name in defined if name not in referenced}
