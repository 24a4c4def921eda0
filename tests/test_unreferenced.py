"""No function that nothing calls, no class that nothing uses and no
constant that nothing reads: every module-level function, every
module-level class, every method and every module-level assignment in
``src/kedge`` is read somewhere in ``src/kedge``.

A reference is a read (not an assignment) of the definition's name outside
the definition's own body: a ``Name`` or an ``Attribute`` node for a
function, a class or a constant, and only an ``Attribute`` node
(``x.name``) for a method, so a local variable that shares a method's name
does not keep the method, nor does a method that calls itself.  A record or
an exception that nothing in ``src/kedge`` constructs, raises, subclasses,
catches or reads outside its own body is flagged.  Imports do not count, so
a name that only ``__init__`` re-exports is not referenced.  Dunder methods
are called by the language and dunder names are read by it; the allow-list
holds documented library entry points that the package itself does not call
and the names that only the benchmark reads.

No record keeps a field that nothing reads: every annotated field of a
``NamedTuple`` and every name a class's ``__slots__`` lists (less
``__weakref__``) in ``src/kedge`` is read as an attribute (``x.field``)
somewhere in ``src/kedge``.  The check goes by name, so a
field is kept by a read of any attribute of that name, on whatever object:
a second record's ``name`` field would pass here on the reads of
``Orbit.name`` alone, and such a field is found by hand.
``RECORDS_ALLOWED`` holds the records that are written out whole (through
``_asdict()``), so none of their fields is read by name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kedge"

# module.qualname: documented entry points, read by the tests as references.
ALLOWED = {
    "verdict.rational_condition_point",
    "ratmath.RAT_BACKEND",
    "picard.SurfaceParams",
}

# module.Class: records written out whole, field by field, through ``_asdict()``.
RECORDS_ALLOWED = {"verify.SuiteResult"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(module: str, tree: ast.Module):
    """(module.qualname, name, node, whether a method) of each module-level
    function, class, method and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, ast.ClassDef):
            yield f"{module}.{node.name}", node.name, node, False
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _is_dunder(item.name):
                        yield f"{module}.{node.name}.{item.name}", item.name, item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield f"{module}.{name.id}", name.id, node, False


def _reads(tree: ast.Module):
    """(node, name, whether an attribute) of every name read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node, node.id, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node, node.attr, True


def _unreferenced(trees) -> set:
    reads = {}
    for tree in trees.values():
        for node, name, attribute in _reads(tree):
            reads.setdefault(name, []).append((node, attribute))
    unreferenced = set()
    for module, tree in trees.items():
        for qual, name, node, method in _definitions(module, tree):
            own = {id(inner) for inner in ast.walk(node)}
            if not any(id(read) not in own and (attribute or not method)
                       for read, attribute in reads.get(name, ())):
                unreferenced.add(qual)
    return unreferenced


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _fields(node: ast.ClassDef):
    """The fields of a class: the annotated fields of a ``NamedTuple``
    subclass, and the names its ``__slots__`` lists, less ``__weakref__``."""
    bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
    named_tuple = "NamedTuple" in bases
    for item in node.body:
        if named_tuple and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id
        elif isinstance(item, ast.Assign) and getattr(item.targets[0], "id", None) == "__slots__":
            yield from (e.value for e in item.value.elts if e.value != "__weakref__")


def _unread_fields(trees) -> set:
    """module.Class.field of every record field that no ``x.field`` read
    names."""
    attributes = {name for tree in trees.values()
                  for _, name, attribute in _reads(tree) if attribute}
    return {f"{module}.{node.name}.{field}"
            for module, tree in trees.items()
            for node in tree.body if isinstance(node, ast.ClassDef)
            for field in _fields(node) if field not in attributes}


def test_every_function_is_referenced_in_src():
    trees = _trees()
    unreferenced = _unreferenced(trees)
    assert sorted(unreferenced - ALLOWED) == []
    # The allow-list names only what exists and is otherwise unreferenced.
    assert ALLOWED <= unreferenced


def test_every_record_field_is_read_in_src():
    unread = _unread_fields(_trees())
    records = {field.rpartition(".")[0] for field in unread}
    assert sorted(field for field in unread
                  if field.rpartition(".")[0] not in RECORDS_ALLOWED) == []
    # The allow-list names only records that exist and have an unread field.
    assert RECORDS_ALLOWED <= records
