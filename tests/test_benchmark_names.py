"""The names of ``kedge`` that the benchmark under ``perfbench/`` binds to
still exist and behave as it reads them, so a refactor that drops one fails
here rather than only in a benchmark run.

The benchmark's files are parsed with ``ast``, never imported: every
``from kedge... import ...`` name must resolve, every ``SUITE_FUNCTIONS``
target of ``run.py`` must be the function ``verify.SUITES`` runs under that
suite's name, the attributes ``child.py``'s ``call`` reads off the CLI
module must exist, and the term that ``checks.py``'s ``_torus_term`` reads
``A`` and ``S`` from must carry every attribute it reads.  The names in
``tracer.py``'s ``LAYERS`` that ``src/kedge`` no longer defines, which the
tracer skips and lists as missing, must be exactly ``STALE``, so a refactor
that strands one more traced name fails here.
"""

import ast
import importlib
import inspect
from pathlib import Path

from conftest import rat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# layer.name: the traced names that src/kedge does not define.
STALE = {
    "verdict.delta_upper_bound",
    "tvariety.futaki_vanishes", "tvariety.integrate_product",
    "tvariety.anticanonical_support_function", "tvariety.vol_psi", "tvariety.barycenter",
    "tvariety.bc_p", "tvariety.pl_min_of_lines", "tvariety.build_fdivisor",
    "volumes.threshold", "volumes.normalize_pieces",
    "zariski.volume",
    "linalg.solve_exact", "linalg.det_exact", "linalg.is_positive_definite",
    "linalg.is_negative_definite_matrix", "linalg.signature",
    "ratmath.sqrt_exact",
    "closedforms.total_volume", "closedforms.angle_bracket",
}


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _assigned(name: str, target: str):
    """The literal value the module-level assignment to ``target`` in the
    benchmark's file ``name`` holds."""
    (assign,) = [node for node in _tree(name).body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == target for t in node.targets)]
    return ast.literal_eval(assign.value)


def _resolve(dotted: str):
    """The object ``kedge.<dotted>`` names: a module, or an attribute path
    below one."""
    module, _, rest = dotted.partition(".")
    obj = importlib.import_module(f"kedge.{module}")
    for part in rest.split(".") if rest else ():
        obj = getattr(obj, part)
    return obj


def _attributes_read(node: ast.AST, name: str) -> set:
    """Every ``name.attr`` read inside ``node``."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
            and sub.value.id == name}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    (found,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name]
    return found


def test_every_imported_kedge_name_resolves():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kedge":
                for alias in node.names:
                    imported.append((path.name, node.module, alias.name))
    # checks.py, child.py and pin.py import from kedge.
    assert {file for file, _, _ in imported} >= {"checks.py", "child.py", "pin.py"}
    for _, module, name in imported:
        if not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or it fails


def test_suite_functions_are_the_registered_suites():
    from kedge.verify import SUITES

    suite_functions = _assigned("run.py", "SUITE_FUNCTIONS")
    assert set(suite_functions) == set(SUITES)
    for suite, target in suite_functions.items():
        assert _resolve(target) is SUITES[suite], (suite, target)


def test_child_reads_only_what_the_cli_module_defines():
    call = _function(_tree("child.py"), "call")
    cli_param = call.args.args[0].arg
    read = _attributes_read(call, cli_param)
    assert read == {"main"}
    cli = _resolve("cli")
    assert all(callable(getattr(cli, attr)) for attr in read)


def test_torus_term_exposes_what_the_sweep_check_reads():
    from kedge.picard import Angles, SurfaceParams
    from kedge.tvariety import delta_tvariety

    torus_term = _function(_tree("checks.py"), "_torus_term")
    assert _attributes_read(torus_term, "report") == {"term"}
    term_reads = _attributes_read(torus_term, "term")
    assert term_reads == {"A", "S"}
    report = delta_tvariety(SurfaceParams(0, 2), Angles(rat(1, 2), rat(1, 2)))
    for curve in ("C1tilde", "E1", "F2tilde", "GenericFiber"):
        term = report.term(curve)
        assert all(hasattr(term, attr) for attr in term_reads), curve


def test_stale_traced_names_are_the_listed_ones():
    # The tracer's rule: ``layer.name`` or ``layer.Class.name`` is traced
    # when ``vars`` of the module or class holds a function by that name.
    stale = set()
    for layer, entries in _assigned("tracer.py", "LAYERS").items():
        module = importlib.import_module(f"kedge.{layer}")
        for entry in entries:
            owner_name, _, attr = entry.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not inspect.isfunction(vars(owner).get(attr)):
                stale.add(f"{layer}.{entry}")
    assert sorted(stale - STALE) == [], "a traced name is no longer defined"
    assert sorted(STALE - stale) == [], "a listed stale name is defined again"
