"""Spans around calls into each kedge layer, recorded from outside the package.

``Tracer.install`` replaces every binding of each listed function in every
loaded ``kedge.*`` module namespace (``from .x import y`` copies a function
into the importing module, and ``verify.SUITES`` holds the suites in a dict),
and patches ``SurfaceModel`` methods on the class.  Each call then records a
span: name, start, end, parent span and request id.  Spans are kept in flat
arrays in memory and written out once, at the end of the run.

A layer's self time is the sum over its spans of the span's duration minus
the durations of its direct children (calls are nested and single-threaded,
so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

# Public entry points of each layer.  Names a later version of the package no
# longer defines are skipped and listed as missing, so the benchmark keeps
# running across refactors.
LAYERS = {
    "cli": ["main"],
    "verdict": ["k_polystable", "condition_sign", "delta_upper_bound", "rational_condition_point"],
    "tvariety": [
        "delta_tvariety", "futaki_vanishes", "legendre_dual", "integrate_product",
        "anticanonical_support_function", "vol_psi", "barycenter", "bc_p",
        "pl_min_of_lines", "build_fdivisor",
    ],
    "volumes": [
        "volume_curve", "volume_sweep", "expected_vanishing_order", "log_discrepancy",
        "threshold", "normalize_pieces",
    ],
    "zariski": ["zariski_decompose", "zariski_decompose_bruteforce", "is_negative_definite", "volume"],
    "linalg": ["solve_exact", "det_exact", "is_positive_definite", "is_negative_definite_matrix", "signature"],
    "picard": ["SurfaceModel.intersect", "SurfaceModel.class_of", "parse_curve_id"],
    "ratmath": ["parse_rat", "format_rat", "sqrt_exact"],
    "closedforms": [
        "closed_form_S", "closed_form_volume_curve", "classify_exceptional_case",
        "total_volume", "angle_bracket",
    ],
    "sampling": ["sample_surface", "sample_angles", "sample_case_input", "sample_divisor_class"],
    "verify": ["verify_lemmas", "verify_zariski_oracle", "verify_route_agreement", "verify_halving"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.raised: dict[int, str] = {}  # span index -> exception type name
        self.missing: list[str] = []
        self.request_id = -1
        self._stack: list[int] = []
        self._plan: list[tuple] | None = None

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, raised = self.span_start, self.span_end, self.raised
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[index] = type(exc).__name__
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Point every binding of a listed function at its span-recording wrapper."""
        if self._plan is None:
            self._plan = self._bindings()
        for target, key, _original, wrapper in self._plan:
            _assign(target, key, wrapper)

    def uninstall(self):
        for target, key, original, _wrapper in reversed(self._plan or []):
            _assign(target, key, original)

    def _bindings(self) -> list[tuple]:
        """(namespace, key, original, wrapper) for every binding to replace."""
        plan, wrappers = [], {}  # wrappers: id(original) -> (original, wrapper)
        for layer, entries in LAYERS.items():
            module = importlib.import_module(f"kedge.{layer}")
            for entry in entries:
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = None if owner is None else vars(owner).get(attr)
                if not inspect.isfunction(fn):
                    self.missing.append(f"{layer}.{entry}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                if owner_name:
                    plan.append((owner, attr, fn, wrapper))
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kedge" and not mod_name.startswith("kedge."):
                continue
            for attr, value in list(vars(module).items()):
                namespaces = [(module, attr, value)]
                if isinstance(value, dict):
                    namespaces = [(value, key, item) for key, item in value.items()]
                for target, key, item in namespaces:
                    hit = wrappers.get(id(item))
                    if hit is not None and hit[0] is item:
                        plan.append((target, key, item, hit[1]))
        return plan

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per function, raised exceptions."""
        count = len(self.span_start)
        children = [0.0] * count
        duration = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                children[parent] += duration[i]
        functions: dict = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "raised": {}})
        for i in range(count):
            entry = functions[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["inclusive_s"] += duration[i]
            entry["self_s"] += duration[i] - children[i]
        for i, exc_name in self.raised.items():
            raised = functions[self.names[self.span_name[i]]]["raised"]
            raised[exc_name] = raised.get(exc_name, 0) + 1
        return {"spans": count, "functions": dict(functions), "missing": list(self.missing)}

    def write(self, path):
        """Dump every span as columns: name, parent, request, start, end, raised."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "request": self.span_request.tolist(),
                    "start": self.span_start.tolist(),
                    "end": self.span_end.tolist(),
                    "raised": {str(i): name for i, name in self.raised.items()},
                },
                fh,
            )


def _assign(target, key, value):
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)
