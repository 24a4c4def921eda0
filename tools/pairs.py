"""Compare two checkouts on one benchmark workload, in alternating pairs.

Each of ten pairs runs the benchmark command of ``BENCHMARK.json`` with
``--workload W --seed 0 --seconds S --trace 0`` (S its ``run_seconds``)
once in each checkout, one run at a time: the parent first on odd pairs,
the change first on even ones.  Each run's values are printed as the run
ends; then, for each end-to-end metric that the parent's
``BENCHMARK.json`` names, the parent's median and quartiles, the
change's median and the pairs the change wins (strictly better in the
metric's direction).  It changes nothing in either checkout but the
benchmark's own report files.  The exit code is 1 if any run's checks
failed.

Usage: python tools/pairs.py PARENT CHANGE --workload W
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def end_to_end(checkout: Path, workload: str) -> tuple[list, list]:
    """The benchmark command for one run of ``workload`` and the end-to-end
    metrics (name, unit, better) of one checkout's ``BENCHMARK.json``."""
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [*bench["command"], "--workload", workload, "--seed", "0",
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    return command, [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]


def run_once(checkout: Path, command: list) -> tuple[bool, dict]:
    """(checks passed, metric name -> value) of one benchmark run, read
    from the JSON on the last line of its stdout."""
    result = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = result.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{checkout}: no result (exit {result.returncode})\n{result.stderr}")
    out = json.loads(lines[-1])
    return out["correct"], {name: m["value"] for name, m in out["metrics"].items()}


def summary(metrics: list, parent: list, change: list) -> list[str]:
    """One line per metric: the parent's median [quartiles], the change's
    median and its wins, from the runs' metric dicts, pair by pair."""
    lines = [f"{'metric':<16} {'unit':<6} {'parent median [q1, q3]':>34} "
             f"{'change':>12} {'wins':>6}"]
    for name, unit, better in metrics:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        quartiles = f"{statistics.median(p):.6g} [{q1:.6g}, {q3:.6g}]"
        lines.append(f"{name:<16} {unit:<6} {quartiles:>34} "
                     f"{statistics.median(c):>12.6g} {f'{wins}/{len(p)}':>6}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    command, metrics = end_to_end(args.parent, args.workload)
    names = [name for name, _, _ in metrics]
    sides = {"parent": (args.parent, []), "change": (args.change, [])}
    correct = True
    print(f"{args.workload}: {PAIRS} alternating pairs; runs: " + " ".join(names))
    for pair in range(1, PAIRS + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            checkout, values = sides[side]
            ok, metric = run_once(checkout, command)
            correct = correct and ok
            values.append(metric)
            print(f"pair {pair:>2} {side} " + " ".join(f"{metric[n]:.6g}" for n in names)
                  + ("" if ok else "  checks FAILED"), flush=True)
    print("\n".join(summary(metrics, sides["parent"][1], sides["change"][1])))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
