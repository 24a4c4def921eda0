#!/usr/bin/env python3
"""kedge benchmark runner: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload {scan,sweep,verify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a kedge checkout; the package is imported from its
``src``.  The runner starts one fresh workload process at a time
(``child.py``), each single-threaded, and never runs two at once.

--trace 0: set-up probes (fresh processes answering one pinned request),
    then one measuring process running the request blocks that --seconds
    stands for (``workloads.block_count``), then more set-up probes.  Prints
    every end-to-end metric.  Timings are scaled to reference machine speed
    (calibration.py).
--trace 1: one process runs a sixth of those blocks, each request once
    untraced and once traced.  Prints every per-layer metric, the tracing
    overhead among them.

The blocks depend only on the workload, the seed and --seconds, so call
counts repeat exactly and a faster program runs the same requests.  Every
output is checked (see ``checks.py``); for the default seed the outputs of
the first block are also compared against pinned digests.  The last line of
stdout is the JSON result; a per-run report with the environment is written
under ``.perfbench-out/``.  The exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
PINNED_DIGESTS = HERE / "pinned.json"
DEFAULT_SEED = 0
SETUP_SPAWNS = 4  # before the measuring process, and as many after it
CHILD_TIMEOUT_S = 150  # about four times the measuring process at --seconds 30
PROBE_TIMEOUT_S = 60
LAYER_NAMES = ("cli", "verdict", "tvariety", "volumes", "zariski", "linalg",
               "picard", "ratmath", "closedforms", "sampling")
SUITE_FUNCTIONS = {
    "lemmas": "verify.verify_lemmas",
    "zariski-oracle": "verify.verify_zariski_oracle",
    "route-agreement": "verify.verify_route_agreement",
    "halving": "verify.verify_halving",
}
CALL_METRICS = (
    "verdict.k_polystable", "tvariety.delta_tvariety", "tvariety.legendre_dual",
    "tvariety.integrate_product", "volumes.volume_curve", "volumes.volume_sweep",
    "zariski.zariski_decompose", "zariski.zariski_decompose_bruteforce",
    "zariski.is_negative_definite", "linalg.solve_exact", "picard.intersect",
    "picard.class_of", "ratmath.parse_rat", "ratmath.format_rat",
)

sys.path.insert(0, str(HERE))
from calibration import REFERENCE_S, kernel_seconds  # noqa: E402
from workloads import WORKLOADS, block_count  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    """The user's environment minus anything that redirects or re-types output."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("KEDGE_OUTPUT_DIR", "KEDGE_RATIONAL_BACKEND")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def commit_id() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def spawn(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc: subprocess.Popen, timeout: float) -> tuple[str, str]:
    """Collect a child's output; kill and reap it on timeout."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"workload process exceeded {timeout} s")
    if proc.returncode != 0:
        raise HarnessError(f"workload process exited {proc.returncode}: {err.strip()[-2000:]}")
    return out, err


def probe(workload: str, seed: int) -> tuple[float, float, dict]:
    """Seconds from spawning a fresh process to its answer to the pinned request,
    and the calibration kernel's time around that interval."""
    kernel_before = kernel_seconds()
    start = time.perf_counter()
    proc = spawn(["--workload", workload, "--seed", str(seed), "--mode", "probe"])
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        finish(proc, PROBE_TIMEOUT_S)
    if not first:
        raise HarnessError("set-up probe gave no answer")
    return elapsed, (kernel_before + kernel_seconds()) / 2, json.loads(first)


def run_child(args: list[str]) -> list[dict]:
    out, _ = finish(spawn(args), CHILD_TIMEOUT_S)
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    if not records or records[0].get("event") != "ready" or records[-1].get("event") != "done":
        raise HarnessError("workload process ended without a complete report")
    return records


def check_env(ready: dict) -> dict:
    env = dict(ready["env"], commit=commit_id())
    if env["rat_backend"] != "fraction":
        raise HarnessError(
            f"rational backend is {env['rat_backend']!r}; results are only comparable "
            "on the 'fraction' backend, refusing to produce one"
        )
    return env


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its label."""
    ordered = sorted(samples)
    count = len(ordered)
    if count < 11:
        return ordered[-1], f"max of {count} (fewer than 11 samples)"
    percentile = 100.0 * (count - 10) / count
    return ordered[count - 11], f"p{percentile:.1f} (10 of {count} requests beyond)"


class Tally:
    """Pass/fail bookkeeping over every checked request."""

    def __init__(self, workload: str, seed: int):
        import checks

        self.checks = checks
        self.check = checks.CHECKS[workload]
        self.pinned = None
        if seed == DEFAULT_SEED and PINNED_DIGESTS.is_file():
            self.pinned = json.loads(PINNED_DIGESTS.read_text())[workload]
        self.attempted = self.failed = self.items = 0
        self.reasons: list[str] = []

    def record(self, passed: bool, reason: str | None, what: str):
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{what}: {reason}")

    def pinned_answer(self, ready: dict):
        passed, _, reason = self.checks.check_pinned(ready["pinned"])
        self.record(passed, reason, "pinned set-up request")

    def request(self, record: dict, traced_output=None):
        passed, items, reason = self.check(record["spec"], record)
        index = record["index"]
        if passed and traced_output not in (None, [record["code"], record["stdout"]]):
            passed, reason = False, "traced output differs from untraced output"
        if passed and self.pinned is not None and index < len(self.pinned):
            if self.checks.digest(record["spec"]["argv"], record) != self.pinned[index]:
                passed, reason = False, "output differs from the pinned digest"
        if not passed:
            items = 0
        self.items += items
        self.record(passed, reason, f"request {index} {' '.join(record['spec']['argv'])}")
        return items


def probes(workload: str, seed: int, tally: Tally, setup: list, raw: list) -> dict:
    for _ in range(SETUP_SPAWNS):
        elapsed, kernel_s, ready = probe(workload, seed)
        setup.append(elapsed * REFERENCE_S / kernel_s)
        raw.append(elapsed)
        tally.pinned_answer(ready)
    return check_env(ready)


def measure(workload: str, seed: int, tally: Tally, blocks: int):
    # Set-up is sampled before and after the measuring process, so a few
    # seconds of machine slowdown cannot hit every sample.
    setup, raw_setup = [], []
    probe(workload, seed)  # unmeasured: lets the checkout's bytecode cache fill
    env = probes(workload, seed, tally, setup, raw_setup)
    records = run_child(["--workload", workload, "--seed", str(seed),
                         "--mode", "measure", "--blocks", str(blocks)])
    probes(workload, seed, tally, setup, raw_setup)
    tally.pinned_answer(records[0])
    requests = [r for r in records if r["event"] == "request"]
    block_items, block_seconds = {}, {}
    durations = []  # scaled to the reference machine speed, see calibration.py
    for record in requests:
        items = tally.request(record)
        seconds = record["seconds"] * REFERENCE_S / record["kernel_s"]
        durations.append(seconds)
        block_items[record["block"]] = block_items.get(record["block"], 0) + items
        block_seconds[record["block"]] = block_seconds.get(record["block"], 0.0) + seconds
    # Each block holds the same mix of strata, so block throughputs are alike
    # and their median shrugs off a slowdown of the machine during a few blocks.
    throughput = [block_items[b] / block_seconds[b] for b in block_items]
    raw = [r["seconds"] for r in requests]
    busy = sum(raw)
    tail_value, tail_label = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (statistics.median(throughput), "1/s"),
        "request_p50_ms": (statistics.median(durations) * 1000.0, "ms"),
        "request_tail_ms": (tail_value * 1000.0, "ms"),
        "peak_rss_mb": (records[-1]["peak_rss_kb"] / 1024.0, "MB"),
        "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "items_per_s": (f"median of {len(throughput)} blocks; {tally.items} items in "
                        f"{busy:.3f} s of requests (unscaled), {len(requests)} requests"),
        "request_p50_ms": f"median of {len(requests)} requests",
        "request_tail_ms": tail_label,
        "peak_rss_mb": "max RSS of the measuring process",
        "success_ratio": f"failed_ratio = {tally.failed}/{tally.attempted}",
    }
    kernel = [r["kernel_s"] for r in requests]
    details = {
        "setup_samples_s": setup, "requests": len(requests), "tail": tail_label,
        "raw": {  # unscaled wall-clock figures
            "setup_s": statistics.median(raw_setup),
            "items_per_s": tally.items / busy,
            "request_p50_ms": statistics.median(raw) * 1000.0,
            "request_tail_ms": tail(raw)[0] * 1000.0,
            "busy_s": busy,
        },
        "kernel_ms": {"median": statistics.median(kernel) * 1000.0,
                      "min": min(kernel) * 1000.0, "max": max(kernel) * 1000.0},
    }
    return metrics, notes, env, details


def trace(workload: str, seed: int, tally: Tally, spans_out: Path, blocks: int):
    records = run_child(["--workload", workload, "--seed", str(seed), "--mode", "trace",
                         "--blocks", str(blocks), "--spans-out", str(spans_out)])
    env = check_env(records[0])
    tally.pinned_answer(records[0])
    requests = [r for r in records if r["event"] == "request"]
    summary = records[-1]["trace"]
    bits = points = outside = 0
    for record, traced_output in zip(requests, summary["outputs"]):
        tally.request(record, traced_output)
        bits = max(bits, tally.checks.max_output_bits(record["stdout"]))
        if workload == "scan":
            grid_outside, grid_points = tally.checks.grid_points(record["spec"])
            outside += grid_outside
            points += grid_points
    functions = summary["functions"]

    def calls(name):
        return functions.get(name, {}).get("calls", 0)

    metrics = {}
    for layer in LAYER_NAMES:
        entries = [v for k, v in functions.items() if k.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = (sum(e["calls"] for e in entries), "count")
        metrics[f"{layer}.self_s"] = (sum(e["self_s"] for e in entries), "s")
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = (calls(name), "count")
    solves = functions.get("linalg.solve_exact", {})
    singular = solves.get("raised", {}).get("SingularMatrixError", 0)
    metrics["linalg.solve_exact.singular_ratio"] = (singular / solves["calls"] if solves else 0.0, "ratio")
    metrics["ratmath.max_output_bits"] = (bits, "bits")
    for suite, fn in SUITE_FUNCTIONS.items():
        metrics[f"verify.{suite}.s"] = (functions.get(fn, {}).get("inclusive_s", 0.0), "s")
    metrics["scan.outside_share"] = (outside / points if points else 0.0, "ratio")
    metrics["trace.requests"] = (len(requests), "count")
    metrics["trace.spans"] = (summary["spans"], "count")
    metrics["trace.untraced_s"] = (summary["untraced_s"], "s")
    metrics["trace.traced_s"] = (summary["traced_s"], "s")
    metrics["trace.overhead"] = (summary["traced_s"] / summary["untraced_s"] - 1.0, "ratio")
    notes = {"trace.overhead": "traced / untraced request time - 1, same requests",
             "linalg.solve_exact.singular_ratio": f"{singular} singular of {solves.get('calls', 0)} solves"}
    details = {"requests": len(requests), "blocks": blocks, "missing": summary["missing"],
               "spans_file": str(spans_out.relative_to(ROOT)), "functions": functions}
    return metrics, notes, env, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kedge" / "cli.py").is_file():
        print(f"error: no kedge sources under {ROOT / 'src'}; run from a kedge checkout",
              file=sys.stderr)
        return 2
    for name in ("KEDGE_OUTPUT_DIR", "KEDGE_RATIONAL_BACKEND"):
        os.environ.pop(name, None)  # the checks import kedge in this process too
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    tally = Tally(args.workload, args.seed)
    blocks = block_count(args.workload, args.seconds, traced=bool(args.trace))
    try:
        if args.trace:
            metrics, notes, env, details = trace(
                args.workload, args.seed, tally, OUT_DIR / f"{stem}.spans.json", blocks)
        else:
            metrics, notes, env, details = measure(args.workload, args.seed, tally, blocks)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = tally.failed == 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes, "details": details,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"kedge benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:<44} {value:>14.6g} {unit:<6}" + (f"  {note}" if note else ""))
    status = "yes" if correct else "NO"
    print(f"correct: {status} ({tally.failed} of {tally.attempted} checked requests failed)")
    for reason in tally.reasons:
        print(f"  failure: {reason}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
