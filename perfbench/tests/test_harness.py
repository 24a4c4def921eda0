"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/tests

Checks that every metric named in BENCHMARK.json is printed with its unit,
that two traced runs of a seed give identical call counts (counts are gated
exactly, timings are not), that the workloads keep the layers apart, that a
wrong output is counted as a failure and fails the run, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from child import call  # noqa: E402  (puts the checkout's src on sys.path)
from workloads import WORKLOADS, RequestStream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.01"]  # one block


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    return last


def assert_metrics(proc, last, declared):
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in last["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert any(name in line and metric["unit"] in line for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = bench("--workload", workload, "--seed", "1", "--trace", "0", *TINY)
    last = result(proc)
    assert_metrics(proc, last, SPEC["end_to_end"])
    assert all(last["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert "correct: yes" in proc.stdout and "rat_backend=fraction" in proc.stdout


def traced_counts(workload: str, seed: int) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--trace", "1", *TINY)
    last = result(proc)
    assert_metrics(proc, last, SPEC["per_layer"])
    return {k: v["value"] for k, v in last["metrics"].items() if v["unit"] == "count"}


@pytest.mark.parametrize("workload", ["scan", "sweep"])
def test_traced_counts_repeat_and_layers_separate(workload):
    first = traced_counts(workload, 2)
    assert first == traced_counts(workload, 2)
    assert first["cli.calls"] == first["trace.requests"] > 0
    if workload == "scan":
        silent = ("zariski", "linalg", "volumes")
        assert first["tvariety.legendre_dual.calls"] == 2 * first["verdict.k_polystable.calls"]
    else:
        silent = ("zariski", "tvariety")
        assert first["volumes.volume_sweep.calls"] == 2 * first["trace.requests"]
    assert all(v == 0 for k, v in first.items() if k.split(".")[0] in silent)


def test_verify_trace_reaches_the_oracle():
    counts = traced_counts("verify", 3)
    assert counts["zariski.zariski_decompose_bruteforce.calls"] == counts["trace.requests"]
    assert counts["linalg.solve_exact.calls"] > 0


@pytest.fixture(scope="module")
def kedge_cli():
    from kedge import cli

    return cli


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_output_counts_as_failure(workload, kedge_cli):
    spec = RequestStream(workload, 4).block()[0]
    good = call(kedge_cli, spec["argv"])
    assert checks.CHECKS[workload](spec, good)[0]
    if workload == "scan":
        rows = good["stdout"].splitlines()
        cells = rows[1].split(",")
        cells[3] = "2/1"
        bad_stdout = "\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n"
    else:
        report = json.loads(good["stdout"])
        if workload == "sweep":
            report["S"] = "0/1" if report["S"] != "0/1" else "1/1"
        else:
            report["ok"] = False
        bad_stdout = json.dumps(report)
    passed, items, reason = checks.CHECKS[workload](spec, dict(good, stdout=bad_stdout))
    assert not passed and items == 0 and reason


def test_failed_check_fails_the_run(monkeypatch, capsys):
    monkeypatch.setitem(checks.CHECKS, "sweep", lambda spec, record: (False, 0, "planted"))
    assert run.main(["--workload", "sweep", "--seed", "1", "--trace", "0", *TINY]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == len(RequestStream("sweep", 1).block())


def test_pinned_digest_mismatch_counts_as_failure(kedge_cli):
    spec = RequestStream("sweep", run.DEFAULT_SEED).block()[0]
    record = dict(call(kedge_cli, spec["argv"]), spec=spec, index=0, block=0)
    tally = run.Tally("sweep", run.DEFAULT_SEED)
    tally.request(record)
    assert tally.failed == 0
    tally.pinned = ["0" * 64]
    tally.request(record)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
