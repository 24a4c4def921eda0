"""One workload process: closed-loop, in-process requests through ``kedge.cli.main``.

Started by ``run.py``, one at a time.  It imports kedge from the checkout's
``src``, answers the pinned set-up request, then sends requests one after
another with a single client (the next starts only when the previous one has
returned).  Each request's exit code is read by catching ``SystemExit``.

Protocol: one JSON object per line on stdout.  ``ready`` carries the pinned
answer and the environment; ``request`` carries one request's spec, exit code,
output and duration; ``done`` carries the peak RSS and, in trace mode, the
per-layer summary.  Outputs are streamed, not kept, so the peak RSS is the
program's own.

Modes:
  probe    answer the pinned request and exit (set-up time is measured by
           the parent from spawn to the ``ready`` line);
  measure  run the first ``--blocks`` request blocks, timing the calibration
           kernel (see ``calibration.py``) between requests;
  trace    run the first ``--blocks`` blocks, each request once untraced and
           once traced, and report the spans' summary and the overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from calibration import kernel_seconds  # noqa: E402
from workloads import RequestStream  # noqa: E402

PINNED_ARGV = ["delta", "--n", "0", "--m", "2", "--beta1", "1/2", "--beta2", "1/2"]


def call(cli_module, argv: list[str]) -> dict:
    """One request; never raises, so a traceback counts as a failed request."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli_module.main(list(argv))
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # the harness boundary: record and keep serving
        code = "exception"
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}


def emit(channel, record: dict):
    channel.write(json.dumps(record) + "\n")
    channel.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--blocks", type=int, default=1, help="request blocks to run")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    channel = sys.stdout

    from kedge import cli as kedge_cli
    from kedge.ratmath import RAT_BACKEND

    pinned = call(kedge_cli, PINNED_ARGV)
    emit(channel, {
        "event": "ready",
        "pinned": dict(pinned, argv=PINNED_ARGV),
        "env": {
            "rat_backend": RAT_BACKEND,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
        },
    })
    if args.mode == "probe":
        return 0

    blocks = itertools.islice(RequestStream(args.workload, args.seed).blocks(), args.blocks)
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    busy = traced_busy = 0.0
    index = 0
    outputs = []
    kernel_before = kernel_seconds() if tracer is None else None
    for block_index, block in enumerate(blocks):
        for spec in block:
            if tracer is None:
                result = call(kedge_cli, spec["argv"])
                kernel_after = kernel_seconds()
                result["kernel_s"] = (kernel_before + kernel_after) / 2
                kernel_before = kernel_after
            else:
                # Same request untraced and traced, alternating which goes
                # first, so warm-up favours neither side of the overhead.
                tracer.request_id = index
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    if traced:
                        tracer.install()
                        try:
                            traced_result = call(kedge_cli, spec["argv"])
                        finally:
                            tracer.uninstall()
                    else:
                        result = call(kedge_cli, spec["argv"])
                traced_busy += traced_result["seconds"]
                outputs.append([traced_result["code"], traced_result["stdout"]])
                busy += result["seconds"]
            emit(channel, dict(result, event="request", index=index, block=block_index, spec=spec))
            index += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace = None
    if tracer is not None:
        if args.spans_out:
            tracer.write(args.spans_out)
        trace = dict(tracer.summary(), untraced_s=busy, traced_s=traced_busy, outputs=outputs)

    emit(channel, {"event": "done", "peak_rss_kb": peak_rss_kb, "trace": trace})
    return 0


if __name__ == "__main__":
    sys.exit(main())
