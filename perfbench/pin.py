#!/usr/bin/env python3
"""Rewrite ``pinned.json``: digests of the first block's outputs for the default seed.

    python3 perfbench/pin.py

``run.py`` compares every run on the default seed against these digests.
kedge's outputs are meant to stay byte-identical, so rerun this only when a
change alters the outputs on purpose, and say so where the change is
described.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import digest  # noqa: E402
from child import call  # noqa: E402  (also puts the checkout's src on sys.path)
from run import DEFAULT_SEED, PINNED_DIGESTS  # noqa: E402
from workloads import WORKLOADS, RequestStream  # noqa: E402


def main() -> int:
    os.environ.pop("KEDGE_RATIONAL_BACKEND", None)
    from kedge import cli as kedge_cli

    pinned = {}
    for workload in WORKLOADS:
        block = RequestStream(workload, DEFAULT_SEED).block()
        pinned[workload] = [digest(spec["argv"], call(kedge_cli, spec["argv"])) for spec in block]
    PINNED_DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {PINNED_DIGESTS.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
