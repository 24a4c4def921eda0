"""Seed-deterministic request generators for the three workloads.

Every input is drawn from the benchmark's own ``random.Random``, seeded by
the workload name and ``--seed``; nothing here imports ``kedge``, so a change
to the program cannot change the workload.  Angles follow the ample-range
inequalities of the README: beta1, beta2 > 0, beta1 < 2/n when n > 0 and
beta2 < 2/(m-n) when m > n.

Requests come in *blocks*.  A block covers every value of m, the size that
drives the cost, once, in a shuffled order: m = 0..6 for ``scan`` and
``sweep``, and the oracle's m = 0..4 for ``verify``.  Two seeds thus see the
same mix of cheap and costly requests, and the run-to-run spread comes from
the program, not from the luck of the draw.  A run measures whole blocks, as
many as ``block_count`` gives for ``--seconds``.

n is not drawn either: block b gives stratum m the surface n = (b + m) mod k,
with k = 7 strata (5 for ``verify``), so k consecutive blocks go through
every (n, m) pair once.  ``sweep`` picks the curve kind the same way, from
(b // k + m), so each (n, m) pair cycles through the kinds.  As the block
count depends only on ``--seconds``, every seed runs each (n, m) pair, and
each (n, m, kind) triple, the same number of times; the seed draws the order,
the angles and the curve's index.  The costliest requests (``volume-curve`` of an
``F{i}tilde`` at n = m = 6, say) set the tail latency, so their number must
not depend on the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("scan", "sweep", "verify")

M_MAX = 6
MAX_DENOMINATOR = 64
UNBOUNDED_ANGLE = Fraction(4)  # cap where the ample range has no upper bound
GRID_SIDE = 5  # scan grids are GRID_SIDE x GRID_SIDE points
ORACLE_M_MAX = 4  # ``verify`` draws the oracle's surface with m <= 4

# Blocks per second of ``--seconds``: the rate at which kedge ran each
# workload's blocks when the benchmark was defined (Python 3.11, ``fraction``
# backend, 2 shared vCPUs).  The block count depends on the workload and
# ``--seconds`` alone, never on how fast the program runs, so a parent and a
# change measure the same requests and the tail is the same percentile on both.
BLOCKS_PER_SECOND = {"scan": 1.6, "sweep": 7.7, "verify": 0.5}
# A traced run performs this share of the blocks, each request twice.
TRACE_SHARE = 1 / 6


def block_count(workload: str, seconds: float, traced: bool = False) -> int:
    """Whole blocks in a run of ``seconds``: 48 ``scan``, 231 ``sweep`` and
    15 ``verify`` blocks at 30 s, a sixth of that when traced."""
    blocks = seconds * BLOCKS_PER_SECOND[workload] * (TRACE_SHARE if traced else 1)
    return max(1, round(blocks))


def fmt(x: Fraction) -> str:
    """The CLI's exact ``p/q`` form."""
    return f"{x.numerator}/{x.denominator}"


def angle_bounds(n: int, m: int) -> tuple[Fraction | None, Fraction | None]:
    """Exclusive upper bounds of beta1 and beta2, or None when unbounded."""
    b1 = Fraction(2, n) if n > 0 else None
    b2 = Fraction(2, m - n) if m > n else None
    return b1, b2


def in_ample_range(n: int, m: int, beta1: Fraction, beta2: Fraction) -> bool:
    b1, b2 = angle_bounds(n, m)
    return (
        beta1 > 0
        and beta2 > 0
        and (b1 is None or beta1 < b1)
        and (b2 is None or beta2 < b2)
    )


def condition_sign(n: int, m: int, beta1: Fraction, beta2: Fraction) -> int:
    """Sign of (b1^2 - (n/3) b1^3) - (b2^2 + ((n-m)/3) b2^3), from the paper."""
    bracket = (beta1**2 - Fraction(n, 3) * beta1**3) - (
        beta2**2 + Fraction(n - m, 3) * beta2**3
    )
    return (bracket > 0) - (bracket < 0)


def _angle(rng: random.Random, bound: Fraction | None) -> Fraction:
    cap = UNBOUNDED_ANGLE if bound is None else bound
    while True:
        den = rng.randint(1, MAX_DENOMINATOR)
        value = Fraction(rng.randint(1, int(cap * den) + 1), den)
        if value < cap or (bound is None and value == cap):
            return value


def _grid(rng: random.Random, bound: Fraction | None) -> str:
    """``start:stop:step`` with GRID_SIDE points strictly inside (0, bound)."""
    cap = UNBOUNDED_ANGLE if bound is None else bound
    den = rng.randint(16, MAX_DENOMINATOR)  # cap >= 1/3, so 16ths fit 5 points
    top = -(-cap.numerator * den // cap.denominator) - 1  # largest k with k/den < cap
    step = rng.randint(1, (top - 1) // (GRID_SIDE - 1))
    start = rng.randint(1, top - (GRID_SIDE - 1) * step)
    stop = start + (GRID_SIDE - 1) * step
    return ":".join(fmt(Fraction(k, den)) for k in (start, stop, step))


def grid_values(text: str) -> list[Fraction]:
    start, stop, step = (Fraction(part) for part in text.split(":"))
    values, value = [], start
    while value <= stop:
        values.append(value)
        value += step
    return values


def _oracle_surface(seed: int) -> tuple[int, int]:
    """The (n, m) that ``verify --samples 1 --seed seed`` gives its oracle sample.

    Mirrors the draw of that suite (n, then m, each uniform in 0..4 from
    ``random.Random(seed)``); route agreement draws the same pair.  It is
    used only to stratify the seeds: if the sampler changes, the strata blur
    but every request stays a valid ``verify`` call.
    """
    rng = random.Random(seed)
    n = rng.randint(0, ORACLE_M_MAX)
    return n, rng.randint(0, ORACLE_M_MAX)


class RequestStream:
    """Endless, seed-deterministic sequence of request blocks."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self._seen: set = set()
        self._block = 0

    def blocks(self):
        while True:
            yield self.block()

    def block(self) -> list[dict]:
        strata = list(range((ORACLE_M_MAX if self.workload == "verify" else M_MAX) + 1))
        self.rng.shuffle(strata)
        b, self._block = self._block, self._block + 1
        k = len(strata)
        if self.workload == "scan":
            return [self._scan((b + m) % k, m) for m in strata]
        if self.workload == "sweep":
            return [self._sweep((b + m) % k, m, b // k + m) for m in strata]
        return [self._verify((b + m) % k, m) for m in strata]

    def _scan(self, n: int, m: int) -> dict:
        b1, b2 = angle_bounds(n, m)
        grid1, grid2 = _grid(self.rng, b1), _grid(self.rng, b2)
        argv = ["scan", "--n", str(n), "--m", str(m),
                "--beta1-grid", grid1, "--beta2-grid", grid2]
        return {"workload": "scan", "n": n, "m": m, "argv": argv}

    def _sweep(self, n: int, m: int, turn: int) -> dict:
        b1, b2 = angle_bounds(n, m)
        while True:
            beta1, beta2 = _angle(self.rng, b1), _angle(self.rng, b2)
            if (n, m, beta1, beta2) not in self._seen:
                self._seen.add((n, m, beta1, beta2))
                break
        kinds = ("C1tilde", "C2tilde", "E", "F") if m > 0 else ("C1tilde", "C2tilde")
        kind = kinds[turn % len(kinds)]
        if kind == "E":
            curve = f"E{self.rng.randint(1, m)}"
        elif kind == "F":
            curve = f"F{self.rng.randint(1, m)}tilde"
        else:
            curve = kind
        argv = ["volume-curve", "--n", str(n), "--m", str(m),
                "--beta1", fmt(beta1), "--beta2", fmt(beta2), "--curve", curve]
        return {"workload": "sweep", "n": n, "m": m, "curve": curve, "argv": argv}

    def _verify(self, n: int, m: int) -> dict:
        while True:
            seed = self.rng.randrange(2**31)
            if seed not in self._seen and _oracle_surface(seed) == (n, m):
                self._seen.add(seed)
                break
        argv = ["verify", "--suite", "all", "--samples", "1", "--seed", str(seed)]
        return {"workload": "verify", "n": n, "m": m, "seed": seed, "argv": argv}
