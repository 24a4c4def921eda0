"""Machine-speed calibration, so timings from a shared machine can be compared.

The reference machine shares its CPUs with other tenants.  Its speed drifts
by tens of percent between minutes and dips for seconds at a time, and kedge
itself cannot cause this.  The benchmark therefore times a fixed kernel of
pure-Python ``Fraction`` arithmetic, an exact Gaussian elimination like the
ones that dominate kedge's own profile, right before and right after every
timed interval.  It reports each interval scaled to ``REFERENCE_S``, the
kernel's usual time on the reference machine:

    reported = measured * REFERENCE_S / kernel_time_around_the_interval

The kernel never touches kedge, so a faster kedge still reads faster.  Only
the machine's own speed is divided out.  On the reference machine this cut
the spread of per-10-second medians of fixed requests from about 15% to
2-5%.  Raw timings stay in the per-run report.

Between requests the kernel runs inside the workload process, next to
kedge's heap.  It is timed with the garbage collector paused, so a change
that grows kedge's live heap or retunes ``gc`` does not slow the divisor and
cancel part of its own effect.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.001  # kernel time (best of two) on the reference machine


def _kernel() -> list:
    """Gaussian elimination on a fixed 7x7 rational system."""
    k = 7
    a = [[Fraction((3 * i + 5 * j) % 11 - 5, (i + j) % 4 + 1) + (7 if i == j else 0)
          for j in range(k)] for i in range(k)]
    b = [Fraction(i + 1, 3) for i in range(k)]
    for col in range(k):
        inv = 1 / a[col][col]
        for r in range(col + 1, k):
            factor = a[r][col] * inv
            for c in range(col, k):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [Fraction(0)] * k
    for r in range(k - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, k):
            acc -= a[r][c] * x[c]
        x[r] = acc / a[r][r]
    return x


def kernel_seconds() -> float:
    """Best of two timed runs of the kernel, gc paused: the machine's current speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()
