"""The calibration loop: the unit in which the benchmark reports its times.

The machine this benchmark was written on is shared, and its speed wanders
by up to 60 % between 20-second windows, in phases that can outlast a whole
run.  The slow phases slow all code alike: a fixed library call timed back
to back with a pure-Python loop kept the median of their ratio within a
few percent while either one alone drifted by tens of percent.  So the
runner samples this loop every 0.1 s while the job runs and reports each
segment's time as a multiple of it (unit `ref`).

The loop is fixed work that touches no genus_spectrum code: small-int
arithmetic and dict updates in the interpreter, as in the scan and the
queries, and shifts and bitwise operations on ints of a few hundred
kilobits, as in the bitset search.  It takes about 5 ms on a 2-vCPU VM
with Python 3.11.  Change it and every `ref` figure changes with it, so a
change here is a change of the benchmark, never part of a change to the
library.
"""

from __future__ import annotations

import time

perf = time.perf_counter

DICT_STEPS = 6000
BIG_BITS = 400_000
BIG_STEPS = 60


def _work() -> int:
    table: dict[int, int] = {}
    for i in range(DICT_STEPS):
        k = (i * 2654435761) % 10007
        table[k] = table.get(k, 0) + (i & 7)
    mask = (1 << BIG_BITS) - 1
    x = (1 << (BIG_BITS - 1)) | 0x9E3779B97F4A7C15
    for s in range(1, BIG_STEPS + 1):
        x = ((x << s) | (x >> s)) & mask
        x ^= x >> 17
    return len(table) + x.bit_count()


EXPECTED = _work()


def sample() -> float:
    """Wall seconds of one pass of the calibration loop."""
    t0 = perf()
    out = _work()
    elapsed = perf() - t0
    if out != EXPECTED:
        raise RuntimeError(f"calibration loop returned {out}, expected {EXPECTED}")
    return elapsed
