"""Machine-speed calibration for the reported times.

On a shared machine the same process can run 20-40% slower from one
minute to the next, and every query class slows together.  The benchmark
therefore times a fixed pure-Python reference slice between queries and
reports each time scaled to the reference speed: a query that took ``t``
seconds while the slice took ``s`` is reported as ``t * REFERENCE_S / s``,
its duration on a machine where the slice takes ``REFERENCE_S``.  The slice
allocates no containers, so it does not move the garbage collector's
counters, and it calls nothing in proofkit, so a change to proofkit cannot
change it.  The unscaled figures are printed next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

SLICE_ITERATIONS = 40_000
REFERENCE_S = 0.005        # the slice's time on the 2-vCPU baseline machine
# seconds of measured query time between two slices
SLICE_EVERY = 0.25

_TABLE = {i: (i * 7919) & 1023 for i in range(1024)}
_LIST = list(range(512))


def slice_time():
    """Seconds taken by one reference slice."""
    d, lst = _TABLE, _LIST
    x = 0
    t0 = perf_counter()
    for i in range(SLICE_ITERATIONS):
        x = (x + d[i & 1023] * lst[i & 511]) & 0xFFFF
    return perf_counter() - t0


def normalise(latencies, intervals, slices):
    """Scale each latency by the slices that bracket it: query k ran between
    slices[intervals[k]] and slices[intervals[k] + 1]."""
    factors = [(a + b) / (2 * REFERENCE_S) for a, b in zip(slices, slices[1:])]
    return [t / factors[j] for t, j in zip(latencies, intervals)]


def speed_factor(slices):
    """How much slower than the reference the machine ran (median)."""
    xs = sorted(slices)
    return xs[len(xs) // 2] / REFERENCE_S
