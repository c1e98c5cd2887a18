"""Reads the machine's current speed off a fixed reference kernel.

The benchmark runs on shared machines whose speed can swing by a factor of
two within seconds, with nothing of the benchmark's own changing. Timing one
fixed kernel next to every op and scaling the op's time by

    NOMINAL_S / (median kernel time around the op)

cancels most of that swing: both slow down together. Calibrated times are
in seconds of a machine on which the kernel takes ``NOMINAL_S``; raw times
are printed beside them.

The kernel is exact Gaussian elimination over :class:`fractions.Fraction`,
the arithmetic vsparse spends its time in, written with the standard
library alone: no change to the program can make it faster or slower.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About the kernel time on an idle 2-vCPU Intel Xeon VM, CPython 3.11.7.
NOMINAL_S = 0.012
SIZE = 18
WINDOW = 3  # kernel samples taken on each side of an op


def kernel() -> Fraction:
    """Eliminate a fixed SIZE x SIZE rational matrix (Hilbert plus identity)."""
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(SIZE)] for i in range(SIZE)]
    for c in range(SIZE):
        pivot = a[c]
        for r in range(c + 1, SIZE):
            f = a[r][c] / pivot[c]
            a[r] = [x - f * y for x, y in zip(a[r], pivot)]
    return a[-1][-1]


EXPECTED = kernel()


def sample() -> float:
    """One timed run of the kernel, in seconds. The garbage collector is off
    meanwhile, so that the kernel's time does not depend on how many objects
    the program keeps alive; the kernel frees its own objects by refcount."""
    gc.disable()
    try:
        start = time.perf_counter()
        value = kernel()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if value != EXPECTED:
        raise RuntimeError("reference kernel gave a different result")
    return elapsed


def scale(samples: list[float], i: int) -> float:
    """Factor that turns the raw time of the op between ``samples[i]`` and
    ``samples[i + 1]`` into calibrated seconds."""
    local = statistics.median(samples[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
    return NOMINAL_S / local
