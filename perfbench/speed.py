"""Machine-speed calibration for a shared, noisy host.

On the virtual machines this benchmark runs on, the same pure-Python work
takes up to a third longer or shorter from one minute to the next, because
other tenants share the physical cores.  Raw seconds cannot tell such a
swing from a change in the program.  So the benchmark times a fixed
calibration kernel (exact rational arithmetic, tuples and dicts, as in the
library's hot loops, but none of the library's code) before and after every
timed sample, and rescales the sample to the kernel's reference time:

    reference seconds = measured seconds * REF_KERNEL_S / kernel seconds

where kernel seconds is the mean of the two kernel timings around the
sample, each timing being the median of KERNEL_REPEATS runs.  A program
change moves the sample but not the kernel; a slower machine moves both.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Kernel time in a fast phase of the machine the baseline was recorded on
# (Intel Xeon VM at 2.1 GHz, Python 3.11.7); it only scales the numbers.
REF_KERNEL_S = 0.020
KERNEL_STEPS = 3000
KERNEL_REPEATS = 3


def kernel() -> int:
    acc = Fraction(0)
    table: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for i in range(1, KERNEL_STEPS):
        q = Fraction(i % 7 - 3, i % 5 + 1)
        acc = acc * Fraction(1, 2) + q
        table[(i % 31, i % 17)] = (acc, q)
    return len(table)


def kernel_seconds() -> float:
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speedometer:
    """Kernel timings between samples; ``factor()`` after a sample gives
    the factor that turns its seconds into reference seconds."""

    def __init__(self):
        self._last = kernel_seconds()

    def factor(self) -> float:
        now = kernel_seconds()
        factor = REF_KERNEL_S / ((self._last + now) / 2)
        self._last = now
        return factor
