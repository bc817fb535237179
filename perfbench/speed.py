"""Machine-speed calibration for the untraced run.

The reference machine is two vCPUs on a shared host, and its speed moves
by up to 1.5x within seconds as other tenants come and go.  Wall-clock
times of one operation spread by 20-35% between 30-second runs of the
same code, which no choice of run length or statistic removes.

So the benchmark times a fixed pure-Python kernel that does not touch
pegkit, between blocks of operations: dict and tuple churn, deep
recursive calls, and small-object allocation with attribute and string
access, the kinds of work pegkit's engine and oracles do.  Each block's
wall time is multiplied by ``REFERENCE_KERNEL_S`` over the mean of the
kernel times just before and just after it, which expresses it at the
reference machine's speed.  A change to pegkit moves the operations and
not the kernel, so it shows in full; a slow phase of the host moves both
and largely cancels.  It cancels only in part, because a slow phase does
not slow every kind of work alike: on the reference machine it slowed
parse-small somewhat more than the kernel and parse-large somewhat less.  The kernel runs with the collector disabled, so
that neither the heap the workload leaves behind nor a change to the
collector's settings moves it.
"""

from __future__ import annotations

import gc
import statistics
import time

# Kernel time on the reference machine (2 vCPUs, CPython 3.11.7) in its
# fast state.  It only fixes the scale of the calibrated figures.
REFERENCE_KERNEL_S = 0.0050
KERNEL_REPEATS = 3


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: str) -> None:
        self.a = a
        self.b = b


def kernel() -> int:
    """About 5 ms of interpreter work on the reference machine."""
    table = {}
    for i in range(8000):
        table[(i, i & 7)] = (i * 3) ^ (i >> 2)
    total = sum(table.values())
    total += _fib(20)
    pairs = [_Pair(i, str(i)) for i in range(4000)]
    total += sum(len(p.b) + p.a for p in pairs if p.b.startswith("1"))
    return total


def kernel_seconds() -> float:
    """Median of ``KERNEL_REPEATS`` timed kernels, collector disabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Speed:
    """Kernel samples taken over a run.  ``mark`` samples the kernel
    before a block; ``factor`` samples it after the block and returns the
    factor that turns the block's wall time into reference-speed time.
    Consecutive blocks share the sample between them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.mark()

    def mark(self) -> None:
        self.samples.append(kernel_seconds())

    def factor(self) -> float:
        before = self.samples[-1]
        self.mark()
        return REFERENCE_KERNEL_S / ((before + self.samples[-1]) / 2)

    def summary(self) -> dict[str, float]:
        return {
            "kernel_samples": len(self.samples),
            "kernel_median_s": statistics.median(self.samples),
            "kernel_min_s": min(self.samples),
            "kernel_max_s": max(self.samples),
        }
