"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host whose CPU speed drifts by tens of percent over minutes, raw wall
times of the same work differ more between runs than any useful regression
bound.  ``Clock`` therefore times a fixed pure-Python kernel (frozen
dataclasses, recursive hashing and equality, tuples, dicts: the kind of work
treelens does) between the calls it measures.  A call's *scaled* time is
its wall time multiplied by ``NOMINAL_KERNEL_NS`` / the mean of the kernel
times around it, i.e. wall time at the speed at which the kernel takes
exactly ``NOMINAL_KERNEL_NS``.  The kernel runs with the garbage collector off, so
the heap the program under test keeps alive does not slow it down and
cannot hide a slowdown of the program.  Each sample first collects garbage,
so the rounds after it start from the same collector state.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

NOMINAL_KERNEL_NS = 1_500_000
SAMPLE_EVERY_NS = 150_000_000  # of measured work between two kernel samples


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _build(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(f"leaf{i & 7}", ())
    return _Node("node", (_build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1)))


def kernel() -> int:
    a, b = _build(8, 1), _build(8, 1)
    paths = {}
    stack = [((), a)]
    while stack:
        p, n = stack.pop()
        paths[p] = n.tag
        stack.extend((p + (j,), k) for j, k in enumerate(n.kids))
    return len({a, b}) + (a == b) + len(paths)


class Clock:
    """Kernel samples taken between rounds; a round is scaled by the samples around it."""

    def __init__(self):
        self.kernel_ns: list[float] = []
        self._since = 0

    def sample(self) -> float:
        """Time the kernel now; returns the scale for work measured right after."""
        gc.collect()
        gc.disable()
        try:
            times = []
            for _ in range(5):
                t0 = time.perf_counter_ns()
                kernel()
                times.append(time.perf_counter_ns() - t0)
        finally:
            gc.enable()
        self.kernel_ns.append(statistics.median(times))
        self._since = 0
        return NOMINAL_KERNEL_NS / self.kernel_ns[-1]

    def scale(self) -> float:
        """Scale by the latest sample, without sampling."""
        if not self.kernel_ns:
            self.sample()
        return NOMINAL_KERNEL_NS / self.kernel_ns[-1]

    def before(self) -> float:
        """Kernel time to use for the next round, sampling first when none is recent."""
        if not self.kernel_ns or self._since >= SAMPLE_EVERY_NS:
            self.sample()
        return self.kernel_ns[-1]

    def after(self, ns: int, before: float) -> float:
        """Scale for a round of ``ns`` that started at kernel time ``before``.

        A long round is bracketed: a fresh sample after it is averaged with the
        one before, and serves as the next round's sample too.
        """
        self._since += ns
        if self._since >= SAMPLE_EVERY_NS:
            self.sample()
        return NOMINAL_KERNEL_NS / ((before + self.kernel_ns[-1]) / 2)
