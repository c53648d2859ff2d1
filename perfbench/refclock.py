"""A reference clock that discounts the machine's changing speed.

On a shared virtual machine the speed of one vCPU can change by a
factor of two within seconds, as other tenants come and go, so wall
time measures the neighbours as much as the program. While a RefClock
runs, a timer signal every PERIOD seconds runs a fixed calibration
kernel and times it. Between two samples the reference clock advances
at REFERENCE_KERNEL_S / (the mean of their smoothed kernel times)
reference seconds per wall second, and it stands still while the
kernel runs.
A reference second is thus the time the program would take on a
machine that runs the kernel in REFERENCE_KERNEL_S.

The kernel resembles ctsat's hot loops (bitmask table lookups over a
tier list, small tuples and dicts) so that it slows down with them,
but it is the benchmark's own code: a change to ctsat cannot speed it
up. Only the main thread is sampled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.02
# typical kernel time inside the handler, on the 2-vCPU Intel Xeon VM the
# seed-commit numbers in DESIGN.md were measured on (Python 3.11)
REFERENCE_KERNEL_S = 300e-6


def _tables():
    succ, pred = [0] * 256, [0] * 256
    for mask in range(256):
        s = p = 0
        for c in range(8):
            if mask >> c & 1:
                lo, hi = c & 3, c >> 1
                s |= (1 << (2 * lo)) | (1 << (2 * lo + 1))
                p |= (1 << hi) | (1 << (hi | 4))
        succ[mask], pred[mask] = s, p
    return succ, pred


_SUCC, _PRED = _tables()
_MASKS = [((37 * j * j + 11 * j + 255) & 255) | 1 for j in range(38)]


def kernel() -> None:
    """Fixed work: backward and forward support passes over 38 tiers."""
    for _ in range(12):
        masks = list(_MASKS)
        for j in range(len(masks) - 2, -1, -1):
            masks[j] = masks[j] & _PRED[masks[j + 1]] or masks[j]
        for j in range(1, len(masks)):
            masks[j] = masks[j] & _SUCC[masks[j - 1]] or masks[j]
        seen = {}
        for j, m in enumerate(masks):
            seen[(j, m)] = tuple(masks[j:j + 3])


class RefClock:
    """Use as a context manager around the work to be timed; afterwards
    `ref(t)` maps a time.perf_counter() reading taken inside the block
    to reference seconds, and `elapsed(t0, t1)` is the reference time
    between two such readings."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # kernel start, end
        self._wall: list[float] = []
        self._ref: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.stop = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self._build()

    def _build(self) -> None:
        # a run shorter than PERIOD gets one sample after the fact
        if not self.samples:
            self._sample(None, None)
            self.samples[-1] = (self.stop, self.stop + self.samples[-1][1]
                                - self.samples[-1][0])
        raw = [end - start for start, end in self.samples]
        # a centred median over five samples (100 ms) drops the odd
        # sample that an interrupt or page fault slowed on its own
        costs = [statistics.median(raw[max(0, k - 2):k + 3])
                 for k in range(len(raw))]
        wall, ref = [self.start], [0.0]
        prev_end, prev_cost = self.start, costs[0]
        for (start, end), cost in zip(self.samples, costs):
            if start > self.stop:
                break
            rate = REFERENCE_KERNEL_S / ((prev_cost + cost) / 2)
            wall += [start, end]
            ref += [ref[-1] + (start - prev_end) * rate] * 2
            prev_end, prev_cost = end, cost
        wall.append(max(self.stop, prev_end))
        ref.append(ref[-1] + max(0.0, self.stop - prev_end)
                   * REFERENCE_KERNEL_S / prev_cost)
        self._wall, self._ref = wall, ref

    def ref(self, t: float) -> float:
        wall, ref = self._wall, self._ref
        k = bisect.bisect_right(wall, t)
        if k <= 0:
            return ref[0]
        if k >= len(wall):
            return ref[-1]
        span = wall[k] - wall[k - 1]
        if span <= 0:
            return ref[k - 1]
        return ref[k - 1] + (ref[k] - ref[k - 1]) * (t - wall[k - 1]) / span

    def elapsed(self, t0: float, t1: float) -> float:
        return self.ref(t1) - self.ref(t0)
