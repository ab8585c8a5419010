"""Scale measured times to a reference machine speed.

On a shared host the same code can run up to 1.7x slower for 5-30 s at a
time while neighbours are busy, which swamps the differences the benchmark
exists to show.  So every timed segment is followed by a calibration unit:
fixed work of the kinds graphmgs does (an interpreted loop, numpy calls on a
small array, numpy over an array larger than the L2 cache, and a multiply
streamed through memory).  None of it is in graphmgs, so no change to the
program under test can speed it up.  A segment's scaled time is its wall time
times ``REFERENCE_S`` over the mean of the units just before and after it:
the time it would have taken on a machine that runs one unit in
``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

# one calibration unit on a quiet 2-vCPU x86 host (Python 3.11, numpy 2.4)
REFERENCE_S = 0.004

_SMALL = np.linspace(0.0, 1.0, 24 * 24).reshape(24, 24)
_LARGE = np.linspace(0.0, 1.0, 400_000)
_STREAM = np.linspace(0.0, 1.0, 1_200_000)
_STREAM_OUT = np.empty_like(_STREAM)


def _interpreted() -> None:
    acc = 0
    for i in range(18_000):
        acc += i * i


def _small_arrays() -> None:
    small = _SMALL.copy()
    for q in range(400):
        col = small[:, q % 24].copy()
        small[:, q % 24] = 0.5 * col - 0.25 * col


def _large_array() -> None:
    float(np.tanh(_LARGE).sum())


def _streamed() -> None:
    np.multiply(_STREAM, 0.5, out=_STREAM_OUT)


def unit() -> float:
    """Seconds taken by one calibration unit now.  Each kind of work runs once
    to warm the caches and then twice timed, keeping the faster, so that
    neither what the program did before (how much cache it evicted) nor a
    single interrupt changes the result."""
    total = 0.0
    for work in (_interpreted, _small_arrays, _large_array, _streamed):
        work()
        times = []
        for _ in range(2):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        total += min(times)
    return total


class Meter:
    """Sums, per metric, the wall time of timed segments (``raw``) and the
    same time scaled to the reference speed (``scaled``)."""

    def __init__(self):
        self.raw = {}
        self.scaled = {}
        self._last = unit()

    def measure(self, metric: str, fn):
        start = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed = time.perf_counter() - start
            after = unit()
            speed = REFERENCE_S / (0.5 * (self._last + after))
            self._last = after
            self.raw[metric] = self.raw.get(metric, 0.0) + elapsed
            self.scaled[metric] = self.scaled.get(metric, 0.0) + elapsed * speed
