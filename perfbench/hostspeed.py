"""Host speed reference for benchmark samples.

The benchmark host shares its cores with other work, and how much that slows
a program changes within seconds and drifts over minutes: the same black-oil
sample took 2.6 s at one time and 5.3 s forty minutes later, on either CPU,
with no steal time.  A fixed kernel of the kinds of work the simulator does
(small numpy operations, a pass over a 0.5 MB array, interpreter loops,
attribute loads and dict updates), timed at most every ``INTERVAL_S``
at frequent calls during a sample, measures how fast the host runs all
through it.  Over 59 black-oil samples of 2.7 to 4.8 s, the kernel's mean
time per sample moved with the sample's time with a correlation of 0.97.
A sample's time divided by the kernel's mean time during it and multiplied
by ``REFERENCE_S`` is the sample's time on a host where the kernel takes
``REFERENCE_S``: the host's slowdown cancels, the program's own speed does
not.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on the reference host
REFERENCE_S = 1.0e-3
# kernel runs before timing starts, so its first-call costs are paid
WARMUP = 3
# least time between samples at frequent calls: about 2 % of a run
INTERVAL_S = 0.05


_SMALL = np.random.default_rng(0).random(4000)
_LARGE = np.random.default_rng(1).random(60000)


class _Point:
    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


_POINTS = [_Point(1.0 + i, 2.0 - i) for i in range(200)]


def kernel() -> float:
    """Fixed work of one to two milliseconds; returns a checksum."""
    acc = 0.0
    for _ in range(10):
        acc += float(np.sort(_SMALL * 1.0001 + 0.5)[7])
        for i in range(200):
            acc += i
    table = {}
    for i in range(1500):
        table[i & 63] = acc + i
    for _ in range(3):
        acc += float((_LARGE * 1.0001 + _LARGE).sum())
    for _ in range(8):
        for p in _POINTS:
            acc += p.x * p.y + len(str(3))
    return acc + table[0]


class HostSpeed:
    """Times the kernel on demand and keeps every time."""

    def __init__(self):
        for _ in range(WARMUP):
            kernel()
        self.times: list[float] = []
        self._last = time.perf_counter()

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        dt = self._last - t0
        self.times.append(dt)
        return dt

    def sample_due(self) -> None:
        """Sample if ``INTERVAL_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def total(self) -> float:
        return sum(self.times)


def at_reference(seconds: float, kernel_s: float) -> float:
    """A time measured while the kernel took kernel_s, on the reference host."""
    return seconds * REFERENCE_S / kernel_s
