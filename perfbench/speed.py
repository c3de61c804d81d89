"""Wall times read at a fixed reference speed.

The hosts this benchmark runs on share their cores, and a core's speed
changes by up to 1.7x over seconds to minutes as neighbours come and go
(see README). A fixed numpy kernel, the same on every commit and
independent of the package, is timed between the units of work. Each
reading is kept with its time. A unit's reference time is its wall time
scaled by REF_KERNEL_MS / k, where k is the median of the readings taken
within WINDOW_S of the unit's middle: the time the unit would take on a
host where the kernel takes REF_KERNEL_MS.

A single reading is noisy: its quartiles lie 30% apart even while the
host is steady. A short unit therefore takes the median of the many
readings around it; a unit of a second or more has only the readings
right before and after it, which follow the host best. Over six seeds,
a window of 0.5 s spread the paper workload's rates least, and wider
windows did no better on desk. The kernel does what the package does
most, many small numpy calls with Python in between. Scaling by the
power 1.3 of REF_KERNEL_MS / k, which fits over 10-second windows
suggested, spread six to eight seeds no less on desk and corpus and
more on paper; the power 0.7 spread them more everywhere.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the host the reference times are quoted for: about
# its median on a 2-vCPU x86-64 VM, Python 3.11, numpy with OpenBLAS.
REF_KERNEL_MS = 1.0
KERNEL_ITERS = 20
WINDOW_S = 0.5
# After a unit, the kernel is read once per this many ms of the unit (1 to
# 9 times), so a long unit adds readings at a cost of about 2% of its time.
MS_PER_KERNEL = 50.0

_rng = np.random.default_rng(0)
_X = _rng.random((76, 32))
_W = _rng.random((32, 32))


def kernel_ms() -> float:
    """Time one pass of the fixed kernel, in ms."""
    t0 = time.perf_counter()
    out = []
    for _ in range(KERNEL_ITERS):
        h = _X @ _W
        e = np.exp(h - h.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        out.append({"v": s.T @ _X, "n": len(out)})
        np.concatenate([s, h], axis=1)
    return (time.perf_counter() - t0) * 1e3


class RefClock:
    """Times units of work and reads the kernel between them.

    start() begins a unit; stop() ends it and returns the unit's id. The
    kernel is read at a fresh start (when untimed work has run since the
    last unit) and after each unit. After the run, wall_ms() and ref_ms()
    give every unit's time, indexed by id.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.readings: list[tuple[float, float]] = []  # (time, kernel ms)
        self.units: list[tuple[float, float]] = []     # (start, end)
        self._t0 = None

    def _read(self, runs):
        with self.tracer.span("bench.calibrate"):
            for _ in range(runs):
                t = time.perf_counter()
                self.readings.append((t, kernel_ms()))

    def start(self, fresh=False):
        if fresh or not self.readings:
            self._read(3)
        self._t0 = time.perf_counter()

    def stop(self) -> int:
        end = time.perf_counter()
        self.units.append((self._t0, end))
        self._read(min(9, max(1, round((end - self._t0) * 1e3 / MS_PER_KERNEL))))
        return len(self.units) - 1

    def wall_ms(self) -> list[float]:
        return [(end - start) * 1e3 for start, end in self.units]

    def ref_ms(self) -> list[float]:
        at = np.array([t for t, _ in self.readings])
        ks = np.array([k for _, k in self.readings])
        out = []
        for (start, end), wall in zip(self.units, self.wall_ms()):
            mid = (start + end) / 2
            lo, hi = np.searchsorted(at, [mid - WINDOW_S, mid + WINDOW_S])
            # the readings right before and right after the unit always count
            lo = min(lo, np.searchsorted(at, start) - 1)
            hi = max(hi, np.searchsorted(at, end) + 1)
            k = float(np.median(ks[max(lo, 0):hi]))
            out.append(wall * REF_KERNEL_MS / k)
        return out
