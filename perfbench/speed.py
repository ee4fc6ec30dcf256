"""The machine's speed through a run, from fixed reference work.

On a shared host the cores of a small machine run slower or faster by tens
of percent over seconds to minutes, and most kinds of work slow together.
So between the benchmark's operations fixed reference work is timed in
short bursts: in-process, a kernel of an interpreter loop and small LAPACK
solves, the mix portopt's own work has; before each fresh process, a bare
interpreter start, whose exec and start-up costs move as a fresh process's
do and the in-process kernel's do not.  An operation's wall time is then
scaled by its reference's nominal time over the reference's median time in
the seconds around the operation: the result is seconds at the reference
speed.  Neither reference runs portopt code, so a change to the program
moves only the operation times.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.0017    # the kernel's median time on an idle 2-core 2.0 GHz Xeon
PROCESS_NOMINAL_S = 0.0105   # a bare interpreter start at the kernel's nominal speed
EVERY_S = 0.2         # at an operation boundary, sample once this much has passed
BURST = 5             # reference runs per sample
WINDOW_S = 2.0        # samples this close to an operation describe its speed
LOOP = 10000          # interpreter iterations in the kernel
SOLVES = 25           # 64 x 64 solves in the kernel
BARE_START = [sys.executable, "-S", "-c", "pass"]


class Samples:
    """Timed runs of one reference, in time order."""

    def __init__(self, nominal_s: float):
        self.nominal_s = nominal_s
        self.times: list[float] = []      # mid-times of the runs, ascending
        self.seconds: list[float] = []    # their durations

    def run(self, fn) -> None:
        for _ in range(BURST):
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.seconds.append(t1 - t0)

    def scale(self, t0: float, t1: float) -> float:
        """Nominal over median time of the runs within ``WINDOW_S`` of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:      # no sample near: take the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return self.nominal_s / statistics.median(self.seconds[lo:hi])


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(64, 64))
        self._a = a @ a.T + 64.0 * np.eye(64)
        self._b = np.ones(64)
        self.kernel = Samples(NOMINAL_S)
        self.process = Samples(PROCESS_NOMINAL_S)
        self._last = -float("inf")

    def _kernel(self) -> None:
        s = 0
        for i in range(LOOP):
            s += i * i
        for _ in range(SOLVES):
            np.linalg.solve(self._a, self._b)

    def tick(self, fresh: bool = False) -> None:
        """Sample the kernel if ``EVERY_S`` has passed since the last sample,
        and a bare interpreter start if a fresh process comes next."""
        if fresh:
            self.process.run(lambda: subprocess.run(BARE_START, check=True))
        if time.perf_counter() - self._last < EVERY_S:
            return
        self.kernel.run(self._kernel)
        self._last = time.perf_counter()

    def reference_seconds(self, span: tuple[float, float], fresh: bool = False) -> float:
        """Wall seconds of ``span`` = (start, end) at the reference speed;
        ``fresh`` spans are fresh processes."""
        t0, t1 = span
        return (t1 - t0) * (self.process if fresh else self.kernel).scale(t0, t1)
