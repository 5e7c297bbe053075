"""A probe of how fast the machine runs while a benchmark run goes on.

On a shared host the speed of a Python process drifts by about 20% over tens
of seconds, and every Python workload drifts with it: run to run, that drift
is wider than the bounds the benchmark sets.  So while run.py waits for its
measured interpreters, one thread per CPU, pinned to it, times a fixed
routine every quarter second in the thread's own CPU time.  run.py scales
each measured time by ``NOMINAL_S / median routine time`` over the window
it was measured in, which takes the drift out while keeping the unit: a
scaled time is seconds at the speed at which the routine takes
``NOMINAL_S``.  The drift differs between CPUs, so a single-process
measurement is pinned to one CPU and scaled by that CPU's probe only.

The routine does the kind of work the package does (tuples, compares, a
DFS) and shares no code with it, so a change to the package cannot move it.
It must never change: that would rescale every time the benchmark reports.
"""
from __future__ import annotations

import os
import statistics
import threading
import time

# Typical routine time on the 2-core CPython 3.11 host where the baseline in
# NOTES.md was taken, so that scaled times stay close to the seconds measured.
NOMINAL_S = 0.005
INTERVAL_S = 0.25
MIN_SAMPLES = 4  # a window with fewer probe samples uses the whole run's


def routine() -> int:
    """Count 11-bit cyclic words that are minimal among their rotations."""
    found = 0
    stack = [()]
    while stack:
        word = stack.pop()
        if len(word) == 11:
            found += all(word <= word[i:] + word[:i] for i in range(1, 11))
            continue
        stack.append(word + (0,))
        stack.append(word + (1,))
    return found


class SpeedProbe:
    """Times ``routine`` every ``INTERVAL_S`` on each CPU, from entry to exit."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        # (time.monotonic(), routine seconds, cpu)
        self.samples: list[tuple[float, float, int]] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), daemon=True) for cpu in self.cpus
        ]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        while not self._stop.wait(INTERVAL_S):
            at = time.monotonic()
            t0 = time.thread_time()
            routine()
            self.samples.append((at, time.thread_time() - t0, cpu))

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def factor(self, window: tuple[float, float] | None = None, cpu: int | None = None) -> float:
        """``NOMINAL_S`` over the median routine time: multiply times by it.

        Only samples inside ``window`` and, if given, on ``cpu`` count, unless
        there are fewer than ``MIN_SAMPLES`` of them: then the whole run's do.
        """
        inside = [
            d for at, d, c in self.samples
            if window and window[0] <= at <= window[1] and cpu in (None, c)
        ]
        if len(inside) < MIN_SAMPLES:
            inside = [d for _, d, _ in self.samples]
        return NOMINAL_S / statistics.median(inside)
