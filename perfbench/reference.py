"""A fixed CPU workload timed next to every measured call.

On a shared host the speed of one process drifts, by up to half, for minutes
at a time, and the drift slows this loop and `dnl` alike. Scaling a
measured time by the loop's nominal time over its time around the call
gives the time the call would take at nominal host speed. The loop mixes
interpreter work and small numpy operations, as `dnl` does, and its code
never changes, so a change to `dnl` cannot move it.

The host also switches between a fast and a slow phase within seconds, so
one pass before a call of a few seconds says little about the speed during
it. `SpeedSampler` therefore also times a pass every `SAMPLE_INTERVAL`
seconds while the call runs, from a timer signal, and takes their time out
of the call's time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Sets the scale of scaled times: about the time of `reference_seconds` on the
# 2-vCPU x86_64 virtual machine the bounds were set on, with Python 3.11 and
# numpy 2.4, in its faster phases. Its speed halved in slow phases.
NOMINAL_SECONDS = 0.005

SAMPLE_INTERVAL = 0.2
# A call shorter than this many intervals is scaled by the pass before it,
# whose phase it most likely shares; a longer one by the passes during it.
MIN_SAMPLES = 3

_VALUES = np.random.default_rng(0).uniform(5.0, 25.0, size=48)


def reference_seconds() -> float:
    """Wall seconds of one pass of the reference loop."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(20):
        best = np.zeros(25)
        keep = np.zeros((48, 25), dtype=bool)
        for i, value in enumerate(_VALUES):
            candidate = best[:24] + value
            keep[i, 1:] = candidate > best[1:]
            np.maximum(best[1:], candidate, out=best[1:])
    return time.perf_counter() - started


class SpeedSampler:
    """Measures the host speed around the block it guards.

    It times one reference pass on entry, and one more every
    `SAMPLE_INTERVAL` seconds until exit. `spent` is the time those later
    passes took, to be subtracted from a time measured inside the block.
    """

    def __enter__(self) -> "SpeedSampler":
        self.before = reference_seconds()
        self.during: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        self.during.append(reference_seconds())
        self.spent += time.perf_counter() - started

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """Nominal over measured reference time: scaled seconds per wall second."""
        if len(self.during) >= MIN_SAMPLES:
            return NOMINAL_SECONDS / statistics.fmean(self.during)
        return NOMINAL_SECONDS / self.before
