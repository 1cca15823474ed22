"""A host-speed gauge: a fixed reference loop, sampled while the program runs.

The benchmark host is a VM shared with other tenants.  Its speed drifts by
10-40 % over seconds to minutes, at times by a factor of two, and the drift
slows the CPU time of everything on it alike, so no statistic of wall times
alone is steady from one run to the next.  The gauge times a fixed loop of
small numpy calls (the kind of work the program does) in CPU time of its own
thread, so a sample does not count time spent waiting for a core or for the
GIL.  A piece of work that took `wall` seconds while the samples took
d_1..d_k is reported as

    wall x REFERENCE_SECONDS x mean(1 / d_i)

which is its wall time on a host where one sample takes REFERENCE_SECONDS:
the work done is the integral of host speed over the wall time, and host
speed is proportional to 1 / d.

While an operation runs, a SIGALRM timer takes a sample every PERIOD_S of
wall time in the main thread, and the samples' own wall time is taken out of
the operation's.  While a set-up child starts, the parent takes the samples
as it waits.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

REPS = 300  # one sample: about 1.1 ms on the reference host
PERIOD_S = 0.025
REFERENCE_SECONDS = 1.1e-3  # a sample on the README's host when it runs fast

_rng = np.random.default_rng(12345)
_X, _W = _rng.standard_normal((10, 4)), _rng.standard_normal((11, 4))


class Sample(NamedTuple):
    wall: float  # seconds on the clock
    ref: float  # reference-host seconds


def loop_seconds() -> float:
    """CPU time of the calling thread for one pass of the reference loop."""
    start = time.thread_time()
    total = 0.0
    for _ in range(REPS):
        z = np.maximum(_X @ _W.T, 0.0)
        total += float(np.tanh(z).sum())
    return time.thread_time() - start


def to_ref(wall: float, durations) -> float:
    """Reference-host seconds of `wall` seconds during which the loop took `durations`."""
    return wall * REFERENCE_SECONDS * statistics.fmean(1.0 / d for d in durations)


class Gauge:
    """Times work in wall seconds and in reference-host seconds."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0  # wall seconds taken by samples in the timer handler

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self):
        """Take a sample now and then one every PERIOD_S until the block ends."""
        self.samples = [loop_seconds()]
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def sample(self, wall: float, same_thread: bool = True) -> Sample:
        """The Sample of `wall` seconds timed inside the last `running` block.

        Work in this thread waited while the samples ran, so their time is
        taken out; work in another process (a set-up child) did not wait.
        """
        if same_thread:
            wall -= self.spent
        return Sample(wall, to_ref(wall, self.samples))
