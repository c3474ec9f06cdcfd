"""Op timing scaled to a reference host speed.

The benchmark runs on a few cores of a shared host.  There, a fixed piece of
work takes about 2.2 ms in one stretch and 1.3 ms in the next (an Intel Xeon
vCPU at 2.1 GHz); stretches last from under a second to minutes, and every op
in them is slowed alike.  Timed raw, a run's medians move by a third with
the host and not with the program.

So while a ``Meter`` runs, a timer interrupts the benchmark every
``INTERVAL_S`` and times a fixed kernel (Python arithmetic, a small ``pinv``
and matrix-vector products, none of it ``orbitsamp``); the kernel's time is
taken out of the op it interrupted.  An op's time is then scaled by
``REFERENCE_S`` over the mean kernel time during the op, or, for an op
shorter than the interval, over the mean of the samples just before and just
after it: the time the op would take on the host at the speed at which the
kernel takes ``REFERENCE_S``.  A change to the program moves op times and
leaves the kernel alone.
"""

from __future__ import annotations

import bisect
import signal
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 2.2e-3
INTERVAL_S = 0.2


@dataclass
class Entry:
    """One timed op: its span on the clock and its own seconds."""

    start: float
    end: float
    seconds: float  # end - start, less the kernel samples taken inside


class Meter:
    """Samples the host's speed by a timer while started; see the module
    docstring.  Not started, it samples only when ``sample`` is called."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.times = []  # when each sample started
        self.samples = []  # kernel seconds, in the order taken
        self._paused = 0.0  # seconds spent sampling so far

    def _kernel(self):
        t0 = time.perf_counter()
        x = 0
        for i in range(4000):
            x += (i * i) % 7
        np.linalg.pinv(self._a)
        v = self._a[:, 0]
        for _ in range(100):
            v = self._a @ v
            v = v / np.linalg.norm(v)
        return time.perf_counter() - t0

    def sample(self, *_):
        """Time the kernel now, the fastest of three so that an interrupt
        does not count."""
        t0 = time.perf_counter()
        self.samples.append(min(self._kernel() for _ in range(3)))
        self.times.append(t0)
        self._paused += time.perf_counter() - t0

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def begin(self):
        """Mark the start of an op; pass the result to ``end``."""
        return time.perf_counter(), self._paused

    def end(self, begun):
        start, paused = begun
        end = time.perf_counter()
        return Entry(start, end, end - start - (self._paused - paused))

    def scaled(self, entry):
        """``entry``'s seconds at the reference host speed."""
        lo = bisect.bisect_left(self.times, entry.start)
        hi = bisect.bisect_left(self.times, entry.end)
        inside = self.samples[lo:hi]
        if not inside:  # the samples just before and just after
            inside = self.samples[max(lo - 1, 0) : hi + 1]
        return entry.seconds * REFERENCE_S * len(inside) / sum(inside)


def raw(entry):
    return entry.seconds
