"""Host-speed reference: a fixed loop of small numpy calls timed beside
the workload.

The shared host's speed drifts by 20-40 % within seconds, differently on
each vCPU, and the drift slows ``kphase`` (small-matrix numpy calls driven
from Python) and this loop alike.  Timings are reported as wall seconds
scaled by ``NOMINAL_S_PER_ITER / measured seconds per iteration``: seconds
on a host that runs the loop at the nominal speed.  :class:`SpeedSampler`
times a short run of the loop on a wall-clock timer signal while the
workload runs, so the speed is sampled on the same vCPU and over the same
interval as the work it scales.

Measured on the 2-vCPU host this was built on, over 15-18 repeats of each
``evolve``, ``oracle`` and ``stokes`` call, the coefficient of variation of
a call's time fell from 10-20 % (wall) to 3-9 % (scaled).  A pure-Python
loop of integer arithmetic tracked the drift about half as well, and loops
with larger working sets (a 5 x 5 ``eigh``, a random walk over a 300k-item
list) about as well or worse.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

NOMINAL_S_PER_ITER = 10e-6
SAMPLE_ITERATIONS = 150
SAMPLE_INTERVAL_S = 0.05
_STEP = np.array([[1.0 + 1.0j, 2.0], [0.5, 1.0 - 1.0j]])


def reference_seconds(iterations: int = SAMPLE_ITERATIONS) -> float:
    """Wall time per iteration of the fixed reference loop."""
    a = _STEP
    t0 = time.perf_counter()
    for _ in range(iterations):
        a = a @ _STEP
        a = a / abs(np.linalg.det(a)) ** 0.5
    return (time.perf_counter() - t0) / iterations


class SpeedSampler:
    """Samples the reference speed every ``SAMPLE_INTERVAL_S`` of wall time.

    Use as a context manager around the timed region.  :meth:`scale` turns
    the wall time of an interval into reference seconds, after removing the
    time the samples themselves took.
    """

    def __init__(self):
        self.samples = array("d")
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.spent, time.perf_counter()

    def scale(self, start, end, sampled: bool = True) -> tuple[float, float]:
        """Reference seconds and sampler-free wall seconds between marks.

        With ``sampled`` false the sampler was not running: both values are
        the wall time.
        """
        n0, spent0, t0 = start
        n1, spent1, t1 = end
        wall = (t1 - t0) - (spent1 - spent0)
        if not sampled:
            return wall, wall
        window = self.samples[n0:n1] or self.samples[-3:]
        if not window:
            window = [reference_seconds()]
        per_iter = sum(window) / len(window)
        return wall * NOMINAL_S_PER_ITER / per_iter, wall
