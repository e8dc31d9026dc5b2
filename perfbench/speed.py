"""Machine-speed probe, so that times taken on a shared machine compare.

On a shared virtual machine the speed of the same code drifts by tens of
percent over a few seconds as other tenants load the host, and the guest
sees no steal time for it.  The benchmark therefore times a probe of fixed
work (signed-log object arithmetic and numpy operations, like the package's
mix of interpreter-bound and numpy-bound code) every INTERVAL_S of a run, from a
SIGALRM timer (or between operations that run in child processes), and scales each time it measures by the machine's mean speed
over the same interval:

    normalized seconds = seconds * mean(REFERENCE_S / probe seconds)

Normalized seconds are the seconds the work would take at the reference
speed, at which one probe takes REFERENCE_S: roughly the speed of the 2-vCPU
Intel Xeon VM the benchmark was written on, in its faster phases.  The probe costs about 2 % of a run.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0015
INTERVAL_S = 0.15
_SMALL = np.linspace(0.0, 1.0, 2_000)
_LARGE = np.linspace(0.0, 1.0, 100_000)


class _LogScalar:
    """Sign and log magnitude, the style of arithmetic catcodes' cat rates use
    (a frozen stand-in: the probe must not run code a change could speed up)."""

    __slots__ = ("sign", "logmag")

    def __init__(self, sign: int, logmag: float):
        self.sign = sign
        self.logmag = logmag

    def __mul__(self, other):
        return _LogScalar(self.sign * other.sign, self.logmag + other.logmag)

    def __add__(self, other):
        hi, lo = (self, other) if self.logmag >= other.logmag else (other, self)
        gap = lo.logmag - hi.logmag
        return _LogScalar(hi.sign, hi.logmag + math.log1p(hi.sign * lo.sign * math.exp(gap)))


def _work() -> None:
    acc = _LogScalar(1, 0.0)
    step = _LogScalar(1, -0.001)
    for j in range(1, 500):
        acc = acc * step + _LogScalar(1, -0.01 * j)
    for _ in range(5):
        np.log(_SMALL * _SMALL + 1.0).sum()
    np.log(_LARGE + 1.0).sum()


def probe() -> float:
    """Seconds taken by the probe's fixed work: interpreter-bound object
    arithmetic, small numpy operations and one pass over a larger array.

    The work runs twice and only the second, cache-warm run is timed: a
    cold run's cache misses do not slow down with the machine as the
    measured code does, so they would damp the correction."""
    _work()
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


def burst_factor(probes: int = 5) -> float:
    """Speed factor from probes run back to back, for a moment without a timer."""
    return statistics.fmean(REFERENCE_S / probe() for _ in range(probes))


class SpeedProbe:
    """Probes taken on a timer while `running()`; factor() averages them."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, seconds)

    def _tick(self, signum, frame) -> None:
        self.samples.append((perf_counter(), probe()))

    def burst(self, probes: int = 5) -> None:
        """Probes taken now, back to back: for code that runs in child
        processes, where a timer would probe while the children hold the CPUs."""
        for _ in range(probes):
            self._tick(None, None)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Mean REFERENCE_S / probe over the probes taken in [start, end]."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            return burst_factor()
        return statistics.fmean(REFERENCE_S / s for s in inside)
