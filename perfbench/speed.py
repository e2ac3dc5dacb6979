"""Machine speed, sampled while a round runs, and times scaled by it.

The benchmark host shares its cores with other tenants, and the speed at
which it runs the same Python code drifts by up to a factor of two over
tens of seconds.  Raw wall times of identical rounds then spread far more
than any bound a regression check could use.  So every timed interval is
also measured in reference seconds: while the interval runs, a SIGALRM
timer interrupts it every PERIOD_S seconds to time a fixed slice of the
kind of work the workload does (exact rational arithmetic, or NumPy gamma
draws for the Monte Carlo workload), and the interval's raw length, minus
the slices, is scaled by the mean of (nominal slice time) / (slice time)
over the samples.  A reference second is the time the interval would take
on a host that runs the slice in its nominal time.

The slice is the benchmark's own code and never calls `bek`, so a change
to the program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
SLICE_TERMS = 300
# About the slice time on an unloaded core of the host behind the figures in
# README.md (Xeon at 2.1 GHz, Python 3.11); it only fixes the unit.
NOMINAL_SLICE_S = 0.0008


def reference_slice() -> float:
    """Seconds taken by a fixed harmonic sum over the rationals."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, SLICE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


def numpy_slice() -> float:
    """Seconds taken by a fixed batch of gamma draws and weight powers."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(0))
    start = time.perf_counter()
    draws = rng.standard_gamma(np.array([1.0, 2.0, 0.5]), size=(8192, 3))
    weights = draws / draws.sum(axis=1, keepdims=True)
    np.prod(weights ** np.array([2.0, 1.0, 3.0]), axis=1).sum()
    return time.perf_counter() - start


NOMINAL_NUMPY_SLICE_S = 0.0018

# Per workload kind: the slice that runs the same kind of code, and its
# nominal time.  The Monte Carlo rounds spend their time in NumPy, whose
# speed follows the host's load differently from interpreted rational
# arithmetic: scaled by the Fraction slice, ten `mc` runs spread 0.058 in
# wall_s; scaled by the NumPy slice, 0.023 (see README.md).
SLICES = {
    "fraction": (reference_slice, NOMINAL_SLICE_S),
    "numpy": (numpy_slice, NOMINAL_NUMPY_SLICE_S),
}


class SpeedSampler:
    """Context manager: samples the slice time while its block runs.

    `wall_s` is the block's wall time, `raw_s` the same without the slices
    taken inside it, and `reference_s` is `raw_s` in reference seconds.
    """

    def __init__(self, slice_fn, nominal_s: float) -> None:
        self.slice_fn = slice_fn
        self.nominal_s = nominal_s
        self.slices: list[float] = []
        self.wall_s = 0.0
        self.raw_s = 0.0
        self.reference_s = 0.0

    def _tick(self, signum, frame) -> None:
        self.slices.append(self.slice_fn())

    def __enter__(self) -> "SpeedSampler":
        self.slice_fn()  # warm the slice's code and allocator
        self.slices.append(self.slice_fn())
        signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall_s = time.perf_counter() - self._start
        # A no-op handler, never the default one: a tick already raised
        # must not end the process.
        signal.signal(signal.SIGALRM, _ignore)
        in_block = sum(self.slices[1:])
        self.slices.append(self.slice_fn())
        self.raw_s = self.wall_s - in_block
        speeds = [self.nominal_s / s for s in self.slices]
        self.reference_s = self.raw_s * sum(speeds) / len(speeds)


def _ignore(signum, frame) -> None:
    pass
