"""A clock that runs at a fixed reference speed of the machine.

On a shared virtual machine the CPU's speed swings up to 2x in regimes
that last from seconds to minutes, and CPU time swings with wall time.  So
every measured time is taken on a *virtual clock*: a timer signal runs a
fixed reference kernel every ``INTERVAL_S`` of wall time, and the clock
advances at ``REFERENCE_S / t_kernel`` times wall time, using the median of
the last ``SMOOTH`` kernel times.  Time spent in the kernel is not counted.
A time read on this clock is what the same work would take at the speed
where the kernel takes ``REFERENCE_S``.

The kernel mixes interpreted Python (calls with keyword arguments, small
objects, strings) with numpy calls on four-element arrays, whose cost is
call overhead.  Of the kernels tried against lseries-query and
transform-build passes, this mix slowed down most nearly in proportion to
the workloads (slope of log pass time on log kernel time 0.95-1.04, where
1 means no bias between fast and slow stretches); pure float arithmetic
and numpy on larger arrays tracked worse.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Wall time between two kernel runs.
INTERVAL_S = 0.1
#: Kernel time at the machine's usual fast speed; the virtual clock's unit.
REFERENCE_S = 0.0029
#: Kernel samples whose median sets the current speed.
SMOOTH = 3

_T4 = np.array([1.0, 2.0, 3.0, 4.0])


def _add(a, b=2, *rest, **options):
    return a + b


class _Point:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def scaled(self, y):
        return self.x * y


def kernel() -> float:
    """A fixed amount of interpreter and small-array numpy work."""
    acc = 0
    for i in range(3000):
        acc = _add(i, b=acc % 7) + _Point(i).scaled(2)
    acc += len(",".join([str(i) for i in range(3000)]))
    for i in range(600):
        v = np.asarray(_T4 * 1.5)
        acc += float(np.exp(v[i & 3])) + float(v.sum())
    return acc


class VirtualClock:
    """Wall time rescaled to the reference speed, sampled by a timer signal.

    ``now()`` runs between ``start()`` and ``stop()`` and keeps its last
    value after ``stop()``.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._speed = 1.0
        self._mark_real = 0.0
        self._mark_virtual = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self._mark_virtual += (t0 - self._mark_real) * self._speed
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._speed = REFERENCE_S / statistics.median(self.samples[-SMOOTH:])
        self._mark_real = time.perf_counter()

    def now(self) -> float:
        return self._mark_virtual + (time.perf_counter() - self._mark_real) * self._speed

    def start(self) -> "VirtualClock":
        self.calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def calibrate(self) -> None:
        """Take the first samples and set the clock to zero."""
        kernel()  # warm the kernel's code and data before its first timing
        for _ in range(SMOOTH):
            self._tick()
        self._mark_virtual, self._mark_real = 0.0, time.perf_counter()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        frozen = self.now()
        self._mark_virtual, self._mark_real, self._speed = frozen, time.perf_counter(), 0.0

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time at the current speed."""
        return seconds * self._speed

    def speed(self) -> float:
        """Mean speed over all samples (kernel time at reference / measured)."""
        return statistics.fmean(REFERENCE_S / s for s in self.samples)
