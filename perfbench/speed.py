"""Machine speed, sampled while the workload runs, to scale its times.

The benchmark runs on a few cores of a shared host, whose speed drifts by
a third within a minute: the same work took from 7.4 s to 10.2 s in runs a
few minutes apart, and CPU time drifted with wall time.  So while a workload
runs, a SIGALRM timer interrupts it PERIOD_S seconds after each sample to
time a fixed reference kernel, a mix of the program's kinds of work
(interpreted loops, Fraction arithmetic and small Hermitian eigensolves);
between short ops the sample is taken early instead.  An op's time is its
wall time less the probe's own time inside it, multiplied by NOMINAL_S over
the mean kernel time around the op.  The result reads as the op's time on
this host at the kernel's typical speed, and is in the same units.

The kernel belongs to the benchmark and never changes, so a change to the
program moves the scaled times and a change in the host's load does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

clock = time.perf_counter

#: Time from the end of one kernel run to the start of the next.
PERIOD_S = 0.05
#: Typical kernel time on the reference host (2 shared cores, Intel Xeon
#: at 2.1 GHz); scaled times are in seconds of a host running at that speed.
NOMINAL_S = 1.6e-3
#: An op is scaled by the kernel samples taken from this long before it
#: started to this long after it ended.
MARGIN_S = 0.25


_FRACTIONS = [Fraction(1, k) for k in range(1, 13)]
_rng = np.random.default_rng(6)
_M = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_HERMITIAN = _M + _M.conj().T


def kernel() -> int:
    """The reference kernel: interpreted dict, tuple and string work,
    exact sums and eigensolves."""
    table: dict = {}
    total = 0
    for i in range(800):
        key = (i % 89, i % 7)
        table[key] = table.get(key, 0) + i
        total += len(str(i * 2654435761))
    acc = Fraction(0)
    for a in _FRACTIONS:
        for b in _FRACTIONS:
            acc += a * b
    for _ in range(25):
        np.linalg.eigvalsh(_HERMITIAN)
    return total + len(table) + acc.denominator


@dataclass(frozen=True)
class Interval:
    """An op's start and end, and the probe time spent inside it."""

    start: float
    end: float
    probe_s: float

    @property
    def raw_s(self) -> float:
        return self.end - self.start - self.probe_s


class SpeedProbe:
    """Times `kernel` on SIGALRM every PERIOD_S seconds while active."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.busy_s = 0.0
        self._last = 0.0
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        kernel()  # warm the kernel's code paths before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last = clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = clock()
        kernel()
        end = clock()
        self.at.append((start + end) / 2)
        self.took.append(end - start)
        self.busy_s += end - start
        self._last = end
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def between_ops(self) -> None:
        """Take the next sample now if it is due within PERIOD_S / 2.

        Called between short ops, so that the timer never interrupts one:
        an op the kernel interrupted would also pay for the caches the
        kernel used, and ops of a few ms would put those in their tail."""
        if clock() - self._last >= PERIOD_S / 2:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._sample(None, None)

    # ------------------------------------------------------------ timing

    def mark(self) -> tuple[float, float]:
        return clock(), self.busy_s

    def since(self, mark: tuple[float, float]) -> Interval:
        start, busy = mark
        return Interval(start, clock(), self.busy_s - busy)

    # ------------------------------------------------------------ scaling

    def local_kernel_s(self, interval: Interval) -> float:
        """Mean kernel time around an interval; all samples if none near."""
        lo = bisect.bisect_left(self.at, interval.start - MARGIN_S)
        hi = bisect.bisect_right(self.at, interval.end + MARGIN_S)
        near = self.took[lo:hi] or self.took
        return statistics.fmean(near)

    def scaled(self, interval: Interval) -> float:
        return interval.raw_s * NOMINAL_S / self.local_kernel_s(interval)

    def note(self) -> dict:
        took = self.took
        return {
            "samples": len(took),
            "kernel_ms_median": 1e3 * statistics.median(took) if took else None,
            "kernel_ms_p10_p90": [1e3 * q for q in statistics.quantiles(
                took, n=10)[::8]] if len(took) > 1 else None,
            "busy_share": self.busy_s / (self.at[-1] - self.at[0])
            if len(took) > 1 else None,
        }
