"""A speed probe that rescales timings to a reference interpreter speed.

On a shared virtual machine (2 vCPUs, Intel Xeon at 2.0 GHz) the speed of
one core was seen to change by up to 2x within seconds while nothing else
ran in the guest, because other tenants share the host's cores.  A fixed
probe kernel, run from a timer signal every INTERVAL_S of wall time,
samples that speed during the measured code.
A measured time T is reported as T * mean(NOMINAL_S / probe time), over the
samples taken during it (within WINDOW_S of it, for a single operation):
the time the same work would take at the speed where the probe kernel
takes NOMINAL_S.  Work that gets faster still reads proportionally faster, while
a change of the core's speed during a run cancels out.

The probe's own time is taken out of every measurement through ``clock()``.
The kernel is the benchmark's own code (modular row reduction through
method calls, and Fraction arithmetic), so it does not change when the
library does.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
NOMINAL_S = 0.00015
# An operation is rescaled by the samples taken within this many seconds of
# it, because the core's speed changes within a unit.
WINDOW_S = 0.25


class _Mod7:
    p = 7

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


_F = _Mod7()
_ROWS = [[(3 * r + 5 * c + r * c + 1) % 7 for c in range(6)] for r in range(6)]


def kernel() -> tuple:
    """A fixed workload of the same kind as the library's inner loops."""
    f = _F
    m = [list(r) for r in _ROWS]
    pr = 0
    for pc in range(6):
        piv = next((r for r in range(pr, 6) if m[r][pc]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        iv = f.inv(m[pr][pc])
        m[pr] = [f.mul(iv, x) for x in m[pr]]
        for r in range(6):
            if r != pr and m[r][pc]:
                c = m[r][pc]
                m[r] = [f.add(x, f.mul(7 - c, y)) for x, y in zip(m[r], m[pr])]
        pr += 1
    s = Fraction(0)
    for i in range(1, 25):
        s += Fraction(i, i + 1) * Fraction(3, 7)
    return tuple(map(tuple, m)), s


class SpeedProbe:
    """Samples interpreter speed from a timer signal while running."""

    def __init__(self):
        self.spent = 0.0
        self.samples: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # The first run refills caches the measured code evicted; only the
        # second, warm run is timed, so a sample tracks execution speed and
        # not how much of the cache the library happened to use.
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.times.append(t0 - self.spent)
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def clock(self) -> float:
        """Wall time with the probe's own time taken out."""
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def factor_since(self, mark: int) -> float:
        """NOMINAL_S over probe time, averaged over the samples since ``mark``."""
        if len(self.samples) == mark:
            self._tick(None, None)
        return statistics.fmean(NOMINAL_S / s for s in self.samples[mark:])

    def factor_near(self, start: float, end: float) -> float:
        """The factor from the samples within WINDOW_S of [start, end] on ``clock()``.

        Falls back to the nearest sample when none is that close.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return statistics.fmean(NOMINAL_S / s for s in self.samples[lo:hi])
