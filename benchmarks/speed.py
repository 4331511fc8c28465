"""Host-speed probe that rescales wall times to one reference speed.

On a shared 2-vCPU host the speed of a vCPU drifts by up to a factor of
1.5 in epochs of seconds to tens of seconds, so raw wall times of the
same run differ by 25-35 % between runs.  A short stdlib-only probe
(Fraction products and dict updates, the kind of work qhg's `Scalar`
does) is timed before and after every unit and every INTERVAL_S during
it; the unit's wall time, minus the probes run inside it, is multiplied
by PROBE_REF_S / (mean probe time).  The probe does not use qhg, so a
change to qhg moves the rescaled time in proportion to wall time at a
fixed host speed.  At the reference speed the two are equal.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# probe time at full speed on a 2-vCPU Intel Xeon host, Python 3.11.7
PROBE_REF_S = 0.0012
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds taken by a fixed amount of Fraction and dict work."""
    t0 = time.perf_counter()
    acc: dict[int, Fraction] = {}
    a = Fraction(3, 4)
    for i in range(300):
        k = i & 63
        s = acc.get(k, 0) + a * Fraction(i, 7)
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return time.perf_counter() - t0


class Rescaler:
    """Probes the host every INTERVAL_S while entered; times units."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, probe seconds)
        self._probing = False
        self._previous = None

    def sample(self):
        if self._probing:
            return
        self._probing = True
        try:
            d = probe()
            self.samples.append((time.perf_counter(), d))
        finally:
            self._probing = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """(wall seconds, rescaled seconds, fn()), minus the probes run inside fn."""
        self.sample()
        first = len(self.samples) - 1
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.sample()
        window = self.samples[first:]
        inside = sum(d for end, d in window if t0 < end <= t1)
        wall = t1 - t0 - inside
        speed = statistics.fmean(d for _, d in window)
        return wall, wall * PROBE_REF_S / speed, result
