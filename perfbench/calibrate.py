"""The machine's speed, measured while the workload runs.

A shared VM runs at different speeds for seconds to minutes at a time: on
the 2-vCPU VM below, the same pass took from 1x to 2x its fastest time within
an hour, and a slow phase can cover a whole run, so no statistic over one
run's passes removes it.  A fixed reference computation, timed every GAP_S
during the workload, slows down with it.  `SpeedProbe.scaled` converts a
stretch of the workload's time to the seconds it would take at the nominal
reference speed, slice by slice between consecutive reference timings.

The reference is exact rational elimination on a fixed 7x7 matrix, written
here with `fractions.Fraction` and without the library, so that a change to
the library never changes it, while its instruction mix (interpreted Python,
big-integer gcds, small lists) is the library's.

The probe interrupts the workload from a SIGALRM handler, so that it also
measures inside a library call that runs for a second; it needs a POSIX
interval timer and the main thread.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# Seconds of one `reference()` call at the speed the figures are quoted for:
# the fast phase of a shared 2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.
# Its slow phase takes about 1.7 ms.
REF_NOMINAL_S = 0.001
GAP_S = 0.02  # about 5 to 8% of the time goes to the reference
SMOOTH = 4    # a slice runs at the median speed of this many timings around it
N = 7
MATRIX = tuple(tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 5)
                     for j in range(N)) for i in range(N))


def reference() -> list:
    """Gauss-Jordan elimination of MATRIX; the result is the identity."""
    m = [list(row) for row in MATRIX]
    for c in range(N):
        p = next(r for r in range(c, N) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(N):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return m


class SpeedProbe:
    """Times `reference()` on entry, every GAP_S of wall time, and on exit.

    Use as a context manager around the timed code; then `scaled(start,
    end)` gives the nominal seconds of any stretch of it.  The garbage
    collector is off while the reference runs: a collection of the
    workload's heap would otherwise land on it.
    """

    def __init__(self, gap_s: float = GAP_S):
        self.gap_s = gap_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slice_ref: list[float] = []
        self._busy = False
        self._old = None

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        reference()
        self.starts.append(t)
        self.ends.append(time.perf_counter())
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.gap_s, self.gap_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()
        d = self.durations()
        lo = SMOOTH // 2 - 1
        self.slice_ref = [statistics.median(d[max(0, k - lo):k + SMOOTH - lo])
                          for k in range(len(d) - 1)]

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, nominal seconds) of [start, end] without the reference
        timings in it.  The slice between timings k and k + 1 runs at the
        speed of the median of the SMOOTH timings k - 1 to k + 2."""
        starts, ends = self.starts, self.ends
        k = max(0, bisect.bisect_right(starts, start) - 1)
        raw = nominal = 0.0
        while k + 1 < len(starts) and ends[k] < end:
            lo, hi = max(start, ends[k]), min(end, starts[k + 1])
            if hi > lo:
                raw += hi - lo
                nominal += (hi - lo) * REF_NOMINAL_S / self.slice_ref[k]
            k += 1
        return raw, nominal
