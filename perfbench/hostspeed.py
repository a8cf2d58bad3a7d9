"""The host's current speed, from a fixed piece of pure-Python work.

The development host is shared, and its speed swings by up to 70 % for
periods of ten seconds to minutes; steal time stayed at zero and process
CPU time swung with wall time.  A run cannot outlast those periods, so
raw times of whole runs spread by 18 to 43 % from run to run (README).

``probe`` times row reductions mod 11 of a fixed 9 x 9 matrix, the kind of
loop the program spends its time in.  A time measured between probes is
rescaled to the reference speed: ``t * REFERENCE_S / probe time``.  The
probe runs no ringspectra code, so a change to the program moves the
rescaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

# The probe's time on the development host in its fast periods, so that
# rescaled times read close to raw times measured there.
REFERENCE_S = 0.75e-3

_MATRIX = [[(i * 7 + j * 3 + i * j) % 11 for j in range(9)] for i in range(9)]


def probe(reps: int = 30) -> float:
    """Seconds for ``reps`` row reductions of the fixed matrix."""
    t0 = time.perf_counter()
    for _ in range(reps):
        a = [row[:] for row in _MATRIX]
        n = len(a)
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                continue
            a[col], a[piv] = a[piv], a[col]
            inv = pow(a[col][col], 9, 11)
            a[col] = [x * inv % 11 for x in a[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    c = a[r][col]
                    a[r] = [(x - c * y) % 11 for x, y in zip(a[r], a[col])]
    return time.perf_counter() - t0


class Probes:
    """Probe times with their clock readings, for rescaling nearby times."""

    PAD_S = 0.5

    def __init__(self):
        self.at = []       # perf_counter at each probe, increasing
        self.took = []

    def take(self):
        self.at.append(time.perf_counter())
        self.took.append(probe())

    def rescale(self, t0: float, dt: float) -> float:
        """dt (measured from t0) at the reference speed: the median probe
        within PAD_S of the interval, and the nearest one on each side."""
        lo = bisect.bisect_left(self.at, t0 - self.PAD_S)
        hi = bisect.bisect_right(self.at, t0 + dt + self.PAD_S)
        near = self.took[max(0, lo - 1):hi + 1]
        return dt * REFERENCE_S / statistics.median(near)
