"""How fast the host runs right now, sampled while the program runs.

On a shared host the same call can take 30% longer from one minute to the
next, and CPU time grows with wall time, so the slowdown is contention in
shared hardware, not time taken from the process. ``kernel`` is a fixed piece
of the program's kind of work (a haversine scan and argsort over a few hundred
points, then a small weighted solve, through numpy's Python-level calls) on
its own arrays; it never touches the package. ``sampling()`` runs it from a
timer signal every ``PERIOD_S`` while a call is in progress, so the samples
cover the same seconds as the call. ``burst()`` runs it back to back, just
before and after a set-up in a child process. A time multiplied by
``scale(samples, reference_s)`` is the time the host would have taken at the
speed it had when the baseline was measured.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# Kernel times typical of the host the baseline in ``baseline/`` was measured
# on, so that scaled times read close to raw ones there. Sampled during a call the kernel runs after the program's own work has
# pushed it out of the caches; in a burst it runs warm, and faster.
REFERENCE_CALL_S = 4.8e-4
REFERENCE_BURST_S = 4.3e-4
# a sample every 20 ms costs the call about 2% of its wall time; the caller
# takes the samples' own time off
PERIOD_S = 0.02
# kernel runs in one burst: about 20 ms
BURST = 50

_rng = np.random.default_rng(20260318)
_LAT = np.radians(_rng.uniform(30.0, 40.0, 800))
_LON = np.radians(_rng.uniform(130.0, 140.0, 800))
_X = np.column_stack([np.ones(30), _rng.standard_normal((30, 2))])
_Y = _rng.standard_normal(30)


def kernel():
    """Run the fixed piece of work once; returns its seconds."""
    start = time.perf_counter()
    for i in range(3):
        s = (np.sin((_LAT - _LAT[i]) / 2.0) ** 2
             + np.cos(_LAT[i]) * np.cos(_LAT) * np.sin((_LON - _LON[i]) / 2.0) ** 2)
        nearest = np.argsort(s, kind="stable")[:30]
        xtw = _X.T * np.exp(-1e3 * s[nearest])
        gram = xtw @ _X
        np.linalg.eigvalsh(gram)
        np.linalg.solve(gram, xtw @ _Y)
    return time.perf_counter() - start


@contextlib.contextmanager
def sampling():
    """Yield a list that gets one kernel time every PERIOD_S until the block ends."""
    samples = []

    def on_timer(signum, frame):
        samples.append(kernel())

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)


def burst():
    """BURST kernel times, back to back."""
    return [kernel() for _ in range(BURST)]


def scale(samples, reference_s):
    """Factor that turns a time measured while sampling into reference seconds."""
    return reference_s / statistics.median(samples)
