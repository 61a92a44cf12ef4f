"""Machine-speed probe, so that times from a shared machine stay comparable.

On a machine shared with other tenants the same pure-Python work can run at
very different speeds from one second to the next: a fast and a slow state,
about 1.9x apart, switching within a second, and a slow-state share that
drifts over minutes.  A job list's raw time then moves by 10-35% between
runs of the same code.

The probe runs a fixed piece of pure-Python work (`probe_loop`, about 1.25 ms)
from a SIGALRM handler every PROBE_INTERVAL_S, between the bytecodes of
whatever the benchmark is running, so its samples see the same speed states
as the jobs.  A job list's time is then reported as

    (wall time - time spent in the probe) * NOMINAL_S / (mean probe time)

that is, in seconds at the speed where `probe_loop` takes NOMINAL_S.  The
probe's own time is taken out, and the probe touches no dpforms code, so
changes to dpforms move the reported time just as they move the raw time.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.03
NOMINAL_S = 0.00125


class _Model:
    def __init__(self, gram):
        self.gram = gram

    def dot(self, a, b):
        total = 0
        for i, ai in enumerate(a):
            if ai:
                row = self.gram[i]
                total += ai * sum(row[j] * bj for j, bj in enumerate(b) if bj)
        return total


_MODEL = _Model(tuple(tuple(-1 if i == j else int(i + j == 1) for j in range(8)) for i in range(8)))
_VECTORS = [tuple((i * 7 + k * 3) % 5 - 2 for k in range(8)) for i in range(8)]


def probe_loop():
    """Fixed pure-Python work of the kinds dpforms does: method calls and
    generator sums over small-int tuples, tuple building, Fraction sums and
    dict updates."""
    total = 0
    for a in _VECTORS:
        for b in _VECTORS:
            total += _MODEL.dot(a, b)
    base = tuple(range(-6, 6))
    for i in range(80):
        row = tuple((x * i) % 7 - 3 for x in base)
        total += sum(x * y for x, y in zip(base, row))
    acc = Fraction(0)
    for i in range(1, 20):
        acc += Fraction(i % 13 - 6, i % 11 + 1)
    counts: dict[tuple[int, int], int] = {}
    for i in range(100):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    return total, acc, counts


class SpeedProbe:
    """Accumulates probe samples: `spent` seconds over `count` samples."""

    def __init__(self) -> None:
        self.spent = 0.0
        self.count = 0

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        probe_loop()
        self.spent += perf_counter() - t0
        self.count += 1

    @contextmanager
    def periodic(self):
        """Sample every PROBE_INTERVAL_S of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)


@contextmanager
def paused():
    """Hold the probe while a child process runs: a sample taken then would
    measure this process's core, not the child's, and compete with it."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
