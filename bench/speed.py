"""The machine's speed, probed while the benchmark runs.

A shared virtual machine's speed drifts by a quarter and more from one
minute to the next, and flips between a fast and a slow state from one
tenth of a second to the next, with its neighbours' load.  So every time
the benchmark reports is rescaled to a reference speed: it is multiplied
by ``REF_S`` over the mean ``probe()`` taken while it was measured.

``probe()`` times a fixed loop of the library's kind of work (Fraction and
big-integer arithmetic, dicts, small lists).  It is the benchmark's own
code, so a change to the library moves the rescaled times exactly as it
moves the raw ones.  A ``Sampler`` runs it every ``INTERVAL_S`` of wall
time from a ``SIGALRM`` handler, so an operation of several seconds is
sampled while it runs, not only before and after; the time spent in the
handler is counted in ``spent`` for the caller to subtract.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# seconds that one probe takes at the reference speed, about the mean on
# the machine in bench/README.md
REF_S = 0.018
INTERVAL_S = 0.3


def _loop():
    acc = Fraction(0)
    table = {}
    for _ in range(5):
        for i in range(1, 300):
            f = Fraction(i, i % 7 + 1)
            acc += f * f - Fraction(1, i)
            table[i % 13, i % 17] = sorted([(x * i) % 97 for x in range(12)])
    return acc, table


def probe() -> float:
    """Seconds that the fixed loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class Sampler:
    """Appends a ``probe()`` to ``probes`` every ``INTERVAL_S`` while active.

    ``spent`` is the wall time spent in probes so far.  Inactive (``active``
    false) it takes no probe, so a traced pass's spans hold only the
    library's time.
    """

    def __init__(self, probes: list[float], active: bool = True):
        self.probes = probes
        self.active = active
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:  # a slow probe overran the interval
            return
        self._busy = True
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False
