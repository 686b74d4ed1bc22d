"""A fixed slice of interpreter work that measures the host's current speed.

On the shared 2-vCPU reference host, the CPU time of identical work swung by
up to 1.7x within seconds and between runs: frequency and a busy sibling core
both change.  ``Meter`` therefore times a slice just before each operation and
every 0.1 CPU seconds while it runs, and reports the operation's CPU time
scaled by ``REFERENCE_S`` over the median slice: its time at the reference
host's speed, over its own span.  The slice uses the same kinds of work as the
library (Fractions, small dicts and tuples, modular integer products) and
nothing from it, so a change to padicmult moves the result and a change of
host speed does not.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# unit() in CPU seconds on the reference host in a quiet period
REFERENCE_S = 0.0005


def _work() -> None:
    table = {}
    total = Fraction(0)
    for i in range(120):
        total += Fraction(i % 7 - 3, i % 5 + 1)
        table[(i % 11, i)] = total
    y = 7
    for _ in range(150):
        y = y * y % 1000000007


def unit() -> float:
    """CPU seconds that the fixed slice takes now."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


class Meter:
    """CPU time of one call, plain and at the reference speed.

    A SIGPROF timer fires every `interval` CPU seconds during the call and
    times a slice; the slices' own time is taken out of the call's.  The
    handler stays installed for the life of the process, so a tick that
    arrives after `stop` is ignored rather than ending the process.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.active = False
        self.slices: list[float] = []
        self.begin = 0.0
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.active:
            self.slices.append(unit())

    def start(self) -> None:
        self.slices = [unit()]
        self.begin = time.thread_time()
        self.active = True
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.active = False
        plain = time.thread_time() - self.begin - sum(self.slices[1:])
        return plain, plain * REFERENCE_S / statistics.median(self.slices)
