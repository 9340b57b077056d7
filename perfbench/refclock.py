"""A clock that reads time at a fixed reference speed of the CPU.

The benchmark's machine is a shared VM.  The speed of each of its cores
moves by 30% or more over seconds, as other tenants come and go, and the
two cores move independently; CPU time moves with wall time.  Timings of
the same work therefore spread too far to compare two commits.

``RefClock`` tracks the speed of the core that does the work.  A timer
signal interrupts the measured (main) thread every ``TICK_S`` seconds,
and the handler times ``probe()``, a fixed piece of pure-Python work, on
that thread.  The clock then advances, until the next probe, at
``REF_PROBE_S`` divided by the median of the last ``WINDOW`` probe
times: a second of wall time counts as less than a second while the core
runs slower than the reference, and as more while it runs faster.  Time
spent in the probes does not count.  ``REF_PROBE_S`` is about the probe's
time on a quiet core of the baseline machine (a 2-vCPU Intel Xeon VM at
2.0 GHz running CPython 3.11), so readings there are of the order of
wall seconds.

The probe shares the core's caches with the work, so it runs somewhat
slower inside a memory-hungry workload than alone; a change to the
program that changes its memory traffic a great deal moves the probe a
little too, and the clock hides that small part of the change.

The signal reaches the handler only between bytecodes of the main
thread, so a long call into C stretches one interval, and processes the
measured one starts are not probed: the clock measures them by the speed
of the process that waits for them.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.02
WINDOW = 5
PROBE_ROUNDS = 2000
REF_PROBE_S = 0.0004


def probe(rounds: int = PROBE_ROUNDS) -> int:
    """Fixed work of the kind projpair does: small-integer arithmetic,
    dictionary stores and tuple allocation."""
    acc, table = 0, {}
    for i in range(rounds):
        acc = (acc + i * i) % 1000003
        table[i & 255] = (acc, i)
    return acc + len(table)


def rate(probe_times) -> float:
    """Reference seconds per wall second, from recent probe times."""
    return REF_PROBE_S / statistics.median(probe_times)


class RefClock:
    """Reference-speed clock of the calling (main) thread.

    ``start()`` takes one probe and arms the timer; ``now()`` reads the
    clock; ``stop()`` disarms it.  One clock may run per process.
    """

    def __init__(self):
        self._recent: list[float] = []
        self._reading = 0.0
        self._mark = 0.0
        self._rate = 1.0
        self._busy = False
        self._previous = None
        self.probes = 0
        self.probe_s = 0.0

    def _probe(self) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self._recent.append(t1 - t0)
        del self._recent[:-WINDOW]
        self._rate = rate(self._recent)
        self.probes += 1
        self.probe_s += t1 - t0
        self._mark = t1

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._reading += (time.perf_counter() - self._mark) * self._rate
            self._probe()
        finally:
            self._busy = False

    def start(self) -> "RefClock":
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def now(self) -> float:
        self._busy = True  # a tick in mid-read would mix two intervals
        try:
            return self._reading + (time.perf_counter() - self._mark) * self._rate
        finally:
            self._busy = False

