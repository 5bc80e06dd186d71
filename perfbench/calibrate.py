"""A fixed reference computation that tracks the host's CPU speed.

The benchmark runs on shared virtual machines whose speed changes by
up to twice within tens of milliseconds, as other guests come and go,
and whose average speed drifts over minutes and hours by more than the
bounds on its times.  A run therefore times this reference in the same
process, between calls and, from a timer signal, every ``PERIOD_S``
during them, and scales each call's time by ``NOMINAL_S`` over the
mean reference time around and during it: a time the run reports is
the time the call would take on a host where the reference takes
``NOMINAL_S`` seconds.  The reference's own time is taken out of the
call's.  The reference is the benchmark's own code and never calls the
package, so a change to the package moves the scaled times as much as
the raw ones.

The reference does what the package's hot loops do: it closes a set of
transformations under composition, building tuples and looking them
up in a dict, like ``model`` closures and the oracle's breadth-first
search.
"""

from __future__ import annotations

import gc
import signal
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# The mean reference time on a 2-vCPU Linux VM with Python 3.11.7.
NOMINAL_S = 0.0014

# A cycle and a map of rank 4 on five points; they generate 610 maps.
GENERATORS = ((1, 2, 3, 4, 0), (0, 0, 2, 3, 4))
ELEMENTS = 610

PERIOD_S = 0.05     # during a call, the timer runs the reference this often
GAP_S = 0.01        # between calls, the reference runs this long


def reference() -> int:
    """Close GENERATORS under composition; return the element count."""
    seen = {g: None for g in GENERATORS}
    queue = deque(GENERATORS)
    while queue:
        f = queue.popleft()
        for g in GENERATORS:
            h = tuple(g[p] for p in f)
            if h not in seen:
                seen[h] = None
                queue.append(h)
    return len(seen)


@dataclass
class Timing:
    seconds: float = 0.0    # the block's time, less the reference runs inside it
    levels: list[float] = field(default_factory=list)  # reference times inside it


class Speed:
    """Reference times taken between and during timed calls."""

    def __init__(self):
        self.times: list[float] = []   # every reference run, in order
        self.stolen = 0.0              # time the timer's runs took from calls

    def _run(self) -> None:
        # Without the collector: inside a call it would scan the
        # package's objects, on the reference's clock.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            count = reference()
            self.times.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        if count != ELEMENTS:
            raise AssertionError(f"reference closed to {count} elements, not {ELEMENTS}")

    def gap(self) -> list[float]:
        """Run the reference for GAP_S (at least once); return its times."""
        first = len(self.times)
        start = perf_counter()
        while len(self.times) == first or perf_counter() - start < GAP_S:
            self._run()
        return self.times[first:]

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._run()
        self.stolen += perf_counter() - t0

    @contextmanager
    def timed(self, timer: bool = True):
        """Time the block; with ``timer``, run the reference every PERIOD_S
        inside it.  The yielded Timing is filled in on exit."""
        out = Timing()
        first, stolen = len(self.times), self.stolen
        if timer:
            old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            yield out
        finally:
            elapsed = perf_counter() - t0
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            out.seconds = elapsed - (self.stolen - stolen)
            out.levels = self.times[first:]


def scale(seconds: float, levels: list[float]) -> float:
    """``seconds`` at the nominal speed, given the reference times around it."""
    return seconds * NOMINAL_S * len(levels) / sum(levels)
