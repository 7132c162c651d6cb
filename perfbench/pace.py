"""The speed probe: a fixed pure-Python event loop, sampled while units run.

The benchmark shares its host with other machines' work.  On the 2-vCPU
Xeon VM it was built on, the host switched within seconds between running the
same code at full speed and up to 1.8 times slower, and for stretches of
minutes to hours it ran everything up to 2.5 times slower.  Host times taken
at different moments therefore differ by more than any bound a regression
check could use.

So while a unit (or a start-up) runs, a wall-clock timer interrupts it every
``INTERVAL_S`` seconds and times one *tick* of the probe: a fixed small
amount of frozen benchmark code.  The tick times say how fast the host ran at
those moments.  A unit's host time, without the ticks, is then reported at
the *reference speed*: a unit that took ``t`` seconds while the ticks took
``h`` seconds (their harmonic mean: the ticks are evenly spaced in time, so
``1 / h`` is the host's average speed over the unit) counts as
``t * REFERENCE_TICK_S / h`` seconds.  On that VM this cut
the coefficient of variation of the three workloads' unit times from 9-15%
to 1-3%.

The probe is not the program: a change to ``src/`` moves the units' times and
not the ticks', so a faster program still reads faster.  It is a small
discrete-event loop (a heap of completion times with epoch-stale entries, a
dict of flow objects, per-link loads and float arithmetic), the kind of code
the simulator's engine and calendar run, so a slow moment of the host slows
it about as much as it slows the units.  It uses only the standard library,
so ``run.py`` times it too, before and after each workload, for the
provenance record.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
from itertools import islice
from time import perf_counter
from typing import List

#: seconds one tick takes at the reference speed; chosen so that reported
#: times about equal the host times of the 2-vCPU Xeon VM the benchmark was
#: built on, measured in a fast stretch of its host
REFERENCE_TICK_S = 0.00066
#: wall-clock seconds between ticks; a tick takes 2-3% of that
INTERVAL_S = 0.05
#: an operation shorter than a few ticks is scaled by the ticks within this
#: many seconds of it: the host's speed changes over seconds, not milliseconds
WINDOW_S = 0.25


def harmonic_mean(ticks: List[float]) -> float:
    return len(ticks) / sum(1.0 / tick for tick in ticks)


def at_reference_speed(seconds: float, tick_s: float) -> float:
    """``seconds`` measured while ticks took ``tick_s``, at the reference speed."""
    return seconds * REFERENCE_TICK_S / tick_s


class _Flow:
    __slots__ = ("link", "remaining", "rate", "stamp", "epoch")


class Probe:
    """A fixed amount of event-loop work; :meth:`tick` runs it once."""

    STEPS = 600
    FLOWS = 512
    LINKS = 16
    ACTIVE = 32
    #: flows re-rated when one completes
    FANOUT = 8

    def __init__(self) -> None:
        rng = random.Random(20261017)
        self.arrivals = [(rng.randrange(self.LINKS), 1.0 + rng.random())
                         for _ in range(self.FLOWS)]

    def tick(self) -> float:
        """Seconds one pass of the event loop takes now."""
        start = perf_counter()
        completed = self._events()
        seconds = perf_counter() - start
        if completed <= 0:
            raise RuntimeError("the speed probe completed no flow")
        return seconds

    def _events(self) -> int:
        flows = {}
        heap = []
        load = [0] * self.LINKS
        now = 0.0
        arrival = 0
        completed = 0
        for _ in range(self.STEPS):
            while len(flows) < self.ACTIVE:
                link, size = self.arrivals[arrival % self.FLOWS]
                flow = _Flow()
                flow.link, flow.remaining, flow.stamp, flow.epoch = link, size, now, 0
                load[link] += 1
                flow.rate = 1.0 / load[link]
                flows[arrival] = flow
                heapq.heappush(heap, (now + size / flow.rate, arrival, 0))
                arrival += 1
            due, fid, epoch = heapq.heappop(heap)
            flow = flows.get(fid)
            if flow is None or flow.epoch != epoch:
                continue  # stale: re-rated since it was pushed
            del flows[fid]
            now = max(now, due)
            load[flow.link] -= 1
            completed += 1
            for other_id, other in islice(flows.items(), self.FANOUT):
                other.remaining = max(0.0, other.remaining - (now - other.stamp) * other.rate)
                other.stamp = now
                other.rate = 1.0 / max(1, load[other.link])
                other.epoch += 1
                heapq.heappush(heap, (now + other.remaining / other.rate, other_id,
                                      other.epoch))
        return completed

    def idle_speed(self, ticks: int = 50) -> float:
        """Harmonic mean of back-to-back ticks: the host's speed right now."""
        return harmonic_mean([self.tick() for _ in range(ticks)])


class Sampler:
    """Ticks the probe every ``INTERVAL_S`` wall-clock seconds inside a block.

    :meth:`clock` is ``perf_counter`` minus the time spent ticking, so what
    the block times with it excludes the probe.  ``ticks`` holds the tick
    times of the current block and ``stamps`` when each began, on that
    clock; the first is taken on entry, so there is always one.
    """

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.ticks: List[float] = []
        self.stamps: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        start = perf_counter()
        self.stamps.append(start - self.spent)
        self.ticks.append(self.probe.tick())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        """Seconds on a clock that stops while the probe ticks."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no tick ran between the two reads
                return now - spent

    def speed(self) -> float:
        """Harmonic mean of the current block's ticks."""
        return harmonic_mean(self.ticks)

    def speed_around(self, start: float, seconds: float) -> float:
        """Harmonic mean of the ticks within ``WINDOW_S`` of an operation.

        ``start`` is on :meth:`clock`.  Falls back to the block's ticks when
        none is that close.
        """
        first = bisect.bisect_left(self.stamps, start - WINDOW_S)
        last = bisect.bisect_right(self.stamps, start + seconds + WINDOW_S)
        return harmonic_mean(self.ticks[first:last]) if last > first else self.speed()

    def __enter__(self) -> "Sampler":
        self.ticks = []
        self.stamps = []
        self._on_timer(signal.SIGALRM, None)
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
