"""Machine-speed gauge: a fixed pure-Python probe sampled during each timed step.

The host the benchmark runs on is shared, and its speed for pure-Python
code swings by up to half over fractions of a second to minutes, whatever
the program does (a busy neighbour on the sibling hyperthread is enough).
So while a timed step (a set-up or a pass) runs, a timer signal
interrupts it every ``PROBE_INTERVAL_S`` of wall time and times a fixed
probe.  Each probe gives the machine's speed at that moment,
``NOMINAL_PROBE_S / probe time``; their mean is the step's mean speed, and
the step's wall time is rescaled to what it would have been at nominal
speed:

    adjusted = wall * mean(NOMINAL_PROBE_S / probe time)

A change to fusemine moves the wall time and leaves the probe alone, so it
moves the adjusted time in full; a slow phase of the host moves both.
``clock()`` is a wall clock that stops while a probe runs, so probes never
count as the program's time.

The probe does what fusemine's learners do most: it sorts rows, counts
classes in a dict and takes logs of fractions, with plain function calls.
It works in place on its own rows and counts and creates no object the
garbage collector tracks, so it neither triggers nor shifts the program's
collections.  Do not change ``_probe``, ``ROWS`` or ``NOMINAL_PROBE_S``:
every recorded median is in units of this probe.
"""

from __future__ import annotations

import math
import operator
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Median time of one ``_probe()`` on an idle 2-vCPU Intel Xeon VM with
#: CPython 3.11.7; it sets the scale of the adjusted seconds.
NOMINAL_PROBE_S = 0.00010
#: Wall time between probes; a probe costs about 2 % of it.
PROBE_INTERVAL_S = 0.005

ROWS = [((i * 7919) % 101, (i * 104729) % 13, (i * 31) % 3) for i in range(40)]
CLASSES = (0, 1, 2)
_KEYS = (operator.itemgetter(0), operator.itemgetter(1))
_COUNTS = dict.fromkeys(CLASSES, 0)

# Running totals, not a list of readings: the handler keeps no object
# alive, so it cannot pin memory that the program frees around it.
_paused = 0.0     # wall seconds spent in probes so far
_probes = 0       # probes of the running step
_speed_sum = 0.0  # and the sum of their speeds


def clock() -> float:
    """Wall-clock seconds, stopped while a probe runs."""
    return time.perf_counter() - _paused


def _entropy(counts: dict, n: int) -> float:
    h = 0.0
    for c in CLASSES:
        k = counts[c]
        if k:
            p = k / n
            h -= p * math.log(p)
    return h


def _probe() -> float:
    best = 0.0
    for key in _KEYS:
        ROWS.sort(key=key)
        for c in CLASSES:
            _COUNTS[c] = 0
        for n in range(1, len(ROWS)):
            _COUNTS[ROWS[n - 1][2]] += 1
            best = max(best, _entropy(_COUNTS, n))
    return best


def _on_alarm(signum, frame) -> None:
    global _paused, _probes, _speed_sum
    entered = time.perf_counter()
    _probe()
    _speed_sum += NOMINAL_PROBE_S / (time.perf_counter() - entered)
    _probes += 1
    _paused += time.perf_counter() - entered


@dataclass
class Reading:
    """One gauged step, filled in when it ends."""

    seconds: float = 0.0  # wall time, probes excluded
    factor: float = 1.0   # mean probe speed: wall-to-adjusted factor

    @property
    def adjusted(self) -> float:
        return self.seconds * self.factor


@contextmanager
def gauged():
    """Probe the machine's speed while the block runs; yields its ``Reading``.

    A block too short for one probe keeps the factor 1.
    """
    global _probes, _speed_sum
    reading = Reading()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    _probes, _speed_sum = 0, 0.0
    start = clock()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        yield reading
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
        reading.seconds = clock() - start
        if _probes:
            reading.factor = _speed_sum / _probes
