"""The one seam through which time enters the request, control and
observability paths.

A :class:`Clock` is a callable returning monotonic seconds (it fits
every ``clock=`` slot) that can also ``sleep`` and read the ``wall``
calendar. The wire keeps the federation's (``Transport(clock=)``);
delays, timeouts, backoff, latencies, spans, events and windows all
read it, so on a :class:`VirtualClock` a seeded drill is a pure
function of its seed. Besides this module only the CPU stopwatches of
``xmldb/index.py`` and ``xmldb/values.py`` import ``time``.
"""

from __future__ import annotations

import threading
import time


class Clock:
    """Real time, on one timebase (``perf_counter``)."""

    __slots__ = ()

    #: A sleep passes wall time that other threads can overlap (what
    #: ``Transport.can_sleep`` asks before a scatter spends threads).
    blocking = True

    __call__ = staticmethod(time.perf_counter)
    sleep = staticmethod(time.sleep)
    wall = staticmethod(time.time)


#: The default of every ``clock=`` parameter.
REAL_CLOCK = Clock()


class VirtualClock(Clock):
    """Time that passes only when told to (``advance`` / ``sleep``).
    One shared timeline *adds* concurrent sleeps instead of
    overlapping them: a virtual-time drill runs one client at a time."""

    __slots__ = ("now", "_lock")

    blocking = False

    #: ``wall()`` at ``now == 0`` (2009-03-29Z): fixed, so logs replay.
    EPOCH = 1238284800.0

    def __init__(self, now: float = 0.0):
        self.now = now
        self._lock = threading.Lock()

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        with self._lock:
            self.now += seconds

    sleep = advance

    def wall(self) -> float:
        return self.EPOCH + self.now
