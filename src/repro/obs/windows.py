"""Rolling time-window aggregation: ring-buffer buckets over a clock.

PR 6's :class:`~repro.obs.metrics.MetricsRegistry` answers *cumulative*
questions — totals since process start. Fleet operations need the
*windowed* view: "what is the p99 over the last 30 seconds", "how fast
are failovers happening right now". This module provides that layer,
over the registry's :class:`~repro.obs.metrics.QuantileSketch`
(DDSketch-style logarithmic buckets: any quantile of a non-negative
stream within relative error ``eps`` in O(log range) memory, and
sketches merge exactly — which is what makes per-bucket percentiles
composable into per-window percentiles):

* :class:`RollingWindow` — a ring of ``buckets`` time buckets, each
  ``width_s`` seconds wide on the supplied ``clock`` (real time by
  default; tests and drills pass a ``VirtualClock``). Observations
  land in the current bucket; reads merge the most recent buckets into
  windowed ``count`` / ``sum`` / ``mean`` / ``rate`` / ``quantile``.
  Rotation is lazy (no timer thread): every observe/read advances the
  ring to the clock's current period, clearing buckets whose time has
  passed. A clock that jumps backwards (skew) never clears data —
  observations keep landing in the newest bucket; a jump forward past
  the whole ring clears everything.
* :class:`RollingWindowFamily` — per-label windows (one per peer),
  created lazily, sharing one configuration.

Everything here is thread-safe (one lock per window) and allocation-
light; nothing registers timers or threads, so an unused window is
exactly the memory it holds.
"""

from __future__ import annotations

import math
import threading

from repro.clock import REAL_CLOCK
from repro.obs.metrics import EPS, QuantileSketch


class _Bucket:
    """One time bucket of a rolling window."""

    __slots__ = ("count", "sum", "sketch")

    def __init__(self, eps: float | None):
        self.count = 0
        self.sum = 0.0
        self.sketch = QuantileSketch(eps) if eps is not None else None

    def clear(self, eps: float | None) -> None:
        self.count = 0
        self.sum = 0.0
        if eps is not None:
            self.sketch = QuantileSketch(eps)

    def add(self, value: float, count: int) -> None:
        self.count += count
        self.sum += value * count
        if self.sketch is not None:
            self.sketch.add(value, count)


class RollingWindow:
    """A ring of ``buckets`` time buckets, ``width_s`` seconds each.

    ``observe(value)`` lands in the bucket covering ``clock()``'s
    current period; reads merge the most recent buckets. Pass
    ``window_s`` to any read to restrict it to the last
    ``ceil(window_s / width_s)`` buckets (capped at the ring size) —
    one window therefore serves both the burn-rate rule's long and
    short horizons. ``eps=None`` disables the per-bucket quantile
    sketch for count/sum-only windows (error counters).
    """

    def __init__(self, width_s: float = 1.0, buckets: int = 60,
                 clock=REAL_CLOCK, eps: float | None = EPS):
        if width_s <= 0:
            raise ValueError(f"width_s {width_s} must be positive")
        if buckets < 1:
            raise ValueError(f"buckets {buckets} must be >= 1")
        self.width_s = width_s
        self.buckets = buckets
        self.clock = clock
        self.eps = eps
        self._ring = [_Bucket(eps) for _ in range(buckets)]
        self._period: int | None = None       # newest period seen
        self._first_period: int | None = None  # first observation ever
        self._lock = threading.Lock()

    # -- rotation -------------------------------------------------------------

    def _roll(self, now: float) -> None:
        """Advance the ring to ``now``'s period, clearing buckets whose
        time has passed. A backwards clock (skew) never clears: the
        window keeps its newest period and new observations land there.
        """
        period = math.floor(now / self.width_s)
        if self._period is None:
            self._period = period
            self._first_period = period
            return
        steps = period - self._period
        if steps <= 0:
            return
        if steps >= self.buckets:
            for bucket in self._ring:
                bucket.clear(self.eps)
        else:
            for offset in range(1, steps + 1):
                self._ring[(self._period + offset) % self.buckets].clear(
                    self.eps)
        self._period = period

    # -- writes ---------------------------------------------------------------

    def observe(self, value: float = 1.0, count: int = 1) -> None:
        with self._lock:
            self._roll(self.clock())
            self._ring[self._period % self.buckets].add(value, count)

    # -- reads ----------------------------------------------------------------

    def _recent(self, window_s: float | None) -> list[_Bucket]:
        """The most recent buckets covering ``window_s`` (whole ring
        when None), newest first. Caller holds the lock."""
        self._roll(self.clock())
        if self._period is None:
            return []
        if window_s is None:
            span = self.buckets
        else:
            span = min(self.buckets, max(1, math.ceil(window_s
                                                      / self.width_s)))
        return [self._ring[(self._period - offset) % self.buckets]
                for offset in range(span)]

    def count(self, window_s: float | None = None) -> int:
        with self._lock:
            return sum(bucket.count for bucket in self._recent(window_s))

    def sum(self, window_s: float | None = None) -> float:
        with self._lock:
            return math.fsum(bucket.sum
                             for bucket in self._recent(window_s))

    def mean(self, window_s: float | None = None) -> float:
        with self._lock:
            recent = self._recent(window_s)
            count = sum(bucket.count for bucket in recent)
            total = math.fsum(bucket.sum for bucket in recent)
        return total / count if count else 0.0

    def covered_s(self, window_s: float | None = None) -> float:
        """The seconds the windowed read actually covers: the requested
        span, shortened when the window has existed for less (so early
        ``rate()`` reads do not under-report)."""
        with self._lock:
            recent = self._recent(window_s)
            if self._period is None or self._first_period is None:
                return 0.0
            lived = (self._period - self._first_period + 1) * self.width_s
        return min(len(recent) * self.width_s, lived)

    def rate(self, window_s: float | None = None) -> float:
        """Observations per second over the window."""
        covered = self.covered_s(window_s)
        return self.count(window_s) / covered if covered > 0 else 0.0

    def quantile(self, q: float, window_s: float | None = None) -> float:
        """Windowed percentile (0-100) from the merged bucket sketches;
        raises if the window was built with ``eps=None``."""
        if self.eps is None:
            raise ValueError("window has no quantile sketch (eps=None)")
        merged = QuantileSketch(self.eps)
        with self._lock:
            for bucket in self._recent(window_s):
                if bucket.sketch is not None and bucket.sketch.count:
                    merged.merge(bucket.sketch)
        return merged.quantile(q)

    def snapshot(self, window_s: float | None = None) -> dict[str, float]:
        """The windowed readout in one dict (console / JSON export)."""
        out: dict[str, float] = {
            "count": self.count(window_s),
            "sum": self.sum(window_s),
            "mean": self.mean(window_s),
            "rate": self.rate(window_s),
        }
        if self.eps is not None:
            for q in (50, 95, 99):
                out[f"p{q}"] = self.quantile(q, window_s)
        return out


class RollingWindowFamily:
    """Per-label rolling windows (one per peer), created lazily with a
    shared configuration."""

    def __init__(self, width_s: float = 1.0, buckets: int = 60,
                 clock=REAL_CLOCK, eps: float | None = EPS):
        self.width_s = width_s
        self.buckets = buckets
        self.clock = clock
        self.eps = eps
        self._windows: dict[str, RollingWindow] = {}
        self._lock = threading.Lock()

    def labels(self, name: str) -> RollingWindow:
        window = self._windows.get(name)
        if window is None:
            with self._lock:
                window = self._windows.get(name)
                if window is None:
                    window = RollingWindow(self.width_s, self.buckets,
                                           self.clock, self.eps)
                    self._windows[name] = window
        return window

    def get(self, name: str) -> RollingWindow | None:
        """Non-creating read (absent labels stay absent)."""
        return self._windows.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._windows)
