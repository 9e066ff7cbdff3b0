"""Adaptive calibration: estimated-vs-observed feedback factors.

Static estimation cannot know a predicate's selectivity or how well a
projection compresses a particular document; the paper's cost flips
(Figures 7-9) hinge on exactly those quantities. The
:class:`CalibrationBook` closes the loop: after every run the planner
divides the observed :class:`~repro.net.stats.RunStats` quantities by
the plan's estimates and nudges per-peer multiplicative factors toward
the truth (geometric damping, so one outlier run cannot whipsaw the
planner). Repeated workloads therefore converge on the genuinely best
strategy even when the first pick was wrong.

Factors are keyed ``(kind, peer, semantics)``:

* ``("msg", dest, semantics)`` — message bytes for call sites at
  ``dest`` under one message semantics;
* ``("doc", owner, "")`` — shipped document bytes from ``owner``;
* ``("exec", origin, "")`` — execution seconds for queries
  originating at ``origin``.

Factors are applied when a plan is *priced*
(:func:`~repro.planner.ir.priced`, once per lookup), never when it is
lowered: a moving factor re-ranks a prepared query's candidates and
invalidates nothing, and a finished run's report keeps the vectors it
was picked by.
"""

from __future__ import annotations

import math
import threading

Key = tuple[str, str, str]

#: Damping exponent: factor *= (observed/estimated) ** ALPHA.
ALPHA = 0.5
#: Factors are clamped into [1/LIMIT, LIMIT].
LIMIT = 64.0


class CalibrationBook:
    """Thread-safe per-peer calibration factors (default 1.0)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._factors: dict[Key, float] = {}
        self._observations = 0

    def factor(self, kind: str, peer: str, semantics: str = "") -> float:
        with self._lock:
            return self._factors.get((kind, peer, semantics), 1.0)

    @property
    def observations(self) -> int:
        with self._lock:
            return self._observations

    def observe(self, kind: str, peer: str, semantics: str,
                estimated: float, observed: float) -> None:
        """Nudge one factor toward ``observed / estimated``."""
        if estimated <= 0.0 or observed <= 0.0:
            return
        ratio = observed / estimated
        with self._lock:
            key = (kind, peer, semantics)
            current = self._factors.get(key, 1.0)
            updated = current * math.pow(ratio, ALPHA)
            updated = min(max(updated, 1.0 / LIMIT), LIMIT)
            self._factors[key] = updated
            self._observations += 1

    def snapshot(self) -> dict[str, float]:
        """Factors keyed ``"kind:peer:semantics"`` (for tests and
        examples)."""
        with self._lock:
            return {
                ":".join(part for part in key): round(value, 6)
                for key, value in sorted(self._factors.items())
            }
