"""Declarative SLOs evaluated by multi-window burn-rate rules.

An :class:`SLO` states an objective over the query stream — "99% of
queries finish under 50 ms" (``kind="latency"``) or "99.5% of queries
succeed without failover" (``kind="errors"``). The error budget is
``1 - target``; the **burn rate** is how fast the fleet is spending it:
``bad_fraction / budget``. Burn rate 1 spends exactly the budget; burn
rate 10 exhausts a day's budget in 2.4 hours.

:class:`BurnRatePolicy` is the standard multi-window rule: alert only
when *both* a long window and a short window exceed the burn-rate
threshold. The long window keeps one slow query from paging; the short
window makes the alert stop arming the moment the breach ends, so a
recovered fleet does not re-alert on stale history. Hysteresis — the
alert resolves only when the long-window burn falls under
``threshold * resolve_ratio`` — guarantees the fire/resolve pair
cannot flap around the threshold: one sustained breach produces
exactly one ``alert_fired`` event.

:class:`SLOMonitor` owns one rolling window per objective (bucket
width = short window; ring span = long window), classifies each
recorded query good/bad, and emits ``alert_fired`` / ``alert_resolved``
events on transitions.
"""

from __future__ import annotations

import math
from repro.clock import REAL_CLOCK
from repro.obs.events import EventLog
from repro.obs.windows import RollingWindow

__all__ = ["SLO", "BurnRatePolicy", "AlertState", "SLOMonitor"]


class SLO:
    """One objective over the query stream.

    ``kind="latency"``: a query is *bad* when ``wall_s > threshold_s``.
    ``kind="errors"``: a query is *bad* when it failed (or failed over,
    if the caller counts failovers as bad). ``target`` is the good
    fraction the objective promises (0.99 = 1% error budget).
    """

    __slots__ = ("name", "kind", "target", "threshold_s")

    def __init__(self, name: str, kind: str = "latency", target: float = 0.99,
                 threshold_s: float = 0.050) -> None:
        self.name = name
        self.kind = kind  # "latency" | "errors"
        self.target = target
        self.threshold_s = threshold_s  # latency SLOs only
        if self.kind not in ("latency", "errors"):
            raise ValueError(f"SLO kind {self.kind!r} unknown")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"SLO target {self.target} out of (0, 1)")

    @property
    def budget(self) -> float:
        return 1.0 - self.target


class BurnRatePolicy:
    """Multi-window burn-rate rule with hysteresis.

    Fire when burn rate >= ``threshold`` over *both* the ``long_s`` and
    ``short_s`` windows and the long window holds at least
    ``min_requests`` samples; resolve when the long-window burn falls
    under ``threshold * resolve_ratio``.
    """

    __slots__ = ("long_s", "short_s", "threshold", "resolve_ratio",
                 "min_requests")

    def __init__(self, long_s: float = 60.0, short_s: float = 5.0,
                 threshold: float = 10.0, resolve_ratio: float = 0.5,
                 min_requests: int = 10) -> None:
        self.long_s, self.short_s, self.threshold = long_s, short_s, threshold
        self.resolve_ratio, self.min_requests = resolve_ratio, min_requests
        if self.short_s <= 0 or self.long_s < self.short_s:
            raise ValueError(
                f"windows long_s={self.long_s} short_s={self.short_s} "
                "must satisfy 0 < short_s <= long_s")
        if not 0.0 < self.resolve_ratio <= 1.0:
            raise ValueError(
                f"resolve_ratio {self.resolve_ratio} out of (0, 1]")


class AlertState:
    """Mutable alert state for one objective."""

    __slots__ = ("slo", "policy", "window", "firing", "fired_total",
                 "fired_at", "last_burn_long", "last_burn_short")

    def __init__(self, slo: SLO, policy: BurnRatePolicy, window: RollingWindow,
                 firing: bool = False, fired_total: int = 0,
                 fired_at: float | None = None, last_burn_long: float = 0.0,
                 last_burn_short: float = 0.0) -> None:
        self.slo, self.policy, self.window = slo, policy, window
        self.firing, self.fired_total = firing, fired_total
        self.fired_at, self.last_burn_long = fired_at, last_burn_long
        self.last_burn_short = last_burn_short

    def snapshot(self) -> dict:
        return {
            "slo": self.slo.name,
            "kind": self.slo.kind,
            "target": self.slo.target,
            "firing": self.firing,
            "fired_total": self.fired_total,
            "burn_long": self.last_burn_long,
            "burn_short": self.last_burn_short,
        }


class SLOMonitor:
    """Evaluates SLO burn-rate rules over the live query stream.

    One good/bad rolling window per objective: bucket width is the
    policy's short window, the ring spans the long window, so a single
    window serves both horizons. ``record(wall_s, ok)`` classifies the
    query against every objective and evaluates transitions inline —
    no background thread.
    """

    def __init__(self, events: EventLog | None = None,
                 clock=REAL_CLOCK):
        self.events = events
        self.clock = clock
        self._states: list[AlertState] = []

    def add(self, slo: SLO,
            policy: BurnRatePolicy | None = None) -> AlertState:
        policy = policy if policy is not None else BurnRatePolicy()
        buckets = max(1, math.ceil(policy.long_s / policy.short_s))
        window = RollingWindow(width_s=policy.short_s, buckets=buckets,
                               clock=self.clock, eps=None)
        state = AlertState(slo=slo, policy=policy, window=window)
        self._states.append(state)
        return state

    # -- ingest ---------------------------------------------------------------

    def record(self, wall_s: float, ok: bool = True) -> None:
        """Classify one finished query against every objective, then
        evaluate transitions."""
        for state in self._states:
            if state.slo.kind == "latency":
                bad = not ok or wall_s > state.slo.threshold_s
            else:
                bad = not ok
            state.window.observe(1.0 if bad else 0.0)
        self.evaluate()

    # -- evaluation -----------------------------------------------------------

    def _burn(self, state: AlertState, window_s: float) -> tuple[float, int]:
        count = state.window.count(window_s)
        if count == 0:
            return 0.0, 0
        bad = state.window.sum(window_s)
        return (bad / count) / state.slo.budget, count

    def evaluate(self) -> None:
        """Re-check every rule; emit events on fire/resolve edges."""
        for state in self._states:
            policy = state.policy
            burn_long, count_long = self._burn(state, policy.long_s)
            burn_short, _ = self._burn(state, policy.short_s)
            state.last_burn_long = burn_long
            state.last_burn_short = burn_short
            if not state.firing:
                if (count_long >= policy.min_requests
                        and burn_long >= policy.threshold
                        and burn_short >= policy.threshold):
                    state.firing = True
                    state.fired_total += 1
                    state.fired_at = self.clock()
                    if self.events is not None:
                        self.events.emit(
                            "alert_fired",
                            f"SLO {state.slo.name}: burn rate "
                            f"{burn_long:.1f}x over {policy.long_s:g}s "
                            f"(threshold {policy.threshold:g}x)",
                            severity="error", slo=state.slo.name,
                            burn_long=burn_long, burn_short=burn_short)
            elif burn_long <= policy.threshold * policy.resolve_ratio:
                state.firing = False
                state.fired_at = None
                if self.events is not None:
                    self.events.emit(
                        "alert_resolved",
                        f"SLO {state.slo.name}: burn rate back to "
                        f"{burn_long:.1f}x",
                        severity="info", slo=state.slo.name,
                        burn_long=burn_long)

    # -- reads ----------------------------------------------------------------

    def states(self) -> list[AlertState]:
        return list(self._states)

    def active(self) -> list[AlertState]:
        return [state for state in self._states if state.firing]

    def snapshot(self) -> list[dict]:
        return [state.snapshot() for state in self._states]
