"""The fleet monitor: one object owning the continuous-observability
surfaces and the wiring that connects them to a federation.

PR 6 gave each layer point-in-time telemetry (``MetricsRegistry``
counters, per-query span trees). :class:`FleetMonitor` composes the
continuous layer on top:

* a rolling latency/error window over the query stream
  (:mod:`repro.obs.windows`),
* the typed event log every wired subsystem emits into
  (:mod:`repro.obs.events`),
* SLO burn-rate alerting (:mod:`repro.obs.slo`),
* per-peer health scoring, whose demotions the federation's peer view
  holds and the router's replica order reads (:mod:`repro.obs.health`),
* a sampling profiler folding every Nth span tree
  (:mod:`repro.obs.profile`).

Wiring is opt-in and one call: ``monitor.attach(federation)`` sets
``federation.monitor``, hands the event log to the federation's wire
and catalog, the health scorer to its peer view, and puts the monitor
on the wire's clock (the real one until then). Every
instrumented site guards with a single ``is None`` check, preserving
the zero-cost-when-disabled discipline — a federation without a
monitor pays one attribute read per query, and the hot evaluator
paths pay nothing at all.
"""

from __future__ import annotations

import itertools

from repro.clock import REAL_CLOCK, Clock
from repro.obs.events import EventLog
from repro.obs.health import BUCKETS, WIDTH_S, HealthTracker
from repro.obs.profile import Profiler
from repro.obs.slo import SLO, BurnRatePolicy, SLOMonitor
from repro.obs.windows import RollingWindow

__all__ = ["FleetMonitor"]


class FleetMonitor:
    """Continuous observability for one federation.

    Usage::

        monitor = FleetMonitor(slow_query_s=0.050, profile_every=8)
        monitor.attach(federation)          # before building the engine
        monitor.add_slo(SLO("latency-p99", threshold_s=0.050))
        ... run workload ...
        print(render_fleet(monitor))
        monitor.events.export_jsonl("events.jsonl")
        monitor.profiler.write_folded("profile.folded")

    The attached federation's wire clock drives every window and
    timestamp (the real one until :meth:`attach`). ``slow_query_s``
    (None: off) is the latency above which a query emits
    ``slow_query``; ``profile_every=N`` makes the engine trace (and the
    profiler fold) every Nth query; 0 disables sampling.
    """

    def __init__(self, slow_query_s: float | None = None,
                 profile_every: int = 0):
        self.clock: Clock = REAL_CLOCK
        self.slow_query_s = slow_query_s
        self.profile_every = profile_every
        self.events = EventLog(clock=self.clock)
        now = self.now   # read per call: :meth:`wire` swaps the clock
        self.latency = RollingWindow(WIDTH_S, BUCKETS, now)
        self.errors = RollingWindow(WIDTH_S, BUCKETS, now, eps=None)
        self.health = HealthTracker(events=self.events, clock=now)
        self.slo = SLOMonitor(events=self.events, clock=now)
        self.profiler = Profiler()
        self.federation = None
        self.started_s = self.clock()
        self._sample_counter = itertools.count(1)

    def now(self) -> float:
        return self.clock()

    # -- wiring ---------------------------------------------------------------

    def attach(self, federation) -> "FleetMonitor":
        """Install this monitor on ``federation``: every run is recorded
        here when it ends, the wire and catalog emit events, and the
        peer view scores every router attempt here. Attach before
        building engines/catalogs where possible;
        ``Federation.attach_catalog`` re-wires a catalog attached
        later."""
        self.federation = federation
        federation.monitor = self
        federation.peer_view.health = self.health
        self.wire(federation.transport)
        if federation.catalog is not None:
            federation.catalog.events = self.events
        return self

    def wire(self, transport) -> None:
        """``transport`` is the federation's wire from now on: its
        events land here, and the monitor runs on its clock."""
        transport.events = self.events
        self.clock = self.events.clock = transport.clock
        self.started_s = self.clock()

    def add_slo(self, slo: SLO, policy: BurnRatePolicy | None = None):
        return self.slo.add(slo, policy)

    # -- the execution layer's hooks ------------------------------------------

    def record_query(self, wall_s: float, ok: bool = True) -> None:
        """One finished query: feed the windows, the SLO rules, and the
        slow-query detector."""
        self.latency.observe(wall_s)
        self.errors.observe(0.0 if ok else 1.0)
        if (self.slow_query_s is not None and ok
                and wall_s > self.slow_query_s):
            self.events.emit(
                "slow_query",
                f"query took {wall_s * 1000:.2f} ms "
                f"(threshold {self.slow_query_s * 1000:.2f} ms)",
                severity="warning", wall_s=wall_s)
        self.slo.record(wall_s, ok)

    def should_sample_trace(self) -> bool:
        """True on every ``profile_every``-th call — the engine's
        trace-sampling decision (always False when sampling is off)."""
        if self.profile_every <= 0:
            return False
        return next(self._sample_counter) % self.profile_every == 0

    def observe_trace(self, root) -> None:
        """Fold one closed span tree into the profiler."""
        self.profiler.record(root)

    # -- reads ----------------------------------------------------------------

    def uptime_s(self) -> float:
        return self.clock() - self.started_s

    def peer_health(self) -> list[dict]:
        """Every scored peer's health, each with its standing in the
        attached federation's peer view (healthy while unattached)."""
        view = getattr(self.federation, "peer_view", None)
        return [dict(entry, healthy=view is None
                     or view.healthy(entry["peer"]))
                for entry in self.health.snapshot()]

    def error_rate(self, window_s: float | None = None) -> float:
        count = self.errors.count(window_s)
        return self.errors.sum(window_s) / count if count else 0.0

    def snapshot(self, window_s: float | None = None) -> dict:
        """The whole continuous view as plain data (JSON-able)."""
        return {
            "uptime_s": self.uptime_s(),
            "queries": self.latency.snapshot(window_s),
            "error_rate": self.error_rate(window_s),
            "peers": self.peer_health(),
            "slos": self.slo.snapshot(),
            "event_counts": self.events.counts(),
            "profile_samples": self.profiler.samples,
        }
