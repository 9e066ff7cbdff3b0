"""The fleet monitor: wiring, query recording, trace sampling, and the
text console."""

import pytest

from repro.cluster.membership import MembershipTracker
from repro.decompose import Strategy
from repro.obs import SLO, BurnRatePolicy, FleetMonitor, render_fleet
from repro.runtime import FederationEngine, Transport
from repro.runtime.clock import REAL_CLOCK, VirtualClock

from tests.cluster.chaos_harness import ChaosHarness, ChaosSchedule
from tests.cluster.conftest import make_cluster, virtual_wire

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


class TestFleetMonitorWiring:

    def test_attach_wires_every_surface(self):
        cluster = make_cluster()
        monitor = FleetMonitor().attach(cluster)
        assert cluster.monitor is monitor
        assert cluster.transport.events is monitor.events
        assert cluster.catalog.events is monitor.events

    def test_unmonitored_federation_stays_unwired(self):
        cluster = make_cluster()
        assert cluster.monitor is None
        assert cluster.transport.events is None
        result = cluster.run(SCAN, at="local",
                             strategy=Strategy.BY_PROJECTION)
        assert len(result.items) == 10

    def test_kill_and_revive_emit_events(self):
        cluster = make_cluster()
        monitor = FleetMonitor().attach(cluster)
        cluster.transport.kill_peer("node2")
        cluster.transport.kill_peer("node2")  # no-op: already down
        cluster.transport.revive_peer("node2")
        assert monitor.events.count("peer_down") == 1
        assert monitor.events.count("peer_up") == 1

    def test_degrade_and_restore_emit_events(self):
        cluster = make_cluster()
        monitor = FleetMonitor().attach(cluster)
        with pytest.raises(ValueError):
            cluster.transport.degrade_peer("node2", -1.0)
        cluster.transport.degrade_peer("node2", 0.001)
        cluster.transport.restore_peer("node2")
        cluster.transport.restore_peer("node2")  # no-op: not slow
        assert monitor.events.count("peer_degraded") == 1
        assert monitor.events.count("peer_restored") == 1

    def test_catalog_changes_emit_epoch_bumps(self):
        cluster = make_cluster()
        monitor = FleetMonitor().attach(cluster)
        cluster.peer_view.mark_down("node2")
        cluster.peer_view.mark_down("node2")  # no transition, no epoch
        cluster.peer_view.mark_up("node2")
        bumps = monitor.events.recent(kind="epoch_bump")
        assert [e.attrs["reason"] for e in bumps] == ["mark_down",
                                                     "mark_up"]
        assert all(e.attrs["peer"] == "node2" for e in bumps)


class TestOneClockOneWire:
    """Whatever is attached to a federation runs on the clock its wire
    keeps, and follows whichever wire is installed."""

    def test_attached_monitor_runs_on_the_wires_clock(self):
        cluster = make_cluster(transport=virtual_wire())
        clock = cluster.transport.clock
        monitor = FleetMonitor(width_s=1.0, buckets=4)
        assert monitor.clock is REAL_CLOCK          # until attached
        monitor.add_slo(SLO("latency", target=0.5, threshold_s=0.010))
        monitor.attach(cluster)                     # no clock= handed over
        assert monitor.clock is monitor.events.clock is clock
        clock.advance(100.0)
        cluster.transport.kill_peer("node2")
        (event,) = monitor.events.recent(kind="peer_down")
        assert event.perf_s == 100.0
        assert event.wall_ts == VirtualClock.EPOCH + 100.0
        # Windows built before the attach (latency, the SLO's) rotate
        # on the adopted clock too.
        monitor.record_query(0.020)
        assert monitor.latency.count() == 1
        assert monitor.slo.states()[0].window.count() == 1
        clock.advance(4.0)
        assert monitor.latency.count() == 0
        assert monitor.uptime_s() == 104.0

    def test_explicit_clock_wins_over_the_wires(self):
        own = VirtualClock(7.0)
        cluster = make_cluster(transport=virtual_wire())
        monitor = FleetMonitor(clock=own).attach(cluster)
        assert monitor.clock is monitor.events.clock is own

    def test_measured_latency_is_virtual(self):
        """The seconds fed into the windows are read off the same
        clock the windows rotate on."""
        cluster = make_cluster(transport=virtual_wire())
        monitor = FleetMonitor().attach(cluster)
        before = cluster.transport.clock.now
        result = cluster.run(SCAN, at="local",
                             strategy=Strategy.BY_PROJECTION)
        elapsed = cluster.transport.clock.now - before
        assert elapsed == pytest.approx(result.stats.times.network)
        assert monitor.latency.sum() == pytest.approx(elapsed)
        for peer in monitor.health.peers():
            assert monitor.health.health(peer).mean_latency_s > 0.0

    def test_installed_wire_is_the_one_the_monitor_hears(self):
        """An engine has no wire of its own: a peer killed on the wire
        its queries run on reaches the attached monitor, also when that
        wire was installed after the attach."""
        cluster = make_cluster()
        monitor = FleetMonitor().attach(cluster)
        first = cluster.transport
        cluster.transport = Transport(cluster.cost_model)
        assert cluster.transport.events is monitor.events
        with FederationEngine(cluster, max_workers=2, cache=False) as engine:
            cluster.transport.kill_peer("node2")
            engine.submit(SCAN, "local").result()
        assert monitor.events.count("peer_down") == 1
        assert monitor.events.count("failover") >= 1
        assert first.wire_summary() == {}           # nothing ran there

    def test_membership_and_harness_run_on_the_wires_clock(self):
        cluster = make_cluster(transport=virtual_wire())
        clock = cluster.transport.clock
        tracker = MembershipTracker(width_s=0.5, buckets=4).attach(cluster)
        cluster.transport.kill_peer("node2")
        for _ in range(4):
            tracker.tick()
        assert tracker.phi("node2") > 0.0
        clock.advance(10.0)             # the evidence ages out, virtually
        assert tracker.phi("node2") == 0.0
        cluster.transport.revive_peer("node2")
        tracker.rejoin("node2")
        started = clock.now
        report = ChaosHarness(
            cluster, ChaosSchedule(steps=2, events=()),
            queries=[(SCAN, None)], serialize=lambda items: None).run()
        # Latencies are virtual seconds: positive (modelled network
        # time), and no more of them than the clock moved (its probe
        # ticks took the rest).
        assert len(report.latencies_s) == report.queries > 0
        assert all(latency > 0.0 for latency in report.latencies_s)
        assert sum(report.latencies_s) < clock.now - started


class TestQueryRecording:

    def test_record_query_feeds_windows_and_slo(self):
        clock = VirtualClock()
        monitor = FleetMonitor(clock=clock)
        monitor.add_slo(SLO(name="lat", target=0.9, threshold_s=0.05),
                        BurnRatePolicy(long_s=10.0, short_s=1.0,
                                       threshold=5.0, min_requests=5))
        for _ in range(10):
            monitor.record_query(0.2, ok=True)
        assert monitor.latency.count() == 10
        assert monitor.error_rate() == 0.0
        assert monitor.events.count("alert_fired") == 1
        monitor.record_query(0.2, ok=False)
        assert monitor.error_rate() == pytest.approx(1 / 11)

    def test_slow_query_event_has_threshold(self):
        monitor = FleetMonitor(clock=VirtualClock(), slow_query_s=0.1)
        monitor.record_query(0.05)
        monitor.record_query(0.5)
        monitor.record_query(0.5, ok=False)  # failures are not "slow"
        assert monitor.events.count("slow_query") == 1
        (event,) = monitor.events.recent(kind="slow_query")
        assert event.attrs["wall_s"] == 0.5

    def test_should_sample_trace_cadence(self):
        monitor = FleetMonitor(clock=VirtualClock(), profile_every=3)
        decisions = [monitor.should_sample_trace() for _ in range(9)]
        assert decisions == [False, False, True] * 3
        off = FleetMonitor(clock=VirtualClock())
        assert not any(off.should_sample_trace() for _ in range(10))

    def test_snapshot_is_plain_data(self):
        monitor = FleetMonitor(clock=VirtualClock())
        monitor.record_query(0.01)
        snap = monitor.snapshot()
        assert snap["queries"]["count"] == 1
        assert snap["error_rate"] == 0.0
        assert snap["profile_samples"] == 0
        assert isinstance(snap["peers"], list)
        assert isinstance(snap["slos"], list)

    def test_federation_run_records_queries(self):
        cluster = make_cluster()
        monitor = FleetMonitor().attach(cluster)
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
        assert monitor.latency.count() == 1
        assert monitor.error_rate() == 0.0

    def test_query_path_takes_no_registry_snapshot(self, monkeypatch):
        """A monitored query used to pay one full ``registry.snapshot()``
        — three sorts of the ever-growing latency observation list — to
        feed windows nothing read. The fold at the end of a run moves
        only the series it counts."""
        cluster = make_cluster(transport=virtual_wire())
        FleetMonitor().attach(cluster)
        calls = {"snapshot": 0}
        original = cluster.metrics.snapshot

        def counting():
            calls["snapshot"] += 1
            return original()

        monkeypatch.setattr(cluster.metrics, "snapshot", counting)
        with FederationEngine(cluster, max_workers=1,
                              cache=False) as engine:
            for _ in range(7):
                engine.submit(SCAN, "local").result()
        assert calls["snapshot"] == 0
        assert cluster.metrics.get("scatter_calls_total").get(
            "books-c").value == 7
        assert cluster.metrics.get("query_completed_total").value == 7

    def test_failed_run_records_an_error(self):
        cluster = make_cluster()
        monitor = FleetMonitor().attach(cluster)
        with pytest.raises(Exception):
            cluster.run("doc(", at="local",
                        strategy=Strategy.BY_PROJECTION)
        assert monitor.latency.count() == 1
        assert monitor.error_rate() == 1.0

    def test_engine_samples_traces_into_profiler(self):
        cluster = make_cluster()
        monitor = FleetMonitor(profile_every=2).attach(cluster)
        with FederationEngine(cluster, max_workers=2) as engine:
            futures = [engine.submit(SCAN, at="local") for _ in range(6)]
            for future in futures:
                future.result()
        assert monitor.profiler.samples == 3
        assert monitor.profiler.stacks("sim")  # non-empty fold

    def test_explicit_trace_also_feeds_profiler(self):
        cluster = make_cluster()
        monitor = FleetMonitor().attach(cluster)
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION,
                    trace=True)
        assert monitor.profiler.samples == 1


class TestConsole:

    def test_render_empty_monitor(self):
        monitor = FleetMonitor(clock=VirtualClock())
        text = render_fleet(monitor)
        assert text.startswith("== fleet @ 0.0s up | 0 queries")
        assert "peers:" not in text
        assert "alerts:" not in text
        assert "events" not in text

    def test_render_full_fleet(self):
        cluster = make_cluster(transport=virtual_wire())
        monitor = FleetMonitor().attach(cluster)
        monitor.add_slo(SLO(name="lat", target=0.9, threshold_s=0.05),
                        BurnRatePolicy(long_s=10.0, short_s=1.0,
                                       threshold=5.0, min_requests=5))
        for _ in range(10):
            monitor.record_query(0.2)
            cluster.peer_view.record("node1", 0.001, True)
            cluster.peer_view.record("node2", 0.100, True)
        text = render_fleet(monitor)
        assert "10 queries" in text
        assert "latency     : p50" in text
        assert "node1  OK" in text
        assert "node2  DEGRADED" in text
        assert "FIRING lat:" in text
        assert "(fired 1x)" in text
        assert "[error] alert_fired" in text

    def test_render_is_deterministic(self):
        clock = VirtualClock()
        monitor = FleetMonitor(clock=clock)
        monitor.record_query(0.01)
        monitor.health.record("b", 0.001)
        monitor.health.record("a", 0.001)
        assert render_fleet(monitor) == render_fleet(monitor)
        # Peers render sorted by name regardless of arrival order.
        text = render_fleet(monitor)
        assert text.index("  a ") < text.index("  b ")

    def test_recent_events_limit(self):
        monitor = FleetMonitor(clock=VirtualClock())
        for index in range(12):
            monitor.events.emit("tick", f"t{index}")
        text = render_fleet(monitor, recent_events=3)
        assert "events (last 3 of 12):" in text
        assert "t11" in text and "t8" not in text
