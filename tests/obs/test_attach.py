"""A federation's event log and health scorer: each installed by one
``attach`` call, both on the clock of whichever wire is installed."""

import json

import pytest

from repro.clock import REAL_CLOCK, VirtualClock
from repro.cluster import membership
from repro.cluster.membership import MembershipTracker
from repro.cluster.rebalance import Reconciler
from repro.decompose import Strategy
from repro.obs import EventLog, HealthTracker, health
from repro.runtime import FederationEngine, Transport

from tests.cluster.chaos_harness import ChaosHarness, ChaosSchedule
from tests.cluster.conftest import (NODES, make_cluster,
                                   make_single_owner, observe,
                                   virtual_wire)

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


class TestWiring:

    def test_attach_wires_every_surface(self):
        cluster = make_cluster()
        events = EventLog().attach(cluster)
        tracker = HealthTracker().attach(cluster)
        assert cluster.events is events
        assert cluster.transport.events is events
        assert cluster.catalog.events is events
        assert cluster.peer_view.health is tracker
        assert tracker.events is events

    def test_a_bare_federation_stays_unwired(self):
        cluster = make_cluster()
        assert cluster.events is None
        assert cluster.transport.events is None
        assert cluster.peer_view.health is None
        result = cluster.run(SCAN, at="local",
                             strategy=Strategy.BY_PROJECTION)
        assert len(result.items) == 10

    def test_kill_and_revive_emit_events(self):
        cluster = make_cluster()
        events = EventLog().attach(cluster)
        cluster.transport.kill_peer("node2")
        cluster.transport.kill_peer("node2")  # no-op: already down
        cluster.transport.revive_peer("node2")
        assert events.count("peer_down") == 1
        assert events.count("peer_up") == 1

    def test_degrade_and_restore_emit_events(self):
        cluster = make_cluster()
        events = EventLog().attach(cluster)
        with pytest.raises(ValueError):
            cluster.transport.degrade_peer("node2", -1.0)
        cluster.transport.degrade_peer("node2", 0.001)
        cluster.transport.restore_peer("node2")
        cluster.transport.restore_peer("node2")  # no-op: not slow
        assert events.count("peer_degraded") == 1
        assert events.count("peer_restored") == 1

    def test_catalog_changes_emit_epoch_bumps(self):
        cluster = make_cluster()
        events = EventLog().attach(cluster)
        cluster.peer_view.mark_down("node2")
        cluster.peer_view.mark_down("node2")  # no transition, no epoch
        cluster.peer_view.mark_up("node2")
        bumps = events.recent(kind="epoch_bump")
        assert [e.attrs["reason"] for e in bumps] == ["mark_down",
                                                     "mark_up"]
        assert all(e.attrs["peer"] == "node2" for e in bumps)

    def test_an_unsharded_federation_takes_both(self):
        """No catalog to hand the log to: the wire still emits into it.
        The scorer is installed, and hears nothing: only a scatter's
        attempts at a replica are evidence."""
        federation = make_single_owner()
        events = EventLog().attach(federation)
        tracker = HealthTracker().attach(federation)
        assert federation.catalog is None
        assert federation.events is federation.transport.events is events
        federation.run(SCAN.replace("xrpc://books-c", "xrpc://owner"),
                       at="local", strategy=Strategy.BY_PROJECTION)
        assert federation.peer_view.health is tracker
        assert tracker.health("owner").samples == 0
        federation.transport.kill_peer("owner")
        assert events.count("peer_down") == 1

    def test_a_second_log_replaces_the_first_everywhere(self):
        cluster = make_cluster()
        first = EventLog().attach(cluster)
        second = EventLog().attach(cluster)
        assert cluster.events is cluster.transport.events is second
        assert cluster.catalog.events is second
        cluster.transport.kill_peer("node2")
        cluster.peer_view.mark_down("node2")
        assert len(first) == 0
        assert [e.kind for e in second.recent()] == ["peer_down",
                                                     "epoch_bump"]

    def test_a_swapped_wire_of_a_bare_federation_stays_unwired(self):
        cluster = make_cluster()
        cluster.transport = Transport(cluster.cost_model)
        assert cluster.events is None
        assert cluster.transport.events is None
        cluster.transport.kill_peer("node1")        # nothing to log to
        result = cluster.run(SCAN, at="local",
                             strategy=Strategy.BY_PROJECTION)
        assert len(result.items) == 10

    def test_a_scorer_without_a_log_judges_silently(self):
        cluster = make_cluster(transport=virtual_wire())
        tracker = HealthTracker().attach(cluster)
        assert tracker.events is None
        view = cluster.peer_view
        for _ in range(5):
            view.record("node1", 0.001, True)
            view.record("node2", 0.100, True)
        assert not view.healthy("node2")
        assert view.healthy("node1")

    def test_what_is_built_after_the_log_emits_into_it(self):
        cluster = make_cluster()
        events = observe(cluster)
        tracker = MembershipTracker().attach(cluster)
        reconciler = Reconciler().attach(cluster)
        assert tracker.events is events
        assert reconciler.events is reconciler.executor.events is events
        with FederationEngine(cluster, max_workers=1) as engine:
            assert engine.cache.events is events


class TestOneClockOneWire:
    """Whatever is attached to a federation runs on the clock its wire
    keeps, and follows whichever wire is installed."""

    def test_attached_log_and_scorer_run_on_the_wires_clock(self):
        cluster = make_cluster(transport=virtual_wire())
        clock = cluster.transport.clock
        events, tracker = EventLog(), HealthTracker()
        assert events.clock is REAL_CLOCK           # until attached
        events.attach(cluster)
        tracker.attach(cluster)
        assert events.clock is clock
        clock.advance(100.0)
        cluster.transport.kill_peer("node2")
        (event,) = events.recent(kind="peer_down")
        assert event.perf_s == 100.0
        assert event.wall_ts == VirtualClock.EPOCH + 100.0
        # The scorer's windows rotate on the adopted clock.
        cluster.peer_view.record("node1", 0.001, True)
        assert tracker.health("node1").samples == 1
        clock.advance(health.WIDTH_S * health.BUCKETS)
        assert tracker.health("node1").samples == 0

    def test_the_scorer_follows_a_swapped_wires_clock(self):
        """The scorer reads the clock of whichever wire is installed,
        not the one it was attached beside."""
        cluster = make_cluster(transport=virtual_wire())
        tracker = HealthTracker().attach(cluster)
        cluster.transport = virtual_wire()
        clock = cluster.transport.clock
        cluster.peer_view.record("node1", 0.001, True)
        assert tracker.health("node1").samples == 1
        clock.advance(health.WIDTH_S * health.BUCKETS)
        assert tracker.health("node1").samples == 0

    def test_the_exported_log_reads_the_wires_time(self, tmp_path):
        cluster = make_cluster(transport=virtual_wire())
        events = EventLog().attach(cluster)
        cluster.transport.clock.advance(5.0)
        cluster.transport.kill_peer("node3")
        path = tmp_path / "events.jsonl"
        assert events.export_jsonl(path) == 1
        (line,) = [json.loads(text) for text in
                   path.read_text().splitlines()]
        assert (line["kind"], line["perf_s"], line["wall_ts"]) == (
            "peer_down", 5.0, VirtualClock.EPOCH + 5.0)
        assert line["attrs"] == {"peer": "node3"}

    def test_measured_latency_is_virtual(self):
        """The seconds the scorer is fed are read off the same clock
        its windows rotate on."""
        cluster = make_cluster(transport=virtual_wire())
        tracker = HealthTracker().attach(cluster)
        before = cluster.transport.clock.now
        result = cluster.run(SCAN, at="local",
                             strategy=Strategy.BY_PROJECTION)
        elapsed = cluster.transport.clock.now - before
        assert elapsed == pytest.approx(result.stats.times.network)
        scored = [peer for peer in NODES if tracker.health(peer).samples]
        assert scored
        for peer in scored:
            assert tracker.health(peer).mean_latency_s > 0.0

    def test_installed_wire_is_the_one_the_log_hears(self):
        """An engine has no wire of its own: a peer killed on the wire
        its queries run on reaches the attached log, also when that
        wire was installed after the attach — and so does its clock."""
        cluster = make_cluster()
        events = observe(cluster)
        first = cluster.transport
        cluster.transport = Transport(cluster.cost_model,
                                      clock=VirtualClock(7.0))
        assert cluster.transport.events is events
        assert events.clock is cluster.transport.clock
        with FederationEngine(cluster, max_workers=2, cache=False) as engine:
            cluster.transport.kill_peer("node1")    # in the first cover
            engine.submit(SCAN, "local").result()
        assert events.count("peer_down") == 1
        assert events.count("failover") >= 1
        assert events.recent(kind="peer_down")[0].perf_s == 7.0
        assert first.wire_summary() == {}           # nothing ran there

    def test_membership_and_harness_run_on_the_wires_clock(self):
        cluster = make_cluster(transport=virtual_wire())
        clock = cluster.transport.clock
        tracker = MembershipTracker().attach(cluster)
        cluster.transport.kill_peer("node2")
        for _ in range(4):
            tracker.tick()
        assert tracker.phi("node2") > 0.0
        # The evidence ages out, virtually.
        clock.advance(membership.WIDTH_S * membership.BUCKETS)
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


def test_query_path_takes_no_registry_snapshot(monkeypatch):
    """An observed query used to pay one full ``registry.snapshot()``
    — three sorts of the ever-growing latency observation list — to
    feed windows nothing read. The fold at the end of a run moves only
    the series it counts."""
    cluster = make_cluster(transport=virtual_wire())
    observe(cluster)
    calls = {"snapshot": 0}
    original = cluster.metrics.snapshot

    def counting():
        calls["snapshot"] += 1
        return original()

    monkeypatch.setattr(cluster.metrics, "snapshot", counting)
    with FederationEngine(cluster, max_workers=1, cache=False) as engine:
        for _ in range(7):
            engine.submit(SCAN, "local").result()
    assert calls["snapshot"] == 0
    assert cluster.metrics.get("scatter_calls_total").get(
        "books-c").value == 7
    assert cluster.metrics.get("query_completed_total").value == 7
