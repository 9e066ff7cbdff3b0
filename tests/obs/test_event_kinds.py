"""Every documented event kind reaches the log ``EventLog().attach``
installs.

``test_events.py::test_every_emitted_kind_is_documented`` reads the
source: each ``emit`` names a documented kind. This module drives the
running system: for each kind in ``obs/events.py``'s table, one
scenario on a sharded federation whose log and health scorer were
attached first (``tests/cluster/conftest.py: observe``) and whose
detector, reconciler and engine were built after — the order the
``attach`` docstrings ask for. Each scenario goes through the public
surface only (the wire's fault switches, the peer view, the detector's
tick, the reconciler's commands, ``Federation.run`` and the engine),
and the kind must arrive with its severity and the attributes its
emitter documents."""

import re

import pytest

from repro.cluster import create_sharded_collection
from repro.cluster.membership import MembershipTracker
from repro.cluster.rebalance import Reconciler
from repro.decompose import Strategy
from repro.obs import events as events_module
from repro.obs.health import BUCKETS, WIDTH_S
from repro.runtime import FederationEngine

from tests.cluster.conftest import (LIBRARY_CONTAINER, LIBRARY_MEMBER,
                                    library_document, make_cluster,
                                    observe, virtual_wire)

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")

#: Only the shard holding year 2003 can match; range partitioning lets
#: the value-index probes prove the other three empty.
MEMBER_FILTER = """
for $b in doc("xrpc://books-c/books.xml")/child::library
          /child::books/child::book
return if ($b/child::year = 2003) then $b/child::title else ()
"""

#: Only ``b0`` matches, and it lives in shard 0.
HOT = ('for $b in doc("xrpc://books-c/books.xml")'
       "/child::library/child::books/child::book "
       'return if ($b/attribute::id = "b0") then $b/child::title'
       " else ()")


def run(cluster, query=SCAN):
    return cluster.run(query, at="local", strategy=Strategy.BY_PROJECTION)


def controlled(cluster):
    """A detector and a reconciler, attached after the log."""
    tracker = MembershipTracker().attach(cluster)
    return tracker, Reconciler().attach(cluster)


# -- one scenario per emitter; each returns the attached log -----------------


def wire_faults():
    cluster = make_cluster()
    events = observe(cluster)
    wire = cluster.transport
    wire.kill_peer("node2")
    wire.revive_peer("node2")
    wire.degrade_peer("node2", 0.001)
    wire.restore_peer("node2")
    return events


def register_collection():
    cluster = make_cluster()
    events = observe(cluster)
    create_sharded_collection(
        cluster, cluster.catalog, name="books2-c",
        document=library_document("xrpc://books2-c/books.xml"),
        document_name="books2.xml", container_path=LIBRARY_CONTAINER,
        member=LIBRARY_MEMBER, shard_count=2, replication_factor=2,
        peers=["node1", "node2", "node3", "node4"])
    return events


def drain_and_undrain():
    cluster = make_cluster()
    events = observe(cluster)
    cluster.peer_view.drain("node4")
    cluster.peer_view.undrain("node4")
    return events


def failover():
    cluster = make_cluster()
    events = observe(cluster)
    cluster.transport.kill_peer("node1")    # in the first cover
    assert len(run(cluster).items) == 10
    return events


def skip_shards():
    cluster = make_cluster()
    events = observe(cluster)
    result = cluster.run(MEMBER_FILTER, at="local",
                         strategy=Strategy.BY_FRAGMENT)
    assert result.stats.shards_skipped == 3
    return events


def outdate_a_cached_response():
    cluster = make_cluster()
    events = observe(cluster)
    with FederationEngine(cluster, max_workers=1) as engine:
        for _ in range(2):      # successive covers rotate: cache both
            engine.submit(SCAN, "local").result()
        for node in ("node1", "node2", "node3", "node4"):
            cluster.peer(node).store("other.xml", "<other/>")
        assert len(engine.submit(SCAN, "local").result().items) == 10
    return events


def degrade_then_recover():
    """A replica slowed on the wire is demoted by the queries that meet
    it; once its slow samples age out, fresh fast evidence restores
    it."""
    cluster = make_cluster(transport=virtual_wire())
    events = observe(cluster)
    cluster.transport.degrade_peer("node2", 0.050)
    for _ in range(12):
        run(cluster)
    assert not cluster.peer_view.healthy("node2")
    cluster.transport.restore_peer("node2")
    cluster.transport.clock.advance(WIDTH_S * BUCKETS)
    for _ in range(10):
        for node in ("node1", "node2", "node3", "node4"):
            cluster.peer_view.record(node, 0.001, True)
    assert cluster.peer_view.healthy("node2")
    return events


def suspect_then_revive():
    cluster = make_cluster()
    events = observe(cluster)
    tracker, _ = controlled(cluster)
    cluster.transport.kill_peer("node2")
    for _ in range(2):
        tracker.tick()
    cluster.transport.revive_peer("node2")
    for _ in range(4):
        tracker.tick()
    assert tracker.view.state("node2") == "alive"
    return events


def evict_and_repair():
    cluster = make_cluster()
    events = observe(cluster)
    tracker, reconciler = controlled(cluster)
    cluster.transport.kill_peer("node1")
    for _ in range(6):
        tracker.tick()
    assert tracker.view.state("node1") == "evicted"
    assert reconciler.stats()["repairs_completed"] == 2
    return events


def repair_from_a_dying_source():
    """node2, the first source of shard 0 once node1 is evicted, is down
    at the wire only: the copy from it fails (a warning naming it) and
    fails over to node3."""
    cluster = make_cluster(replication_factor=3)
    events = observe(cluster)
    tracker, reconciler = controlled(cluster)
    cluster.transport.kill_peer("node2")
    tracker.evict("node1")
    assert reconciler.stats()["repairs_failed"] == 0
    return events


def plan_a_hot_split():
    cluster = make_cluster(shard_count=2)
    events = observe(cluster)
    _, reconciler = controlled(cluster)
    reconciler.plan()                       # baseline the heat window
    for _ in range(4):
        run(cluster, HOT)
    assert reconciler.plan()
    return events


def move_and_collect():
    cluster = make_cluster()
    events = observe(cluster)
    _, reconciler = controlled(cluster)
    source = cluster.catalog.get("books-c").shards[0].replicas[0]
    assert reconciler.move("books-c", 0, source)
    assert reconciler.collect() == 1
    return events


def move_onto_a_dead_target():
    """A dead destination abandons the move at once: one error."""
    cluster = make_cluster()
    events = observe(cluster)
    _, reconciler = controlled(cluster)
    shard = cluster.catalog.get("books-c").shards[0]
    target = next(node for node in ("node1", "node2", "node3", "node4")
                  if node not in shard.replicas)
    cluster.transport.kill_peer(target)
    assert not reconciler.move("books-c", 0, shard.replicas[0], target)
    return events


def split_with_nothing_splittable():
    cluster = make_cluster(shard_count=10)  # one member per shard
    events = observe(cluster)
    _, reconciler = controlled(cluster)
    assert not reconciler.chaos_split()
    return events


def drain_to_zero():
    cluster = make_cluster()
    events = observe(cluster)
    _, reconciler = controlled(cluster)
    assert reconciler.drain("node1")
    return events


def drain_with_nowhere_to_go():
    """Every other peer is draining already, so node1's shards have no
    target and it keeps its placements."""
    cluster = make_cluster()
    events = observe(cluster)
    for peer in ("node2", "node3", "node4", "local"):
        cluster.peer_view.drain(peer)
    _, reconciler = controlled(cluster)
    assert not reconciler.drain("node1")
    return events


#: kind -> (scenario, severity, attributes every such event carries)
SCENARIOS = {
    "failover": (failover, "warning",
                 {"collection", "shard", "replica", "next"}),
    "peer_down": (wire_faults, "error", {"peer"}),
    "peer_up": (wire_faults, "info", {"peer"}),
    "peer_degraded": (wire_faults, "warning", {"peer"}),
    "peer_restored": (wire_faults, "info", {"peer"}),
    "epoch_bump": (register_collection, "info", {"epoch", "reason"}),
    "peer_draining": (drain_and_undrain, "info", {"peer"}),
    "peer_undrained": (drain_and_undrain, "info", {"peer"}),
    "cache_invalidation": (outdate_a_cached_response, "info",
                           {"scope", "peer", "dest"}),
    "shard_skip": (skip_shards, "info", {"collection", "shard"}),
    "health_demoted": (degrade_then_recover, "warning",
                       {"peer", "score", "mean_latency_s", "error_rate"}),
    "health_restored": (degrade_then_recover, "info", {"peer", "score"}),
    "membership_suspect": (suspect_then_revive, "warning",
                           {"peer", "old", "new"}),
    "membership_dead": (evict_and_repair, "error", {"peer", "old", "new"}),
    "membership_alive": (suspect_then_revive, "info",
                         {"peer", "old", "new"}),
    "replica_evicted": (evict_and_repair, "error", {"peer", "old", "new"}),
    "repair_started": (evict_and_repair, "info",
                       {"collection", "shard", "source", "dest"}),
    "repair_completed": (evict_and_repair, "info",
                         {"collection", "shard", "source", "dest",
                          "bytes"}),
    "repair_failed": (repair_from_a_dying_source, "warning",
                      {"collection", "shard", "source", "error"}),
    "rebalance_planned": (plan_a_hot_split, "info", {"op"}),
    "rebalance_completed": (move_and_collect, "info",
                            {"collection", "shard", "op", "bytes"}),
    "rebalance_failed": (move_onto_a_dead_target, "error",
                         {"collection", "shard", "op", "reason"}),
    "rebalance_retired": (move_and_collect, "info", {"peer", "document"}),
    "rebalance_noop": (split_with_nothing_splittable, "info", {"op"}),
    "rebalance_drain_started": (drain_to_zero, "info", {"peer"}),
    "rebalance_drain_completed": (drain_to_zero, "info",
                                  {"peer", "remaining"}),
    "rebalance_drain_stalled": (drain_with_nowhere_to_go, "warning",
                                {"peer", "remaining"}),
}

DOCUMENTED = sorted(re.findall(r"^``(\w+)``", events_module.__doc__,
                               re.MULTILINE))


def test_every_documented_kind_has_a_scenario():
    assert sorted(SCENARIOS) == DOCUMENTED


@pytest.mark.parametrize("kind", DOCUMENTED)
def test_kind_reaches_the_attached_log(kind):
    scenario, severity, attrs = SCENARIOS[kind]
    events = scenario()
    logged = events.recent(kind=kind)
    assert logged, f"{scenario.__name__} logged no {kind}"
    assert events.count(kind) >= len(logged)
    first = logged[0]
    assert first.severity == severity
    assert attrs <= set(first.attrs), (kind, first.attrs)
    assert first.message
