"""Repair: the reconciler re-replicating short shards after evictions."""

import pytest

from repro.cluster import ClusterError
from repro.cluster.membership import EVICTED, MembershipTracker
from repro.cluster.rebalance import Reconciler
from repro.decompose import Strategy
from repro.system.federation import Federation
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import make_cluster, make_single_owner, observe

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


def expected_items():
    single = make_single_owner()
    result = single.run(SCAN.replace("xrpc://books-c", "xrpc://owner"),
                        at="local", strategy=Strategy.BY_PROJECTION)
    return serialize_sequence(result.items)


def evict(cluster, tracker, peer):
    cluster.transport.kill_peer(peer)
    for _ in range(8):
        if tracker.view.state(peer) == EVICTED:
            break
        tracker.tick()
    assert tracker.view.state(peer) == EVICTED


def serving(cluster, shard) -> list[str]:
    return [r for r in shard.replicas if cluster.peer_view.serves(r)]


def test_reconcile_finds_nothing_on_a_healthy_fleet():
    cluster = make_cluster()
    MembershipTracker().attach(cluster)
    reconciler = Reconciler().attach(cluster)
    epoch = cluster.catalog.epoch()
    assert reconciler.reconcile() == 0
    assert cluster.catalog.epoch() == epoch


def test_eviction_restores_target_replication():
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    reconciler = Reconciler().attach(cluster)
    epoch = cluster.catalog.epoch()
    evict(cluster, tracker, "node1")              # held shards 0 and 3
    assert cluster.catalog.epoch() > epoch
    assert reconciler.stats()["repairs_completed"] == 2
    # Healed shards are not healed again.
    assert reconciler.reconcile() == 0
    assert reconciler.stats()["repairs_completed"] == 2
    spec = cluster.catalog.get("books-c")
    for shard in spec.shards:
        assert len(shard.replicas) >= spec.replication_factor
        assert "node1" not in shard.replicas
        # Every registered replica actually holds the fragment.
        for replica in shard.replicas:
            peer = cluster.peer(replica)
            assert shard.local_name in peer.documents
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.failovers == 0


def test_eviction_triggers_repair():
    """The membership subscription closes the loop with no operator:
    evict → reconcile → re-replicate, in one transition callback."""
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    reconciler = Reconciler().attach(cluster)
    evict(cluster, tracker, "node2")
    stats = reconciler.stats()
    assert (stats["repairs_completed"], stats["repairs_failed"]) == (2, 0)
    spec = cluster.catalog.get("books-c")
    assert all(len(s.replicas) >= spec.replication_factor
               for s in spec.shards)


def test_reconcile_heals_what_an_unwatched_eviction_left():
    """A reconciler attached before the detector does not hear its
    evictions; the next reconcile finds the short shards in the
    catalog and heals them."""
    cluster = make_cluster()
    reconciler = Reconciler().attach(cluster)
    tracker = MembershipTracker().attach(cluster)
    evict(cluster, tracker, "node1")
    assert reconciler.stats()["repairs_completed"] == 0
    assert reconciler.reconcile() == 0
    assert reconciler.stats()["repairs_completed"] == 2
    spec = cluster.catalog.get("books-c")
    assert all(len(serving(cluster, s)) >= spec.replication_factor
               for s in spec.shards)


def test_source_death_mid_copy_fails_over_to_the_other_replica():
    """A copy fails over between sources as a scatter does between
    replicas: the source dying under it counts one failure against
    that source, is reported, and the next serving replica heals the
    shard in the same pass."""
    cluster = make_cluster(replication_factor=3)
    events = observe(cluster)
    tracker = MembershipTracker().attach(cluster)
    reconciler = Reconciler().attach(cluster)
    recorded, record = [], cluster.peer_view.record
    cluster.peer_view.record = lambda peer, seconds, ok: (
        recorded.append((peer, ok)), record(peer, seconds, ok))[1]
    assert cluster.catalog.get("books-c").shards[0].replicas \
        == ("node1", "node2", "node3")
    # node2, the first source of #s0 once node1 leaves, dies at the
    # wire only: the view still lets it serve, so the copy starts there.
    cluster.transport.kill_peer("node2")
    tracker.evict("node1")
    assert cluster.catalog.get("books-c").shards[0].replicas \
        == ("node2", "node3", "local")
    assert reconciler.stats()["repairs_failed"] == 0
    assert recorded.count(("node2", False)) == 1
    [failed] = events.recent(kind="repair_failed")
    assert (failed.severity, failed.message) == (
        "warning", "repair of books-c#s0 from node2 failed: PeerDownError")
    [healed] = [e for e in events.recent(kind="repair_completed")
                if e.attrs["shard"] == 0]
    assert healed.attrs["source"] == "node3"
    spec = cluster.catalog.get("books-c")
    assert all(len(serving(cluster, s)) >= spec.replication_factor
               for s in spec.shards)
    assert reconciler.reconcile() == 0
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()


def test_a_dark_destination_counts_against_it_and_is_not_sent_again():
    """A copy whose destination fails its read-back counts one failure
    against the destination, as a failed source does: the two copies
    abandoned on ``local`` make it suspect, so the shards heal on other
    peers and no later reconcile sends a copy there."""
    cluster = make_cluster()
    events = observe(cluster)
    tracker = MembershipTracker().attach(cluster)
    reconciler = Reconciler().attach(cluster)
    recorded, record = [], cluster.peer_view.record
    cluster.peer_view.record = lambda peer, seconds, ok: (
        recorded.append((peer, ok)), record(peer, seconds, ok))[1]
    assert reconciler.scorer.rank()[0] == "local"   # the first target
    cluster.transport.kill_peer("local")             # dark at the wire
    tracker.evict("node1")                           # held #s0 and #s3
    assert recorded == [("local", False)] * 2
    assert not cluster.peer_view.accepts("local")
    assert reconciler.stats()["repairs_failed"] == 2
    assert reconciler.stats()["repairs_completed"] == 2
    dests = [e.attrs["dest"] for e in events.recent(kind="repair_started")]
    assert dests.count("local") == 2 and len(dests) == 4
    assert reconciler.reconcile() == 0
    assert len(events.recent(kind="repair_started")) == 4
    spec = cluster.catalog.get("books-c")
    assert all("local" not in shard.replicas
               and len(serving(cluster, shard)) >= spec.replication_factor
               for shard in spec.shards)
    assert all("books.xml" not in name
               for name in cluster.peer("local").documents)


def test_every_source_dark_gives_the_repair_up_until_one_serves():
    """With every source dark at the wire, the copy tries each once —
    one warning apiece — then the plan is given up loudly, rolled back
    and the catalog left alone. The next reconcile after a revival
    heals the shard."""
    cluster = make_cluster(replication_factor=3)
    events = observe(cluster)
    tracker = MembershipTracker().attach(cluster)
    reconciler = Reconciler().attach(cluster)
    for peer in ("node2", "node3"):
        cluster.transport.kill_peer(peer)
    tracker.evict("node1")
    assert cluster.catalog.get("books-c").shards[0].replicas \
        == ("node2", "node3")
    assert reconciler.stats()["repairs_failed"] == 1
    failed = [e for e in events.recent(kind="repair_failed")
              if e.attrs["shard"] == 0]
    # The second pass, run because the first healed the other shards,
    # finds #s0 short again but does not run the plan it gave up.
    assert [e.severity for e in failed] == ["warning", "warning", "error"]
    assert [e.attrs.get("source") for e in failed[:2]] == ["node2", "node3"]
    assert failed[2].message == ("repair of books-c#s0 abandoned: all "
                                 "source replicas failed: node2, node3")
    assert all("books.xml#s0" not in cluster.peer(p).documents
               for p in ("node4", "local"))
    for peer in ("node2", "node3"):
        cluster.transport.revive_peer(peer)
    reconciler.reconcile()
    spec = cluster.catalog.get("books-c")
    assert all(len(serving(cluster, s)) >= spec.replication_factor
               for s in spec.shards)
    assert reconciler.reconcile() == 0
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()


def test_no_healthy_target_fails_loudly():
    cluster = make_cluster(nodes=["node1", "node2"])
    events = observe(cluster)
    tracker = MembershipTracker().attach(cluster)
    reconciler = Reconciler().attach(cluster)
    cluster.peer_view.mark_down("local")            # only spare target
    evict(cluster, tracker, "node1")
    assert reconciler.reconcile() > 0
    assert reconciler.stats()["repairs_failed"] > 0
    assert events.recent(kind="repair_failed")[-1].attrs[
        "reason"] == "no healthy target peer"


def test_repair_events_and_metrics():
    cluster = make_cluster()
    events = observe(cluster)
    tracker = MembershipTracker().attach(cluster)
    Reconciler().attach(cluster)
    evict(cluster, tracker, "node1")
    assert events.count("repair_started") == 2
    assert events.count("repair_completed") == 2
    snapshot = cluster.metrics.snapshot()
    assert snapshot["repair_completed_total"]["books-c"] == 2
    assert snapshot["repair_bytes_total"]["books-c"] > 0
    # The executor moves the bytes, but a repair keeps its own
    # vocabulary — no rebalance_* twin, one `repair` epoch bump per
    # copy — and counts each fragment once, not its verify read-back.
    assert not [event for event in events.recent()
                if event.kind.startswith("rebalance_")]
    assert snapshot["rebalance_migrations_total"] == {}
    bumps = [e for e in events.recent(kind="epoch_bump")
             if e.attrs["reason"] == "repair"]
    assert len(bumps) == 2
    spec = cluster.catalog.get("books-c")
    fragments = sum(
        len(cluster.peer(shard.replicas[0]).serialized(
            shard.local_name).encode())
        for shard in spec.shards if shard.index in (0, 3))
    assert snapshot["repair_bytes_total"]["books-c"] == fragments
    assert sum(e.attrs["bytes"] for e in
               events.recent(kind="repair_completed")) == fragments


def test_attach_without_a_catalog_fails_loudly():
    with pytest.raises(ClusterError, match="catalog"):
        Reconciler().attach(Federation())
