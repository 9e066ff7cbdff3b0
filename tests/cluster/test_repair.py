"""The repair engine: re-replication, bounded queue, cancellation."""

import pytest

from repro.cluster import ClusterError, create_sharded_collection
from repro.cluster.membership import EVICTED, MembershipTracker
from repro.cluster.repair import (
    MAX_ATTEMPTS, MAX_QUEUE, RepairEngine, RepairTask,
)
from repro.decompose import Strategy
from repro.obs import FleetMonitor
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import (
    LIBRARY_CONTAINER, LIBRARY_MEMBER, NODES, library_document,
    make_cluster, make_single_owner,
)

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


def test_scan_finds_under_replicated_shards():
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    repair = RepairEngine(auto_repair=False).attach(cluster)
    assert repair.scan() == 0                     # healthy fleet
    evict(cluster, tracker, "node1")              # held shards 0 and 3
    assert repair.pending() == 2
    assert repair.scan() == 0                     # no duplicates


def test_process_restores_target_replication():
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    repair = RepairEngine(auto_repair=False).attach(cluster)
    evict(cluster, tracker, "node1")
    epoch = cluster.catalog.epoch()
    assert repair.process() == 2
    assert cluster.catalog.epoch() > epoch
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


def test_eviction_triggers_auto_repair():
    """The membership subscription closes the loop with no operator:
    evict → scan → re-replicate, in one transition callback."""
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    repair = RepairEngine().attach(cluster)
    evict(cluster, tracker, "node2")
    assert repair.stats() == {"pending": 0, "completed": 2, "failed": 0}
    spec = cluster.catalog.get("books-c")
    assert all(len(s.replicas) >= spec.replication_factor
               for s in spec.shards)


def test_repair_skips_healed_shards():
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    repair = RepairEngine(auto_repair=False).attach(cluster)
    evict(cluster, tracker, "node1")
    assert repair.pending() == 2
    assert repair.process(max_tasks=1) == 1
    # Re-scan between batches must not re-enqueue the healed shard.
    assert repair.scan() == 0
    assert repair.process() == 1


def test_source_death_mid_copy_reenqueues_then_gives_up():
    """The only live source dying aborts the copy; the task retries
    (re-resolving source and target) up to max_attempts, then fails
    loudly instead of spinning."""
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    repair = RepairEngine(auto_repair=False).attach(cluster)
    evict(cluster, tracker, "node1")
    # Kill the surviving sources at the transport level only — the
    # catalog still lists them, so the copy starts and then dies.
    for peer in ("node2", "node3", "node4"):
        cluster.transport.kill_peer(peer)
    for _ in range(MAX_ATTEMPTS - 1):
        assert repair.process() == 0
        assert repair.pending() == 2              # re-enqueued
    assert repair.process() == 0                  # the last attempt fails
    stats = repair.stats()
    assert stats["pending"] == 0
    assert stats["failed"] == 2


def test_no_healthy_target_fails_loudly():
    cluster = make_cluster(nodes=["node1", "node2"])
    tracker = MembershipTracker().attach(cluster)
    repair = RepairEngine(auto_repair=False).attach(cluster)
    cluster.peer_view.mark_down("local")            # only spare target
    evict(cluster, tracker, "node1")
    repair.scan()
    assert repair.process() == 0
    assert repair.stats()["failed"] > 0


def test_bounded_queue_drops_loudly():
    """Thirteen 10-shard collections place 65 shards on node1: evicting
    it leaves one more under-replicated shard than the queue holds."""
    cluster = make_cluster(shard_count=10)
    for index in range(12):
        create_sharded_collection(
            cluster, cluster.catalog, name=f"books{index}-c",
            document=library_document(f"xrpc://books{index}-c/books.xml"),
            document_name=f"books{index}.xml",
            container_path=LIBRARY_CONTAINER, member=LIBRARY_MEMBER,
            shard_count=10, replication_factor=2, peers=NODES)
    tracker = MembershipTracker().attach(cluster)
    monitor = FleetMonitor().attach(cluster)
    repair = RepairEngine(auto_repair=False).attach(cluster)
    evict(cluster, tracker, "node1")              # 65 under-replicated
    assert repair.pending() == MAX_QUEUE == 64
    assert monitor.events.count("repair_queue_full") == 1


def test_repair_events_and_metrics():
    cluster = make_cluster()
    monitor = FleetMonitor().attach(cluster)
    tracker = MembershipTracker().attach(cluster)
    RepairEngine().attach(cluster)
    evict(cluster, tracker, "node1")
    assert monitor.events.count("repair_started") == 2
    assert monitor.events.count("repair_completed") == 2
    snapshot = cluster.metrics.snapshot()
    assert snapshot["repair_completed_total"]["books-c"] == 2
    assert snapshot["repair_bytes_total"]["books-c"] > 0
    assert snapshot["repair_queue_depth"] == 0
    # Repair traffic shows up in the profiler like any other work.
    assert "repair" in monitor.profiler.folded("wall")
    # The executor moves the bytes, but a repair keeps its own
    # vocabulary — no rebalance_* twin, one `repair` epoch bump per
    # copy — and counts each fragment once, not its verify read-back.
    assert not [kind for kind in monitor.events.counts()
                if kind.startswith("rebalance_")]
    assert snapshot["rebalance_migrations_total"] == {}
    bumps = [e for e in monitor.events.recent(kind="epoch_bump")
             if e.attrs["reason"] == "repair"]
    assert len(bumps) == 2
    spec = cluster.catalog.get("books-c")
    fragments = sum(
        len(cluster.peer(shard.replicas[0]).serialized(
            shard.local_name).encode())
        for shard in spec.shards if shard.index in (0, 3))
    assert snapshot["repair_bytes_total"]["books-c"] == fragments
    assert sum(e.attrs["bytes"] for e in
               monitor.events.recent(kind="repair_completed")) == fragments


def test_run_until_converged():
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    repair = RepairEngine(auto_repair=False).attach(cluster)
    evict(cluster, tracker, "node1")
    assert repair.run_until_converged()
    assert repair.pending() == 0


def test_scan_without_a_catalog_fails_loudly():
    with pytest.raises(ClusterError, match="catalog"):
        RepairEngine().scan()
    assert RepairTask("books-c", 3).key == ("books-c", 3)
