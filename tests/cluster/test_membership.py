"""The failure detector's state machine: evidence, hysteresis,
eviction, and its writes into the peer view."""

from repro.cluster.membership import (
    ALIVE, DEAD, EVICTED, PHI_CEILING, SUSPECT, SUSPECT_PHI,
    MembershipTracker,
)

from tests.cluster.conftest import make_cluster, observe


def make_tracker(cluster):
    return MembershipTracker().attach(cluster)


def test_attach_watches_replica_peers():
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    assert tracker.peers() == ["node1", "node2", "node3", "node4"]
    assert cluster.peer_view.detector is tracker
    assert tracker.view is cluster.peer_view
    # An unwatched peer defaults to alive — absence of evidence is not
    # evidence of absence.
    assert tracker.view.state("local") == ALIVE


def test_probe_ladder_alive_suspect_dead_evicted():
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    cluster.transport.kill_peer("node1")

    states = [tracker.tick()["node1"] for _ in range(6)]
    assert states[0] == ALIVE          # one failure is not a pattern
    assert states[1] == SUSPECT        # SUSPECT_AFTER = 2
    assert states[3] == DEAD           # DEAD_AFTER = 4
    assert EVICTED in states           # EVICT_AFTER_TICKS = 2 later
    assert states[-1] == EVICTED


def test_dead_marks_catalog_down():
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    cluster.transport.kill_peer("node2")
    epoch = cluster.catalog.epoch()
    for _ in range(4):             # dead on the 4th, not yet evicted
        tracker.tick()
    assert tracker.view.state("node2") == DEAD
    assert "node2" in cluster.peer_view.describe()["down"]
    assert cluster.catalog.epoch() > epoch


def test_eviction_rewrites_placements_and_bumps_epoch():
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    cluster.transport.kill_peer("node1")
    epoch = cluster.catalog.epoch()
    for _ in range(6):
        tracker.tick()
    assert tracker.view.state("node1") == EVICTED
    spec = cluster.catalog.get("books-c")
    assert all("node1" not in shard.replicas for shard in spec.shards)
    # Every shard keeps its surviving replica — no placement was lost.
    assert all(len(shard.replicas) >= 1 for shard in spec.shards)
    assert cluster.catalog.epoch() > epoch


def test_sole_replica_shard_keeps_placement():
    """Evicting the only holder of a shard must not orphan the data:
    the placement survives (the peer is merely unreachable)."""
    cluster = make_cluster(replication_factor=1)
    tracker = make_tracker(cluster)
    spec = cluster.catalog.get("books-c")
    victim_shards = [s.index for s in spec.shards
                     if s.replicas == ("node1",)]
    assert victim_shards, "fixture should place a shard solely on node1"
    cluster.transport.kill_peer("node1")
    for _ in range(6):
        tracker.tick()
    assert tracker.view.state("node1") == EVICTED
    spec = cluster.catalog.get("books-c")
    for index in victim_shards:
        assert spec.shards[index].replicas == ("node1",)


def test_flap_revives_without_dying():
    """A peer that comes back inside the dead window never turns dead:
    hysteresis needs REVIVE_AFTER consecutive successes, then heals."""
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    cluster.transport.kill_peer("node3")
    tracker.tick()
    tracker.tick()
    tracker.tick()
    assert tracker.view.state("node3") == SUSPECT
    cluster.transport.revive_peer("node3")
    tracker.tick()
    assert tracker.view.state("node3") == SUSPECT   # one success is luck
    tracker.tick()
    assert tracker.view.state("node3") == ALIVE     # two is a pattern
    assert "node3" not in cluster.peer_view.describe()["down"]
    assert tracker.converged()


def test_passive_evidence_alone_detects():
    """Router-reported outcomes drive the ladder without any probe."""
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    for _ in range(4):
        cluster.peer_view.record("node4", None, False)
    assert tracker.view.state("node4") == DEAD
    assert "node4" in cluster.peer_view.describe()["down"]
    for _ in range(2):
        cluster.peer_view.record("node4", None, True)
    assert tracker.view.state("node4") == ALIVE
    assert "node4" not in cluster.peer_view.describe()["down"]


def test_phi_suspicion_catches_mixed_traffic():
    """Mostly-failing mixed traffic turns a peer suspect through the
    windowed phi signal even though successes keep resetting the
    consecutive-failure ladder: a peer revived by two successes after
    twenty failures turns suspect on its first failure again, one rung
    short of the ladder's two."""
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    for _ in range(20):
        cluster.peer_view.record("node2", None, False)
    for _ in range(2):
        cluster.peer_view.record("node2", None, True)   # resets the ladder
    assert tracker.view.state("node2") == ALIVE
    cluster.peer_view.record("node2", None, False)
    assert tracker.phi("node2") >= SUSPECT_PHI          # 21 of 23 failed
    assert tracker.view.state("node2") == SUSPECT


def test_phi_bounds():
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    assert tracker.phi("node1") == 0.0            # no samples yet
    for _ in range(6):
        cluster.peer_view.record("node1", None, False)
    assert tracker.phi("node1") == PHI_CEILING    # 100% failures
    for _ in range(6):
        cluster.peer_view.record("node1", None, True)
    assert tracker.phi("node1") < 1.0


def test_eviction_is_terminal_until_rejoin():
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    tracker.evict("node1")
    assert tracker.view.state("node1") == EVICTED
    cluster.peer_view.record("node1", None, True)
    assert tracker.view.state("node1") == EVICTED       # successes ignored
    tracker.rejoin("node1")
    assert tracker.view.state("node1") == ALIVE
    assert "node1" not in cluster.peer_view.describe()["down"]


def test_subscribers_see_transitions_in_order():
    cluster = make_cluster()
    tracker = make_tracker(cluster)
    seen = []
    tracker.subscribe(lambda peer, old, new: seen.append((peer, old, new)))
    cluster.transport.kill_peer("node1")
    for _ in range(6):
        tracker.tick()
    assert seen[0] == ("node1", ALIVE, SUSPECT)
    assert ("node1", SUSPECT, DEAD) in seen
    assert seen[-1] == ("node1", DEAD, EVICTED)


def test_events_and_metrics_emitted():
    cluster = make_cluster()
    events = observe(cluster)
    tracker = make_tracker(cluster)
    cluster.transport.kill_peer("node1")
    for _ in range(6):
        tracker.tick()
    assert events.count("membership_suspect") == 1
    assert events.count("membership_dead") == 1
    assert events.count("replica_evicted") == 1
    snapshot = cluster.metrics.snapshot()
    assert snapshot["membership_state"]["node1"] == 3      # evicted
    assert snapshot["membership_probes_total"]["fail"] >= 4
    assert snapshot["membership_transitions_total"]["evicted"] == 1

