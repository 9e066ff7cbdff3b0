"""The peer view against the liveness stores it replaced.

``tests/oracle/liveness_reference.py`` rebuilds the old catalog down /
draining sets, detector states and health standings from the event
stream and answers the old predicates. After every step of a seeded
chaos schedule and of a generated kill / revive / degrade / restore /
mark / drain / tick / query sequence, the view's ``serves``,
``accepts``, the router's replica order and the scorer's rank must
equal them — except in the two cases where the old predicates
disagreed with each other, where the view's chosen answer is pinned
by the plain tests at the end.
"""

import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.cluster import (
    InsufficientHealthyPeersError, LoadScorer, MembershipTracker,
    Reconciler, create_sharded_collection,
)
from repro.cluster.membership import ALIVE, DEAD, EVICTED, SUSPECT
from repro.cluster.router import ClusterRouter
from repro.decompose import Strategy
from repro.errors import NetworkError
from repro.obs import FleetMonitor

from tests.cluster.chaos_harness import ChaosHarness, ChaosSchedule
from tests.cluster.conftest import (
    LIBRARY_CONTAINER, LIBRARY_MEMBER, NODES, library_document,
    make_cluster, virtual_wire,
)
from tests.conftest import fuzz_settings
from tests.oracle.liveness_reference import LivenessReference

PEERS = NODES + ["local"]
SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


def wired_cluster():
    """A virtual-wire cluster with the fleet monitor and the detector
    attached, and the oracle listening to its event log (it replays
    after every step, far fewer events than the log's ring keeps)."""
    cluster = make_cluster(transport=virtual_wire())
    monitor = FleetMonitor().attach(cluster)
    MembershipTracker().attach(cluster)
    return cluster, LivenessReference(monitor.events)


def assert_view_matches(cluster, oracle: LivenessReference) -> None:
    view = cluster.peer_view
    stub = type("Run", (), {})()
    stub.transport, stub.federation = cluster.transport, cluster
    router = ClusterRouter(stub, cluster.catalog)
    # Read the view first: a health read may emit the demotion the
    # oracle then replays.
    orders = {shard.local_name: router.replica_order(shard)
              for shard in cluster.catalog.get("books-c").shards}
    scorer = LoadScorer(cluster)
    scores = scorer.snapshot()
    ranked = scorer.rank()
    oracle.sync()
    for peer in PEERS:
        assert view.state(peer) == oracle.state(peer), peer
        assert view.serves(peer) == oracle.usable(peer), peer
        if not oracle.disagrees(peer):
            assert view.serves(peer) == (peer not in oracle.down), peer
        assert view.accepts(peer) == (
            oracle.alive(peer) and peer not in oracle.draining), peer
        if oracle.state(peer) != SUSPECT:
            assert view.accepts(peer) == bool(
                oracle.healthy_peers([peer])), peer
        assert view.healthy(peer) == oracle.healthy(peer), peer
    loads = cluster.transport.peer_load
    for shard in cluster.catalog.get("books-c").shards:
        want = oracle.replica_order(
            shard.replicas,
            lambda peer: (*loads(peer), shard.replicas.index(peer)))
        if not any(map(oracle.disagrees, shard.replicas)):
            assert orders[shard.local_name] == want, shard.local_name
    assert ranked == oracle.rank(
        list(scores), lambda name: (scores[name].load,
                                    scores[name].fragments, name))


# -- seeded chaos schedules --------------------------------------------------


class CheckedHarness(ChaosHarness):
    """Checks the view against the oracle after every fault, rebalance
    operation and query of the schedule."""

    oracle: LivenessReference

    def apply(self, event):
        super().apply(event)
        assert_view_matches(self.federation, self.oracle)

    def _query(self, step, report, steady=False):
        super()._query(step, report, steady)
        assert_view_matches(self.federation, self.oracle)


@pytest.mark.parametrize("seed", [20090329, 7, 11])
def test_view_equals_reference_over_chaos_schedules(seed):
    cluster, oracle = wired_cluster()
    Reconciler().attach(cluster)
    schedule = ChaosSchedule.generate(
        random.Random(seed), NODES, steps=24, degrade_rate=0.3,
        extra_latency_s=0.05, splits=1, moves=1, drains=1)
    harness = CheckedHarness(cluster, schedule, queries=[(SCAN, None)],
                             serialize=lambda items: None,
                             strategy=Strategy.BY_PROJECTION)
    harness.oracle = oracle
    harness.run()
    assert oracle.seen > 0


# -- generated operation sequences -------------------------------------------


STEPS = st.one_of(
    st.tuples(st.sampled_from(["kill", "revive", "degrade", "restore",
                               "mark_down", "mark_up", "drain",
                               "undrain", "evict"]),
              st.sampled_from(PEERS)),
    st.tuples(st.sampled_from(["tick", "query"]), st.just("")),
)


def run_step(cluster, action: str, peer: str) -> None:
    view, transport = cluster.peer_view, cluster.transport
    if action == "kill":
        transport.kill_peer(peer)
    elif action == "revive":
        transport.revive_peer(peer)
        if view.state(peer) == EVICTED:
            view.detector.rejoin(peer)
    elif action == "degrade":
        transport.degrade_peer(peer, 0.05)
    elif action == "restore":
        transport.restore_peer(peer)
    elif action == "evict":
        view.detector.evict(peer)
    elif action == "tick":
        view.detector.tick()
    elif action == "query":
        try:
            cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
        except NetworkError:
            pass              # every replica of some shard is gone
    else:                                   # the view's operator actions
        getattr(view, action)(peer)


@fuzz_settings(40, hunt=2000)
@given(steps=st.lists(STEPS, max_size=30))
def test_view_equals_reference_after_every_step(steps):
    cluster, oracle = wired_cluster()
    assert_view_matches(cluster, oracle)
    for action, peer in steps:
        run_step(cluster, action, peer)
        assert_view_matches(cluster, oracle)


# -- the answers chosen where the old predicates disagreed -------------------


def dead(cluster, peer: str) -> None:
    cluster.transport.kill_peer(peer)
    while cluster.peer_view.state(peer) != DEAD:
        cluster.peer_view.detector.tick()


def test_mark_up_does_not_overrule_a_dead_verdict():
    """The router used a peer the operator marked up while the detector
    held it dead; ``usable`` did not. The view sides with the detector:
    the mark lifts (one epoch bump), the peer still serves nothing
    until the detector sees it alive again."""
    cluster = make_cluster()
    MembershipTracker().attach(cluster)
    view = cluster.peer_view
    dead(cluster, "node2")
    epoch = cluster.catalog.epoch()
    view.mark_up("node2")
    assert cluster.catalog.epoch() == epoch + 1
    assert view.state("node2") == DEAD
    assert not view.serves("node2") and not view.accepts("node2")
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert all(message.dest != "node2" for message in result.messages)
    assert result.stats.failovers == 0
    cluster.transport.revive_peer("node2")
    for _ in range(2):          # two successes, before a tick evicts it
        view.record("node2", None, True)
    assert view.state("node2") == ALIVE and view.serves("node2")


def test_forced_eviction_stops_service_without_a_down_mark():
    cluster = make_cluster()
    MembershipTracker().attach(cluster)
    cluster.peer_view.detector.evict("node3")
    assert cluster.peer_view.describe()["down"] == []
    assert not cluster.peer_view.serves("node3")


def test_suspect_peer_accepts_no_replica():
    """``rank`` skipped suspect peers, ``healthy_peers`` and the
    migration target check did not. The view's ``accepts`` skips them
    everywhere: a fresh collection lands elsewhere, a suspect peer
    keeps serving what it holds."""
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    cluster.transport.kill_peer("node3")
    tracker.tick()
    tracker.tick()
    view = cluster.peer_view
    assert view.state("node3") == SUSPECT
    assert view.serves("node3") and not view.accepts("node3")
    spec = create_sharded_collection(
        cluster, cluster.catalog, name="books2-c",
        document=library_document("xrpc://books2-c/books.xml"),
        document_name="books2.xml", container_path=LIBRARY_CONTAINER,
        member=LIBRARY_MEMBER, shard_count=2, replication_factor=2,
        peers=["node2", "node3", "node4"])
    assert "node3" not in spec.replica_peers
    with pytest.raises(InsufficientHealthyPeersError):
        create_sharded_collection(
            cluster, cluster.catalog, name="books3-c",
            document=library_document("xrpc://books3-c/books.xml"),
            document_name="books3.xml", container_path=LIBRARY_CONTAINER,
            member=LIBRARY_MEMBER, shard_count=2, replication_factor=2,
            peers=["node3", "node4"])


def test_concurrent_reads_demote_once():
    """Router threads refresh the same standing at once: the view judges
    under its lock, so a degraded peer is demoted by exactly one of
    them (one event), never once per thread."""
    cluster = make_cluster(transport=virtual_wire())
    monitor = FleetMonitor().attach(cluster)
    view = cluster.peer_view
    for _ in range(5):
        view.record("node1", 0.001, True)
        view.record("node2", 0.100, True)
    barrier = threading.Barrier(16)

    def read():
        barrier.wait(timeout=10)
        for _ in range(50):
            view.healthy("node2")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not view.healthy("node2")
    assert monitor.events.count("health_demoted") == 1
