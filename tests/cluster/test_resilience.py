"""Request-level resilience: the error taxonomy, and the one answer to
a wire fault — fail over, never for a query error."""

from collections import Counter

import pytest

from repro.cluster import ClusterError, ShardUnavailableError
from repro.cluster.router import ClusterRouter
from repro.decompose import Strategy
from repro.errors import NetworkError, PeerUnavailableError
from repro.runtime import FederationEngine, PeerDownError
from repro.workloads import build_sharded_federation
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import (make_cluster, make_single_owner,
                                   observe, virtual_wire)
from tests.cluster.test_fanout import NESTED
from tests.obs.test_accounting import recorded_runs
from tests.oracle.accounting_reference import registry_series

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


def expected_items():
    single = make_single_owner()
    result = single.run(SCAN.replace("xrpc://books-c", "xrpc://owner"),
                        at="local", strategy=Strategy.BY_PROJECTION)
    return serialize_sequence(result.items)


# -- error taxonomy ----------------------------------------------------------


def test_error_taxonomy():
    """A killed peer's fault indicts the peer, is a network error, and
    carries the peer's name."""
    assert issubclass(PeerDownError, PeerUnavailableError)
    assert issubclass(PeerUnavailableError, NetworkError)
    exc = PeerDownError("down", peer="node1")
    assert exc.peer == "node1"


def test_peer_down_skips_straight_to_failover():
    """A dead peer is abandoned after one attempt."""
    cluster = make_cluster()
    cluster.transport.kill_peer("node1")    # a peer of the first cover
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.failovers >= 1


# -- query errors never fail over (error parity) -----------------------------


def test_query_errors_never_retry_or_fail_over():
    """A *query-level* error (here: a division by zero in the body
    shipped to the replica) must propagate immediately: no failovers,
    no passive failure evidence against the replica — wire-fault
    handling must never mask application bugs."""
    from repro.cluster.membership import ALIVE, MembershipTracker
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    outcomes = []
    record = cluster.peer_view.record
    cluster.peer_view.record = lambda peer, seconds, ok: (
        outcomes.append(ok), record(peer, seconds, ok))

    bad_query = ('doc("xrpc://books-c/books.xml")'
                 "/child::library/child::books/child::book/child::year"
                 " idiv 0")
    with pytest.raises(Exception) as cluster_error:
        cluster.run(bad_query, at="local", strategy=Strategy.BY_PROJECTION)
    assert not isinstance(cluster_error.value, NetworkError)

    single = make_single_owner()
    with pytest.raises(Exception) as single_error:
        single.run(bad_query.replace("xrpc://books-c", "xrpc://owner"),
                   at="local", strategy=Strategy.BY_PROJECTION)
    assert type(cluster_error.value) is type(single_error.value)

    snapshot = cluster.metrics.snapshot()
    assert snapshot.get("scatter_failovers_total", {}) \
        in ({}, {"books-c": 0})
    # No wire-fault evidence was fed to the failure detector.
    assert False not in outcomes
    assert all(tracker.view.state(peer) == ALIVE
               for peer in tracker.peers())


# -- the one answer: fail over, then fail the query --------------------------
#
# Shard placements are round-robin over node1..node4: shard 1 lives on
# node2 + node3 and shard 2 on node3 + node4. The idle fleet's first
# cover is node1 (shards 0, 3) + node3 (shards 1, 2), so killing node2
# and node3 darkens shard 1, and shard 2 fails over to node4.


def dark_shard_cluster(**kwargs):
    cluster = make_cluster(**kwargs)
    cluster.transport.kill_peer("node2")
    cluster.transport.kill_peer("node3")
    return cluster


def test_an_unavailable_shard_is_no_evidence_against_a_peer():
    """``ShardUnavailableError`` is a cluster (so network) error that
    names no peer: a nested scatter's lost shard is not failure
    evidence against the replica whose body ran it."""
    assert issubclass(ShardUnavailableError, ClusterError)
    assert issubclass(ClusterError, NetworkError)
    assert not issubclass(ShardUnavailableError, PeerUnavailableError)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_a_dark_shard_fails_every_strategy_alike(strategy):
    """Scatter and document fetch fail over the same way: every
    strategy fails the query on the same shard, naming the same
    replicas in placement order."""
    cluster = dark_shard_cluster()
    with pytest.raises(ShardUnavailableError) as failed:
        cluster.run(SCAN, at="local", strategy=strategy)
    assert str(failed.value) \
        == "all 2 replicas of shard books-c#s1 (node2, node3) failed"
    assert isinstance(failed.value.__cause__, PeerDownError)


def test_a_dark_shard_is_failure_evidence_once_per_replica():
    """Each failed attempt feeds the peer view one failure, each answer
    one success: no replica is charged twice."""
    cluster = dark_shard_cluster()
    evidence = Counter()
    record = cluster.peer_view.record
    cluster.peer_view.record = lambda peer, seconds, ok: (
        evidence.update([(peer, ok)]), record(peer, seconds, ok))
    with pytest.raises(ShardUnavailableError):
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert evidence == {("node1", True): 1, ("node3", False): 1,
                        ("node4", True): 1, ("node2", False): 1}


def test_every_replica_is_tried_once_at_replication_three():
    """With three replicas per shard, a shard goes dark only when all
    three failed, each after one attempt."""
    cluster = make_cluster(replication_factor=3)
    # Shard 1 lives on node2, node3 and node4.
    for peer in cluster.catalog.get("books-c").shards[1].replicas:
        cluster.transport.kill_peer(peer)
    exchanges = Counter()
    exchange = cluster.transport.exchange

    def counting(peer, *args, **kwargs):
        exchanges[peer.name] += 1
        return exchange(peer, *args, **kwargs)

    cluster.transport.exchange = counting
    with pytest.raises(ShardUnavailableError) as failed:
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert str(failed.value) \
        == "all 3 replicas of shard books-c#s1 (node2, node3, node4) failed"
    assert max(exchanges.values()) == 1
    assert {"node2", "node3", "node4"} <= set(exchanges)


def test_a_degraded_replica_answers_late_and_never_fails_over():
    """A slow peer is not a failed one: nothing times out, so the slow
    replica answers, exactly, and its latency is spent on the wire's
    clock."""
    cluster = make_cluster(transport=virtual_wire())
    cluster.transport.degrade_peer("node1", 5.0)    # in the first cover
    clock = cluster.transport.clock
    before = clock.now
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.failovers == 0
    assert any(m.dest == "node1" for m in result.messages)
    assert clock.now - before >= 5.0


def test_a_dead_peer_off_the_cover_costs_nothing():
    """Killing a replica no cover picks changes nothing the run spends:
    no failover, no message to it, the same bytes on the wire."""
    healthy = make_cluster().run(SCAN, at="local",
                                 strategy=Strategy.BY_PROJECTION)
    cluster = make_cluster()
    cluster.transport.kill_peer("node2")
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.failovers == 0
    assert all(m.dest != "node2" for m in result.messages)
    assert (result.stats.messages, result.stats.total_transferred_bytes) \
        == (healthy.stats.messages, healthy.stats.total_transferred_bytes)


def test_a_failed_run_leaves_nothing_behind():
    """The query that failed on a dark shard leaves no state the next
    one reads: once its replicas are back, the same federation answers
    exactly, with no failover."""
    cluster = dark_shard_cluster()
    with pytest.raises(ShardUnavailableError):
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    cluster.transport.revive_peer("node2")
    cluster.transport.revive_peer("node3")
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.failovers == 0


def test_a_dark_shard_emits_one_failover_per_move():
    """The fleet's event log tells the same story as the stats: one
    ``failover`` event per shard moved, naming the replica that failed
    and the one tried next."""
    cluster = make_cluster()
    events = observe(cluster)
    cluster.transport.kill_peer("node2")
    cluster.transport.kill_peer("node3")
    with pytest.raises(ShardUnavailableError):
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    moves = sorted((event.attrs["shard"], event.attrs["replica"],
                    event.attrs["next"])
                   for event in events.recent(kind="failover"))
    assert moves == [(1, "node3", "node2"), (2, "node3", "node4")]
    assert events.count("peer_down") == 2


def test_a_dark_shard_fails_every_concurrent_query():
    """Under an engine, every query that meets the dark shard fails
    alike, and the registry counts each as failed."""
    cluster = dark_shard_cluster()
    with FederationEngine(cluster, max_workers=3, cache=False) as engine:
        futures = [engine.submit(SCAN, "local") for _ in range(5)]
        errors = []
        for future in futures:
            with pytest.raises(ShardUnavailableError) as failed:
                future.result()
            errors.append(str(failed.value))
    assert set(errors) == {"all 2 replicas of shard books-c#s1 (node2, node3) failed"}
    series = registry_series(cluster.metrics)
    assert series["query_failed_total"] == 5
    assert series["query_completed_total"] == 0
    assert series["scatter_failovers_total"] == {"books-c": 10}


def test_a_shard_entry_has_no_retry_or_partial_fields():
    """A shard's ``per_shard`` entry counts calls, skips, failovers and
    failures and what it spent: nothing retries, nothing is partial."""
    result = make_cluster().run(SCAN, at="local",
                                strategy=Strategy.BY_PROJECTION)
    for entry in result.stats.per_shard.values():
        assert set(entry) == {"shard", "calls", "failovers", "skipped",
                              "failed", "bytes", "messages", "sim_s",
                              "cache_hits"}
    assert result.stats.retries == 0
    assert "retries" not in result.stats.summary()


# -- a nested scatter's lost shard fails the query, not the outer replica ----


@pytest.mark.parametrize("strategy", list(Strategy), ids=str)
def test_a_nested_unavailable_shard_fails_the_query_without_failover(
        strategy, monkeypatch):
    """``NESTED``'s body, run at a ``people-c`` replica, scatters over
    ``auctions-c``, whose shard 0 neither replica holds. The inner
    scatter runs once and tries each ``auctions-c#s0`` replica once;
    its ``ShardUnavailableError`` is the replica's answer, not a fault
    of the replica, so no ``people-c`` shard fails over and the run
    raises naming ``auctions-c`` shard 0."""
    federation = build_sharded_federation(0.004, shard_count=4,
                                          replication_factor=2)
    lost = federation.catalog.get("auctions-c").shards[0]
    for replica in lost.replicas:
        del federation.peer(replica).documents[lost.local_name]
    attempts = Counter()
    attempt = ClusterRouter._round_trip

    def counting(self, replica, group, *args):
        attempts.update((replica, outcome.shard.local_name)
                        for outcome in group)
        return attempt(self, replica, group, *args)

    monkeypatch.setattr(ClusterRouter, "_round_trip", counting)
    with recorded_runs() as runs, \
            pytest.raises(ShardUnavailableError) as failed:
        federation.run(NESTED, at="local", strategy=strategy)
    assert str(failed.value) == ("all 2 replicas of shard auctions-c#s0 "
                                 f"({', '.join(lost.replicas)}) failed")
    [(_federation, stats, ok)] = runs
    assert not ok
    people = {key: entry for key, entry in stats.per_shard.items()
              if key.startswith("people-c#")}
    assert people and all(entry["failovers"] == 0
                          for entry in people.values())
    assert {replica: count for (replica, shard), count in attempts.items()
            if shard == lost.local_name} \
        == dict.fromkeys(lost.replicas, 1)
    assert stats.per_shard["auctions-c#s0"]["failovers"] == 1
    assert stats.per_shard["auctions-c#s0"]["failed"] == 1
