"""Replica selection and failover: killed peers, health marks, and
load-based routing."""

from collections import Counter

import pytest

from repro.cluster import ClusterError, ShardUnavailableError
from repro.decompose import Strategy
from repro.net.stats import RunStats
from repro.runtime import FederationEngine, PeerDownError, Transport
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import (cover_order, make_cluster,
                                   make_single_owner)
from tests.obs.test_accounting import recorded_runs
from tests.oracle.accounting_reference import registry_series

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


def expected_items():
    single = make_single_owner()
    result = single.run(SCAN.replace("xrpc://books-c", "xrpc://owner"),
                        at="local", strategy=Strategy.BY_PROJECTION)
    return serialize_sequence(result.items)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_killed_replica_fails_over(strategy):
    # node1 is in the first cover of an idle fleet (node1 + node3) and
    # the first-ranked replica of shard 0 for a per-shard fetch.
    cluster = make_cluster()
    cluster.transport.kill_peer("node1")
    result = cluster.run(SCAN, at="local", strategy=strategy)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.failovers >= 1
    assert all(m.dest != "node1" for m in result.messages)


def test_all_replicas_down_fails_loudly():
    cluster = make_cluster()
    # Shard placements are round-robin: shard 1 lives on node2+node3.
    cluster.transport.kill_peer("node2")
    cluster.transport.kill_peer("node3")
    with pytest.raises(ClusterError, match="replicas of shard"):
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)


def test_a_dark_shard_fails_the_query_after_one_try_per_replica():
    """A failed round trip has one answer: fail over to the next
    serving replica, then fail the query. Shard 1 lives on node2 and
    node3; node3 is in the idle fleet's first cover (node1 + node3) and
    serves shards 1 and 2, so both fail over once (shard 1 to node2,
    which is dead too, shard 2 to node4) and shard 1 is unavailable.
    Every replica is tried exactly once: nothing retries in place."""
    cluster = make_cluster()
    cluster.transport.kill_peer("node2")
    cluster.transport.kill_peer("node3")
    exchanges = Counter()
    exchange = cluster.transport.exchange

    def counting(peer, *args, **kwargs):
        exchanges[peer.name] += 1
        return exchange(peer, *args, **kwargs)

    cluster.transport.exchange = counting
    with recorded_runs() as runs, \
            pytest.raises(ShardUnavailableError) as failed:
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert str(failed.value) \
        == "all 2 replicas of shard books-c#s1 (node2, node3) failed"
    assert isinstance(failed.value.__cause__, PeerDownError)
    assert exchanges == {"node1": 1, "node2": 1, "node3": 1, "node4": 1}
    [(_federation, stats, ok)] = runs
    assert not ok
    assert stats.per_shard["books-c#s1"]["failovers"] == 1
    assert stats.per_shard["books-c#s1"]["failed"] == 1
    assert stats.failovers == 2         # shard 1's, and shard 2's


def test_revive_restores_service():
    cluster = make_cluster()
    cluster.transport.kill_peer("node2")
    cluster.transport.kill_peer("node3")
    cluster.transport.revive_peer("node3")
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()


def test_mark_down_steers_without_wire_faults():
    """Down marks avoid the failed attempt entirely: no failovers are
    recorded because the down peer is never tried."""
    cluster = make_cluster()
    cluster.peer_view.mark_down("node2")
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.failovers == 0
    assert all(m.dest != "node2" for m in result.messages)


def test_data_shipping_failover():
    cluster = make_cluster()
    cluster.transport.kill_peer("node3")
    result = cluster.run(SCAN, at="local", strategy=Strategy.DATA_SHIPPING)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.failovers >= 1
    assert result.stats.documents_shipped == 4


def test_least_loaded_replica_selected():
    cluster = make_cluster()
    shard = cluster.catalog.get("books-c").shards[0]  # (node1, node2)
    # Untouched fleet: placement order breaks the tie.
    assert cover_order(cluster, shard)[0] == "node1"
    # Load node1's wire counters: node2 becomes the lighter replica.
    cluster.transport._count_message("node1", 50_000)
    assert cover_order(cluster, shard)[0] == "node2"
    # A peer marked down is not considered at all.
    cluster.peer_view.mark_down("node2")
    assert cover_order(cluster, shard) == ["node1"]
    # All replicas down: selection falls back to the full set so the
    # failure surfaces on the wire, not as an empty candidate list.
    cluster.peer_view.mark_down("node1")
    assert cover_order(cluster, shard) == ["node2", "node1"]


def test_failovers_surface_in_the_registry():
    cluster = make_cluster()
    cluster.transport = Transport(cluster.cost_model)
    cluster.transport.kill_peer("node4")
    with FederationEngine(cluster, max_workers=4) as engine:
        futures = [engine.submit(SCAN, at="local") for _ in range(6)]
        results = [future.result() for future in futures]
    for result in results:
        assert serialize_sequence(result.items) == expected_items()
    series = registry_series(cluster.metrics)
    assert series["query_failed_total"] == 0
    assert series["scatter_failovers_total"]["books-c"] >= 1
    assert sum(result.stats.scatter_shards for result in results) == 6 * 4


def test_peer_down_error_is_network_error():
    cluster = make_cluster()
    cluster.transport.kill_peer("node1")
    with pytest.raises(PeerDownError):
        cluster.transport.fetch_document(cluster.peer("node1"),
                                         "books.xml#s0", RunStats())
