"""Replica selection and failover: killed peers, health marks, and
load-based routing."""

import pytest

from repro.cluster import ClusterError
from repro.cluster.router import ClusterRouter
from repro.decompose import Strategy
from repro.net.stats import RunStats
from repro.runtime import FederationEngine, PeerDownError, Transport
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import make_cluster, make_single_owner

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
    transport = cluster.transport
    catalog = cluster.catalog
    spec = catalog.get("books-c")
    shard = spec.shards[0]                 # replicas (node1, node2)

    class _RunStub:
        pass

    stub = _RunStub()
    stub.transport = transport
    stub.federation = cluster
    router = ClusterRouter(stub, catalog)
    # Untouched fleet: placement order breaks the tie.
    assert router.replica_order(shard)[0] == "node1"
    # Load node1's wire counters: node2 becomes the lighter replica.
    transport._count_message("node1", 50_000)
    assert router.replica_order(shard)[0] == "node2"
    # A peer marked down is not considered at all.
    cluster.peer_view.mark_down("node2")
    assert router.replica_order(shard) == ["node1"]
    # All replicas down: selection falls back to the full set so the
    # failure surfaces on the wire, not as an empty candidate list.
    cluster.peer_view.mark_down("node1")
    assert router.replica_order(shard) == ["node2", "node1"]


def test_failovers_surface_in_engine_metrics():
    cluster = make_cluster()
    cluster.transport = Transport(cluster.cost_model)
    cluster.transport.kill_peer("node4")
    with FederationEngine(cluster, max_workers=4) as engine:
        futures = [engine.submit(SCAN, at="local") for _ in range(6)]
        for future in futures:
            assert serialize_sequence(future.result().items) \
                == expected_items()
        summary = engine.metrics.summary()
    assert summary["failed"] == 0
    assert summary["failovers"] >= 1
    assert summary["scatter_shards"] == 6 * 4


def test_peer_down_error_is_network_error():
    cluster = make_cluster()
    cluster.transport.kill_peer("node1")
    with pytest.raises(PeerDownError):
        cluster.transport.fetch_document(cluster.peer("node1"),
                                         "books.xml#s0", RunStats())
