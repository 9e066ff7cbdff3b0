"""What a scatter does with each fault a replica's round trip raises:
fail over to the next serving replica, or fail the shard as a query
error — and whether the peer view takes the attempt as evidence
against the replica (one ``PeerView.record`` failure) or as none."""

import pytest

from repro.cluster.catalog import ClusterError
from repro.cluster.router import (ClusterRouter, ScatterOutcome,
                                  ShardUnavailableError)
from repro.errors import NetworkError, XQueryDynamicError
from repro.net.stats import RunStats
from repro.runtime.transport import PeerDownError

from tests.cluster.conftest import make_cluster

#: (fault, fails over?, failures recorded against the replica)
FAULTS = {
    "peer-down": (PeerDownError("peer 'node1' is down", peer="node1"),
                  True, 1),
    "nested-shard-unavailable": (
        ShardUnavailableError("all 2 replicas of shard other-c#s0 failed"),
        False, 0),
    "cluster-error": (ClusterError("unsatisfiable placement"), False, 0),
    # A replica without its fragment fails over, yet is no evidence
    # against the replica. Pinned as it is: ROADMAP item 16 still
    # decides whether it is a placement fault or a query error.
    "missing-document": (
        NetworkError("peer 'node1' has no document 'books.xml#s0'"),
        True, 0),
    "dynamic-error": (XQueryDynamicError("division by zero"), False, 0),
}


@pytest.mark.parametrize("name", FAULTS)
def test_a_replica_fault_fails_over_or_fails_the_shard(name):
    fault, fails_over, failures = FAULTS[name]
    cluster = make_cluster()
    recorded = []
    cluster.peer_view.record = \
        lambda peer, seconds, ok: recorded.append((peer, ok))
    run = type("Run", (), {})()
    run.transport, run.federation = cluster.transport, cluster
    run.stats = RunStats()
    router = ClusterRouter(run, cluster.catalog)
    spec = cluster.catalog.get("books-c")
    shard = spec.shards[0]
    assert shard.replicas == ("node1", "node2")
    tried = []

    def attempt(replica, shards):
        tried.append(replica)
        if replica == "node1":
            raise fault
        return [["answer"] for _ in shards]

    outcome = ScatterOutcome(shard)
    router._serve_group(spec, "node1", [outcome], attempt)
    if fails_over:
        assert tried == ["node1", "node2"]
        assert (outcome.error, outcome.results) == (None, ["answer"])
        assert (outcome.entry["failovers"], outcome.entry["failed"]) \
            == (1, 0)
    else:
        assert tried == ["node1"]
        assert outcome.error is fault
        assert (outcome.entry["failovers"], outcome.entry["failed"]) \
            == (0, 1)
    assert [ok for peer, ok in recorded if peer == "node1"] \
        == [False] * failures
