"""What a scatter does with each fault a replica's round trip raises:
fail over to the next serving replica, or fail the shard as a query
error — and whether the peer view takes the attempt as evidence
against the replica (one ``PeerView.record`` failure) or as none. A
migration's copy reads the same table: a fault a scatter fails over on
fails the copy over to the next source, and any other abandons the
plan."""

import pytest

from repro.cluster.catalog import ClusterError
from repro.cluster.migrate import MigrationExecutor
from repro.cluster.rebalance import ReplicatePlan
from repro.cluster.router import (ClusterRouter, ScatterOutcome,
                                  ShardUnavailableError)
from repro.errors import NetworkError, XQueryDynamicError
from repro.net.stats import RunStats
from repro.runtime.transport import PeerDownError
from repro.system.federation import Peer

from tests.cluster.conftest import make_cluster


def raised(call) -> Exception:
    """The fault ``call`` raises."""
    with pytest.raises(Exception) as fault:
        call()
    return fault.value


#: (fault, fails over?, failures recorded against the replica)
FAULTS = {
    "peer-down": (PeerDownError("peer 'node1' is down", peer="node1"),
                  True, 1),
    # A peer the replica's body called is down: the fault names that
    # peer, not the replica, so it is a query error there.
    "called-peer-down": (PeerDownError("peer 'aux' is down", peer="aux"),
                         False, 0),
    "nested-shard-unavailable": (
        ShardUnavailableError("all 2 replicas of shard other-c#s0 failed"),
        False, 0),
    "cluster-error": (ClusterError("unsatisfiable placement"), False, 0),
    # A replica without the fragment the catalog places on it is a
    # placement fault: ``Peer.fragment`` names the peer, so the shard
    # fails over and the attempt counts against the replica, as a down
    # peer's does. (As a query error it would fail a nested scatter's
    # query with "no document" instead of ShardUnavailableError.)
    "missing-document": (
        raised(lambda: Peer("node1").fragment("books.xml#s0")), True, 1),
    # A document the body names that the peer lacks is a query error.
    "body-missing-document": (
        raised(lambda: Peer("node1").document("typo.xml")), False, 0),
    "plain-network-error": (NetworkError("unknown peer 'node9'"), False, 0),
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


@pytest.mark.parametrize("name", [*FAULTS, "destination-read-back"])
def test_a_copy_fault_fails_over_or_abandons_the_plan(name):
    if name in FAULTS:      # at the fetch from the copy's first source
        (fault, fails_over, failures), faulty = FAULTS[name], "node1"
    else:   # the destination's read-back does not match the bytes sent:
        # evidence against the destination, as a failed source's is
        (fault, fails_over, failures), faulty = (None, False, 1), "local"
    cluster = make_cluster()
    recorded = []
    cluster.peer_view.record = \
        lambda peer, seconds, ok: recorded.append((peer, ok))
    fetch, fetched = cluster.transport.fetch_document, []

    def faulty_fetch(peer, local_name, stats):
        fetched.append(peer.name)
        if peer.name == faulty and fault is not None:
            raise fault
        text, size = fetch(peer, local_name, stats)
        if peer.name == faulty:
            return text + " ", size + 1
        return text, size

    cluster.transport.fetch_document = faulty_fetch
    executor = MigrationExecutor(cluster)
    epoch = cluster.catalog.epoch()
    assert cluster.catalog.get("books-c").shards[0].replicas \
        == ("node1", "node2")
    done = executor.execute(ReplicatePlan("books-c", 0, "local"))
    replicas = cluster.catalog.get("books-c").shards[0].replicas
    if fails_over:
        assert done and fetched == ["node1", "node2", "local"]
        assert replicas == ("node1", "node2", "local")
        assert executor.stats()["repairs_failed"] == 0
    else:
        assert not done and fetched[0] == "node1" and "node2" not in fetched
        assert (executor.stats()["repairs_failed"],
                cluster.catalog.epoch()) == (1, epoch)
        assert "books.xml#s0" not in cluster.peer("local").documents
    assert recorded == [(faulty, False)] * failures


def test_a_copy_fails_over_from_a_source_that_lacks_its_fragment():
    """``Peer.fragment`` is asked before the fetch, as a scatter asks
    it: a source without the fragment is a placement fault."""
    cluster = make_cluster()
    assert cluster.peer("node1").remove("books.xml#s0")
    executor = MigrationExecutor(cluster)
    assert executor.execute(ReplicatePlan("books-c", 0, "local"))
    assert cluster.catalog.get("books-c").shards[0].replicas \
        == ("node1", "node2", "local")
