"""Request-level resilience: the error taxonomy, in-place retries
under a budget, per-attempt timeouts, and graceful degradation."""

import pytest

from repro.cluster import ClusterError, ShardUnavailableError
from repro.decompose import Strategy
from repro.errors import (
    NetworkError, PeerUnavailableError, TransientNetworkError,
)
from repro.obs import FleetMonitor
from repro.runtime import (
    FaultInjectedError, FaultPlan, PeerDownError, RequestTimeoutError,
    RetryPolicy, Transport, VirtualClock,
)
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import make_cluster, make_single_owner

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")


def expected_items():
    single = make_single_owner()
    result = single.run(SCAN.replace("xrpc://books-c", "xrpc://owner"),
                        at="local", strategy=Strategy.BY_PROJECTION)
    return serialize_sequence(result.items)


class FlakyPlan(FaultPlan):
    """Fails the first ``fail_first`` transmissions per peer with a
    *transient* fault, then heals — the deterministic way to drill the
    retry path (contrast with the seeded random fault plan)."""

    def __init__(self, fail_first: int = 0, peers=None):
        super().__init__()
        self.fail_first = fail_first
        self.flaky_peers = set(peers) if peers is not None else None
        self.attempts: dict[str, int] = {}

    def should_fail(self, peer_name: str = "") -> bool:
        if self.flaky_peers is not None \
                and peer_name not in self.flaky_peers:
            return False
        seen = self.attempts.get(peer_name, 0)
        self.attempts[peer_name] = seen + 1
        return seen < self.fail_first


def flaky_cluster(fail_first: int, retry_policy: RetryPolicy,
                  peers=None, **wire):
    cluster = make_cluster()
    cluster.transport = Transport(
        cluster.cost_model, faults=FlakyPlan(fail_first, peers), **wire)
    cluster.catalog.retry_policy = retry_policy
    return cluster


# -- error taxonomy ----------------------------------------------------------


def test_error_taxonomy():
    """Transient (retryable) and fatal (fail over immediately) faults
    are distinguishable by type, and carry peer metadata."""
    assert issubclass(FaultInjectedError, TransientNetworkError)
    assert issubclass(RequestTimeoutError, TransientNetworkError)
    assert issubclass(PeerDownError, PeerUnavailableError)
    assert issubclass(TransientNetworkError, NetworkError)
    assert issubclass(PeerUnavailableError, NetworkError)
    assert not issubclass(PeerDownError, TransientNetworkError)

    exc = FaultInjectedError("boom", peer="node1", attempt=2)
    assert (exc.peer, exc.attempt) == ("node1", 2)
    timeout = RequestTimeoutError("slow", peer="node2", delay_s=0.5,
                                  timeout_s=0.1)
    assert timeout.delay_s == 0.5 and timeout.timeout_s == 0.1


def test_retry_policy_validation_and_backoff():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(budget=-1)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    policy = RetryPolicy(base_backoff_s=0.010, max_backoff_s=0.025,
                         jitter=0.0)
    import random
    rng = random.Random(0)
    assert policy.backoff_s(0, rng) == pytest.approx(0.010)
    assert policy.backoff_s(1, rng) == pytest.approx(0.020)
    assert policy.backoff_s(4, rng) == pytest.approx(0.025)  # capped


# -- retry in place ----------------------------------------------------------


def test_transient_fault_retried_in_place():
    """A flaky-but-alive replica is retried on the spot: the query
    succeeds with zero failovers and the retries are accounted."""
    cluster = flaky_cluster(2, RetryPolicy(attempts=3, budget=8))
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.retries > 0
    assert result.stats.failovers == 0


def test_backoff_is_spent_on_the_wires_clock():
    """node1 drops its first two transmissions, both inside the one
    round trip that tries it first (shards 0 and 3 of the cover, so
    each retry counts for both shards): retry 0 backs off 0.25 s,
    retry 1 0.5 s, and nothing else on a loopback wire takes any
    time."""
    cluster = flaky_cluster(
        2, RetryPolicy(attempts=3, budget=8, base_backoff_s=0.25,
                       max_backoff_s=1.0, jitter=0.0),
        peers=["node1"], clock=VirtualClock())
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert (result.stats.retries, result.stats.failovers) == (4, 0)
    assert cluster.transport.clock.now == 0.75


def test_retries_exhausted_fails_over():
    """More consecutive faults than attempts: the replica is abandoned
    and the call fails over — retries AND failovers both recorded."""
    cluster = flaky_cluster(5, RetryPolicy(attempts=2, budget=8),
                            peers=["node1"])
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.retries > 0
    assert result.stats.failovers > 0


def test_single_attempt_policy_never_retries():
    cluster = flaky_cluster(1, RetryPolicy(attempts=1, budget=8),
                            peers=["node1"])
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.retries == 0
    assert result.stats.failovers > 0


def test_peer_down_skips_straight_to_failover():
    """Fatal faults must not burn the retry budget: a dead peer is
    abandoned after one attempt."""
    cluster = make_cluster()
    cluster.catalog.retry_policy = RetryPolicy(attempts=4, budget=16)
    cluster.transport.kill_peer("node1")    # a peer of the first cover
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.retries == 0
    assert result.stats.failovers >= 1


def test_shared_budget_bounds_total_retries():
    """The budget is shared across replicas and attempts: with
    everything failing, total retries never exceed it."""
    cluster = flaky_cluster(100, RetryPolicy(attempts=4, budget=3))
    with pytest.raises(ClusterError):
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    # The failed run still accounts for the retries it spent.
    summary = cluster.metrics.snapshot().get("scatter_retries_total", {})
    assert 1 <= summary.get("books-c", 0) <= 3 * 4   # budget × shards


# -- per-attempt timeouts ----------------------------------------------------


def test_request_timeout_is_transient():
    """A transmission slower than the per-attempt timeout raises a
    retryable timeout after waiting out exactly the timeout."""
    cluster = make_cluster()
    cluster.transport.degrade_peer("node1", 0.050)
    cluster.transport.request_timeout_s = 0.005
    with pytest.raises(RequestTimeoutError) as exc_info:
        cluster.transport.probe("node1")
    assert exc_info.value.delay_s >= 0.050
    assert exc_info.value.timeout_s == 0.005
    # The healthy peer still answers under the same timeout.
    cluster.transport.probe("node2")


def test_cleared_request_timeout_waits_out_a_slow_peer():
    """``request_timeout_s = None`` clears the timeout: the slow peer
    that timed out before now answers after its full wire delay."""
    cluster = make_cluster()
    cluster.transport.degrade_peer("node1", 0.050)
    cluster.transport.request_timeout_s = 0.005
    with pytest.raises(RequestTimeoutError):
        cluster.transport.probe("node1")
    cluster.transport.request_timeout_s = None
    assert cluster.transport.probe("node1") >= 0.050


def test_timeout_fails_over_to_healthy_replica():
    cluster = make_cluster()
    cluster.catalog.retry_policy = RetryPolicy(attempts=2, budget=4)
    cluster.transport.degrade_peer("node1", 0.050)
    cluster.transport.request_timeout_s = 0.005
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.retries + result.stats.failovers > 0


# -- query errors never retry or fail over (error parity) --------------------


def test_query_errors_never_retry_or_fail_over():
    """A *query-level* error (here: an unparseable body shipped to the
    replica) must propagate immediately: no retries, no failovers, no
    passive failure evidence against the replica — wire-fault handling
    must never mask application bugs."""
    from repro.cluster.membership import ALIVE, MembershipTracker
    cluster = make_cluster()
    tracker = MembershipTracker().attach(cluster)
    cluster.catalog.retry_policy = RetryPolicy(attempts=4, budget=16)
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
    assert snapshot.get("scatter_retries_total", {}) in ({}, {"books-c": 0})
    assert snapshot.get("scatter_failovers_total", {}) \
        in ({}, {"books-c": 0})
    # No wire-fault evidence was fed to the failure detector.
    assert False not in outcomes
    assert all(tracker.view.state(peer) == ALIVE
               for peer in tracker.peers())


# -- graceful degradation ----------------------------------------------------


def test_partial_policy_validation():
    from repro.cluster import ClusterCatalog
    with pytest.raises(ClusterError):
        ClusterCatalog(partial="sometimes")
    assert ClusterCatalog(partial="allow").partial_policy == "allow"


def test_partial_error_is_default():
    cluster = make_cluster()
    cluster.transport.kill_peer("node2")
    cluster.transport.kill_peer("node3")          # shard 1 fully dark
    with pytest.raises(ShardUnavailableError):
        cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)


def test_partial_allow_returns_flagged_holes():
    cluster = make_cluster()
    monitor = FleetMonitor().attach(cluster)
    cluster.transport.kill_peer("node2")
    cluster.transport.kill_peer("node3")
    cluster.catalog.partial_policy = "allow"
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    full = expected_items()
    got = serialize_sequence(result.items)
    assert got != full                            # a hole, flagged…
    assert all(item in full for item in got.split(" "))
    assert result.stats.partial_shards == 1       # …and accounted
    assert monitor.events.count("partial_result") == 1
    flagged = [entry for entry in result.stats.per_shard.values()
               if entry.get("partial")]
    assert len(flagged) == 1


def test_partial_allow_leaves_healthy_queries_exact():
    cluster = make_cluster()
    cluster.catalog.partial_policy = "allow"
    result = cluster.run(SCAN, at="local", strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == expected_items()
    assert result.stats.partial_shards == 0
