"""The churn soak (acceptance): a replica degrades, dies, and recovers
mid-workload while the fleet keeps answering correctly, and health
demotes the degrading replica before it ever fails a request.

Runs on the virtual wire: every latency the detectors see is modelled
network time plus injected delay, so the verdict is a function of the
drill and not of the host (no GC pause, profiler hook or loaded CI box
can push a healthy replica's latency up). One client
(``max_workers=1``): a shared virtual timeline *adds* concurrent
sleeps instead of overlapping them, so two workers would each see the
other's wire time in their own latency."""

from repro.decompose import Strategy
from repro.runtime import FederationEngine
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import (cover_order, make_cluster, observe,
                                   virtual_wire)
from tests.oracle.accounting_reference import registry_series

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")

#: Injected latency far above the fleet's sub-ms baseline.
DEGRADE_S = 0.080


def failovers(cluster) -> int:
    """Replica switches so far, summed over the collections."""
    return sum(registry_series(cluster.metrics)[
        "scatter_failovers_total"].values())


def run_batch(engine, n):
    """n queries, returning the de-duplicated set of answers."""
    futures = [engine.submit(SCAN, at="local",
                             strategy=Strategy.BY_PROJECTION)
               for _ in range(n)]
    return {serialize_sequence(f.result().items) for f in futures}


def test_soak_churn_degrade_and_demote(tmp_path):
    cluster = make_cluster(transport=virtual_wire())
    events = observe(cluster)

    baseline = serialize_sequence(
        cluster.run(SCAN, at="local",
                    strategy=Strategy.BY_PROJECTION).items)

    # Cache hits bypass the wire, so they feed ~0 ms samples into
    # health windows. Off keeps the degraded peer's latency signal
    # clean for deterministic scoring.
    with FederationEngine(cluster, max_workers=1, cache=False) as engine:
        # Phase 1 — healthy warmup: correct answers, no churn events.
        assert run_batch(engine, 16) == {baseline}
        assert registry_series(cluster.metrics)["query_failed_total"] == 0
        assert failovers(cluster) == 0

        # Phase 2 — node2 degrades (slow, NOT dead). Down marks
        # steer shards 0/1 onto it exclusively, so every query pays the
        # injected latency: the breach is sustained and deterministic.
        # Nothing raises, so failover counting can never catch this;
        # health scoring must, before any request fails.
        cluster.peer_view.mark_down("node1")
        cluster.peer_view.mark_down("node3")
        cluster.transport.degrade_peer("node2", DEGRADE_S)
        # 12 degraded queries: enough evidence for the windows to
        # outweigh the larger warmup.
        assert run_batch(engine, 12) == {baseline}

        demotions = events.recent(kind="health_demoted")
        assert demotions, "degraded replica was never demoted"
        # On virtual time nothing but the injected latency can demote.
        assert {e.attrs["peer"] for e in demotions} == {"node2"}
        # The detector fired while the failover count is still zero:
        # demotion happened *before* any failed request could.
        assert failovers(cluster) == 0
        assert events.count("failover") == 0
        assert not cluster.peer_view.healthy("node2")
        # A demoted replica that is a shard's only live copy still
        # serves it (last resort), so answers stayed correct above.

        # Phase 3 — the fleet heals topologically (marks lifted) but
        # node2's windows still hold the slow history: the router sorts
        # the demoted replica last (failover path of last resort, never
        # first choice) wherever an alternative exists.
        cluster.peer_view.mark_up("node1")
        cluster.peer_view.mark_up("node3")
        spec = cluster.catalog.get("books-c")
        shards_with_node2 = 0
        for shard in spec.shards:
            order = cover_order(cluster, shard)
            if "node2" in order:
                shards_with_node2 += 1
                assert len(order) > 1
                assert order[-1] == "node2"
        assert shards_with_node2 > 0

        # Phase 4 — hard churn: restore node2, then kill a *healthy*
        # first-choice replica (node1) outright mid-workload and revive
        # it. Zero wrong answers throughout. (Killing the demoted
        # replica would prove nothing: health already routes around
        # it, so its death could never register a failover.)
        cluster.transport.restore_peer("node2")
        cluster.transport.kill_peer("node1")
        assert run_batch(engine, 8) == {baseline}
        assert failovers(cluster) >= 1
        assert events.count("failover") >= 1
        cluster.transport.revive_peer("node1")
        assert run_batch(engine, 4) == {baseline}

        series = registry_series(cluster.metrics)
        assert series["query_failed_total"] == 0
        assert series["scatter_failovers_total"] == {
            "books-c": failovers(cluster)}
        assert sum(series["scatter_shard_serves_total"].values()) > 0

    # The demotion did not flap over the whole soak.
    assert events.count("health_demoted") == 1
    assert events.count("peer_down") == 1
    assert events.count("peer_up") == 1
    assert events.count("peer_degraded") == 1
    assert events.count("peer_restored") == 1
    assert events.count("epoch_bump") == 4  # 2 marks each way

    # CI artifact: the event JSONL.
    events_path = tmp_path / "events.jsonl"
    assert events.export_jsonl(events_path) > 0
