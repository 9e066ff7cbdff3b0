"""The churn soak (acceptance): a replica degrades, dies, and recovers
mid-workload while the fleet keeps answering correctly, health demotes
the degrading replica before it ever fails a request, and the SLO
burn-rate alert fires exactly once for the sustained breach.

Runs on the virtual wire: every latency the detectors see is modelled
network time plus injected delay, so the verdict is a function of the
drill and not of the host (no GC pause, profiler hook or loaded CI box
can push a healthy query over the slow threshold). One client
(``max_workers=1``): a shared virtual timeline *adds* concurrent
sleeps instead of overlapping them, so two workers would each see the
other's wire time in their own latency."""

from repro.cluster.router import ClusterRouter
from repro.decompose import Strategy
from repro.obs import SLO, BurnRatePolicy, FleetMonitor
from repro.runtime import FederationEngine
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import make_cluster, virtual_wire

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")

#: Injected latency far above the fleet's sub-ms baseline, and a slow
#: threshold between the two, so degraded-peer queries (and only
#: those) breach the latency SLO.
DEGRADE_S = 0.080
SLOW_S = 0.030


def run_batch(engine, n):
    """n queries, returning the de-duplicated set of answers."""
    futures = [engine.submit(SCAN, at="local",
                             strategy=Strategy.BY_PROJECTION)
               for _ in range(n)]
    return {serialize_sequence(f.result().items) for f in futures}


def test_soak_churn_degrade_and_alert(tmp_path):
    cluster = make_cluster(transport=virtual_wire())
    monitor = FleetMonitor(slow_query_s=SLOW_S,
                           profile_every=4).attach(cluster)
    monitor.add_slo(
        SLO(name="latency", target=0.9, threshold_s=SLOW_S),
        BurnRatePolicy(long_s=60.0, short_s=1.0, threshold=2.0,
                       resolve_ratio=0.5, min_requests=5))

    baseline = serialize_sequence(
        cluster.run(SCAN, at="local",
                    strategy=Strategy.BY_PROJECTION).items)

    # Cache hits bypass the wire, so they feed ~0 ms samples into
    # health windows; batching adds timing noise. Both off keeps the
    # degraded peer's latency signal clean for deterministic scoring.
    with FederationEngine(cluster, max_workers=1, cache=False,
                          batch_window_s=0.0) as engine:
        # Phase 1 — healthy warmup: correct answers, no churn events.
        assert run_batch(engine, 16) == {baseline}
        summary = engine.metrics.summary()
        assert summary["failed"] == 0
        assert summary["failovers"] == 0
        assert monitor.events.count("alert_fired") == 0

        # Phase 2 — node2 degrades (slow, NOT dead). Down marks
        # steer shards 0/1 onto it exclusively, so every query pays the
        # injected latency: the breach is sustained and deterministic.
        # Nothing raises, so failover counting can never catch this;
        # health scoring must, before any request fails.
        cluster.peer_view.mark_down("node1")
        cluster.peer_view.mark_down("node3")
        cluster.transport.degrade_peer("node2", DEGRADE_S)
        # 12 degraded queries: enough that the long-window bad
        # fraction breaches decisively even after the larger warmup.
        assert run_batch(engine, 12) == {baseline}

        demotions = monitor.events.recent(kind="health_demoted")
        assert demotions, "degraded replica was never demoted"
        # On virtual time nothing but the injected latency can demote.
        assert {e.attrs["peer"] for e in demotions} == {"node2"}
        # The detector fired while the failover count is still zero:
        # demotion happened *before* any failed request could.
        assert engine.metrics.summary()["failovers"] == 0
        assert monitor.events.count("failover") == 0
        assert not cluster.peer_view.healthy("node2")
        # A demoted replica that is a shard's only live copy still
        # serves it (last resort), so answers stayed correct above.

        # The sustained breach fired the burn-rate alert exactly once,
        # and every degraded query tripped the slow-query detector.
        assert monitor.events.count("alert_fired") == 1
        assert monitor.events.count("slow_query") >= 12

        # Phase 3 — the fleet heals topologically (marks lifted) but
        # node2's windows still hold the slow history: the router sorts
        # the demoted replica last (failover path of last resort, never
        # first choice) wherever an alternative exists.
        cluster.peer_view.mark_up("node1")
        cluster.peer_view.mark_up("node3")
        stub = type("Stub", (), {})()
        stub.transport = cluster.transport
        stub.federation = cluster
        router = ClusterRouter(stub, cluster.catalog)
        spec = cluster.catalog.get("books-c")
        shards_with_node2 = 0
        for shard in spec.shards:
            order = router.replica_order(shard)
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
        assert engine.metrics.summary()["failovers"] >= 1
        assert monitor.events.count("failover") >= 1
        cluster.transport.revive_peer("node1")
        assert run_batch(engine, 4) == {baseline}

        summary = engine.metrics.summary()
        assert summary["failed"] == 0
        per_collection = summary["per_collection"]["books-c"]
        assert per_collection["failovers"] == summary["failovers"]
        assert per_collection["shard_calls"] > 0

    # The breach never aged out of the 60s long window, so the alert
    # could not flap: still exactly one fire over the whole soak.
    assert monitor.events.count("alert_fired") == 1
    assert monitor.events.count("peer_down") == 1
    assert monitor.events.count("peer_up") == 1
    assert monitor.events.count("peer_degraded") == 1
    assert monitor.events.count("peer_restored") == 1
    assert monitor.events.count("epoch_bump") == 4  # 2 marks each way

    # CI artifacts: the event JSONL and both flamegraph weightings.
    events_path = tmp_path / "events.jsonl"
    assert monitor.events.export_jsonl(events_path) > 0
    assert monitor.profiler.samples >= 1
    profile_path = tmp_path / "profile.folded"
    assert monitor.profiler.write_folded(profile_path, "sim") > 0
    assert profile_path.read_text().strip()
