"""Load-aware rebalancing: scoring, planning, drain, placement health,
topology introspection, and chaos-schedule rebalance ops."""

import random

import pytest

from repro.cluster import (
    InsufficientHealthyPeersError, LoadScorer, MovePlan, Rebalancer,
    SplitPlan, create_sharded_collection, round_robin_placement,
)
from repro.cluster.membership import MembershipTracker
from repro.cluster.repair import RepairEngine
from repro.decompose import Strategy
from repro.obs import FleetMonitor
from repro.obs.console import render_fleet
from repro.xquery.xdm import serialize_sequence

from tests.cluster.chaos_harness import ChaosHarness, ChaosSchedule
from tests.cluster.conftest import (
    LIBRARY_CONTAINER, LIBRARY_MEMBER, library_document, make_cluster,
    make_single_owner, virtual_wire,
)

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")

HOT = ('for $b in doc("xrpc://books-c/books.xml")'
       "/child::library/child::books/child::book "
       'return if ($b/attribute::id = "b0") then $b/child::title'
       " else ()")


def expected(query=SCAN):
    single = make_single_owner()
    result = single.run(query.replace("xrpc://books-c", "xrpc://owner"),
                        at="local", strategy=Strategy.BY_PROJECTION)
    return serialize_sequence(result.items)


def run_scan(cluster, query=SCAN):
    result = cluster.run(query, at="local",
                         strategy=Strategy.BY_PROJECTION)
    return serialize_sequence(result.items)


def attach_rebalancer(cluster) -> Rebalancer:
    FleetMonitor().attach(cluster)
    MembershipTracker().attach(cluster)
    RepairEngine(auto_repair=False).attach(cluster)
    return Rebalancer().attach(cluster)


# -- scoring -----------------------------------------------------------------


def test_scorer_ranks_cool_peers_first():
    cluster = make_cluster()
    scorer = LoadScorer(cluster)
    ranked = scorer.rank()
    # "local" holds no fragments: coolest. Every data node carries 2.
    assert ranked[0] == "local"
    scores = scorer.snapshot()
    assert scores["node1"].fragments == 2
    assert scores["node1"].fragment_bytes > 0
    assert scores["local"].fragments == 0


def test_scorer_excludes_down_draining_and_excluded():
    cluster = make_cluster()
    scorer = LoadScorer(cluster)
    cluster.peer_view.mark_down("node1")
    cluster.peer_view.drain("node2")
    ranked = scorer.rank(exclude={"node3"})
    assert "node1" not in ranked
    assert "node2" not in ranked
    assert "node3" not in ranked
    assert "node4" in ranked


def test_repair_targets_through_shared_scorer():
    """Repair's candidate ranking is the scorer's: a draining peer is
    never a re-replication target even when it is the emptiest."""
    cluster = make_cluster()
    repair = RepairEngine(auto_repair=False).attach(cluster)
    cluster.peer_view.drain("local")
    spec = cluster.catalog.get("books-c")
    candidates = repair.executor.scorer.rank(
        exclude=set(spec.shards[0].replicas))
    assert "local" not in candidates
    assert set(candidates) <= {"node2", "node3", "node4"}


# -- explicit operations -----------------------------------------------------


def test_split_keeps_answers_exact():
    cluster = make_cluster(shard_count=2)
    rebalancer = attach_rebalancer(cluster)
    want = expected()
    assert run_scan(cluster) == want
    epoch = cluster.catalog.epoch()
    assert rebalancer.split("books-c", 0)
    assert cluster.catalog.epoch() > epoch
    spec = cluster.catalog.get("books-c")
    assert spec.shard_count == 3
    assert [s.index for s in spec.shards] == [0, 1, 2]
    assert spec.shards[0].local_name == "books.xml#s0.0"
    assert spec.shards[1].local_name == "books.xml#s0.1"
    assert sum(s.members for s in spec.shards) == 10
    assert run_scan(cluster) == want


def test_move_keeps_answers_exact_and_retires_source():
    cluster = make_cluster()
    rebalancer = attach_rebalancer(cluster)
    want = expected()
    spec = cluster.catalog.get("books-c")
    source = spec.shards[0].replicas[0]
    local_name = spec.shards[0].local_name
    assert rebalancer.move("books-c", 0, source)
    spec = cluster.catalog.get("books-c")
    assert source not in spec.shards[0].replicas
    assert len(spec.shards[0].replicas) == 2
    # The old copy survives until collect() — an in-flight scatter
    # pinned to the old epoch may still need it.
    assert local_name in cluster.peer(source).documents
    assert run_scan(cluster) == want
    assert rebalancer.collect() == 1
    assert local_name not in cluster.peer(source).documents
    assert run_scan(cluster) == want


def test_drain_empties_peer_and_keeps_replication():
    cluster = make_cluster()
    rebalancer = attach_rebalancer(cluster)
    want = expected()
    assert rebalancer.drain("node1")
    rebalancer.collect()
    assert cluster.peer("node1").documents == {}
    spec = cluster.catalog.get("books-c")
    for shard in spec.shards:
        assert "node1" not in shard.replicas
        assert len(shard.replicas) >= spec.replication_factor
        for replica in shard.replicas:
            assert shard.local_name in cluster.peer(replica).documents
    assert run_scan(cluster) == want
    # Undrain restores placement eligibility.
    assert not cluster.peer_view.accepts("node1")
    rebalancer.undrain("node1")
    assert cluster.peer_view.accepts("node1")


# -- planning ----------------------------------------------------------------


def test_plan_splits_the_hot_shard():
    """A shard absorbing all the traffic (shard skipping proves the
    others cold) crosses HOT_SHARE and gets a split plan."""
    cluster = make_cluster(shard_count=2)
    rebalancer = attach_rebalancer(cluster)
    rebalancer.plan()  # baseline the heat window
    for _ in range(4):
        run_scan(cluster, HOT)   # b0 lives in shard 0; shard 1 skips
    plans = rebalancer.plan()
    splits = [p for p in plans if isinstance(p, SplitPlan)]
    assert splits and splits[0].collection == "books-c"
    spec = cluster.catalog.get("books-c")
    hot_shard = next(s for s in spec.shards
                     if s.index == splits[0].shard_index)
    assert hot_shard.local_name == "books.xml#s0"


def test_plan_moves_off_the_hottest_peer():
    """node1 serves shard 0 alone while node2 is down: its served bytes
    lift it past the spread factor times the mean load."""
    cluster = make_cluster()
    rebalancer = attach_rebalancer(cluster)
    cluster.peer_view.mark_down("node2")
    for _ in range(4):
        run_scan(cluster, HOT)   # b0 lives in shard 0; the rest skip
    cluster.peer_view.mark_up("node2")
    plans = rebalancer.plan()
    moves = [p for p in plans if isinstance(p, MovePlan)]
    assert moves
    want = expected()
    assert rebalancer.executor.execute(moves[0])
    assert run_scan(cluster) == want


def test_planned_migrations_run_to_completion():
    cluster = make_cluster(shard_count=2)
    rebalancer = attach_rebalancer(cluster)
    rebalancer.plan()
    for _ in range(4):
        run_scan(cluster, HOT)
    completed = [rebalancer.executor.execute(plan)
                 for plan in rebalancer.plan()]
    assert any(completed)
    assert cluster.catalog.get("books-c").shard_count >= 3
    assert run_scan(cluster) == expected()


# -- placement health (satellite) -------------------------------------------


def test_round_robin_insufficient_peers_is_typed():
    with pytest.raises(InsufficientHealthyPeersError):
        round_robin_placement(["a", "b"], shard_count=2,
                              replication_factor=3)


def test_create_collection_skips_unhealthy_peers():
    cluster = make_cluster()
    cluster.peer_view.mark_down("node1")
    cluster.peer_view.drain("node2")
    spec = create_sharded_collection(
        cluster, cluster.catalog, name="books2-c",
        document=library_document("xrpc://books2-c/books.xml"),
        document_name="books2.xml", container_path=LIBRARY_CONTAINER,
        member=LIBRARY_MEMBER, shard_count=2, replication_factor=2,
        peers=["node1", "node2", "node3", "node4"])
    placed = {peer for shard in spec.shards for peer in shard.replicas}
    assert placed == {"node3", "node4"}


def test_create_collection_raises_when_too_few_healthy():
    cluster = make_cluster()
    cluster.peer_view.mark_down("node1")
    cluster.peer_view.mark_down("node2")
    cluster.peer_view.mark_down("node3")
    with pytest.raises(InsufficientHealthyPeersError):
        create_sharded_collection(
            cluster, cluster.catalog, name="books2-c",
            document=library_document("xrpc://books2-c/books.xml"),
            document_name="books2.xml",
            container_path=LIBRARY_CONTAINER, member=LIBRARY_MEMBER,
            shard_count=2, replication_factor=2,
            peers=["node1", "node2", "node3", "node4"])


# -- introspection (satellite) ----------------------------------------------


def test_describe_reports_live_counts_and_reason():
    cluster = make_cluster()
    cluster.peer_view.mark_down("node1")
    snap = cluster.peer_view.describe()
    coll = snap["collections"]["books-c"]
    assert coll["last_reason"] == "register"
    assert coll["replication_factor"] == 2
    shard0 = coll["shards"][0]       # placed on node1+node2
    assert shard0["live"] == ["node2"]
    assert snap["down"] == ["node1"]
    rebalancer = attach_rebalancer(cluster)
    cluster.peer_view.mark_up("node1")
    assert rebalancer.move("books-c", 0, "node1")
    snap = cluster.peer_view.describe()
    assert snap["collections"]["books-c"]["last_reason"] == "rebalance"


def test_console_renders_topology():
    cluster = make_cluster()
    monitor = FleetMonitor().attach(cluster)
    text = render_fleet(monitor)
    assert "topology" in text
    assert "books-c [range] rf=2" in text
    assert "books.xml#s0" in text
    cluster.peer_view.mark_down("node1")
    cluster.peer_view.drain("node4")
    text = render_fleet(monitor)
    assert "UNDER-REPLICATED" in text
    assert "draining node4" in text


def test_console_without_federation_still_renders():
    cluster = make_cluster()
    monitor = FleetMonitor()     # never attached: no federation
    assert "topology" not in render_fleet(monitor)


# -- heat metrics ------------------------------------------------------------


def test_router_records_per_shard_serves():
    cluster = make_cluster(shard_count=2)
    rebalancer = attach_rebalancer(cluster)
    run_scan(cluster)
    heat = rebalancer.heat()
    assert heat.get(("books-c", "books.xml#s0"), 0) >= 1
    assert heat.get(("books-c", "books.xml#s1"), 0) >= 1
    run_scan(cluster, HOT)       # shard 1 proven empty: skipped
    after = rebalancer.heat()
    assert after[("books-c", "books.xml#s0")] > heat[
        ("books-c", "books.xml#s0")]
    assert after[("books-c", "books.xml#s1")] == heat[
        ("books-c", "books.xml#s1")]


# -- chaos integration -------------------------------------------------------


def test_schedule_generation_is_replay_compatible():
    """Adding rebalance ops must not perturb the fault stream: the
    same seed yields the same kills/degrades with or without them."""
    base = ChaosSchedule.generate(random.Random(7), ["a", "b", "c"],
                                  steps=24)
    spiced = ChaosSchedule.generate(random.Random(7), ["a", "b", "c"],
                                    steps=24, splits=2, moves=1,
                                    drains=1)
    faults = [e for e in spiced.events
              if e.action in ("kill", "revive", "degrade", "restore")]
    assert tuple(faults) == base.events
    ops = [e.action for e in spiced.events
           if e.action not in ("kill", "revive", "degrade", "restore")]
    assert sorted(set(ops)) == ["drain", "move", "split", "undrain"]


def resharding_drill(log_path):
    """One seeded chaos-with-resharding run on the virtual wire."""
    cluster = make_cluster(shard_count=2, transport=virtual_wire())
    nodes = ["node1", "node2", "node3", "node4"]
    monitor = FleetMonitor().attach(cluster)
    membership = MembershipTracker().attach(cluster)
    membership.watch(*nodes)
    RepairEngine().attach(cluster)
    rebalancer = Rebalancer().attach(cluster)
    schedule = ChaosSchedule.generate(
        random.Random(20090329), nodes, steps=24, splits=1, moves=2,
        drains=1)
    assert {"split", "move"} <= {e.action for e in schedule.events}
    harness = ChaosHarness(cluster, schedule,
                           queries=[(SCAN, expected())],
                           strategy=Strategy.BY_PROJECTION)
    report = harness.run()
    monitor.events.export_jsonl(log_path)
    return cluster, rebalancer, report


def test_chaos_with_resharding_zero_wrong_answers(tmp_path):
    cluster, rebalancer, report = resharding_drill(tmp_path / "a.jsonl")
    assert report.ok, report.as_dict()
    assert report.wrong_answers == 0
    assert report.splits + report.moves + report.retires >= 1
    assert report.migrations_failed == 0
    assert report.phantom_replicas == 0
    spec = cluster.catalog.get("books-c")
    for shard in spec.shards:
        live = [r for r in shard.replicas
                if cluster.peer_view.serves(r)]
        assert len(live) >= spec.replication_factor
    assert rebalancer.stats()["drains"] == 1

    # The drill replays: same report (latency percentiles included),
    # same event log byte for byte.
    _, _, again = resharding_drill(tmp_path / "b.jsonl")
    assert again.as_dict() == report.as_dict()
    assert report.p50_ms > 0.0
    first_log = (tmp_path / "a.jsonl").read_bytes()
    assert first_log and first_log == (tmp_path / "b.jsonl").read_bytes()
