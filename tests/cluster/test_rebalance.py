"""Load-aware rebalancing: scoring, planning, drain, placement health,
topology introspection, and chaos-schedule rebalance ops."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import (
    InsufficientHealthyPeersError, LoadScorer, MovePlan, Reconciler,
    SplitPlan, create_sharded_collection, round_robin_placement,
)
from repro.cluster.membership import EVICTED, MembershipTracker
from repro.decompose import Strategy
from repro.xquery.xdm import serialize_sequence

from tests.conftest import fuzz_settings
from tests.cluster.chaos_harness import ChaosHarness, ChaosSchedule
from tests.cluster.conftest import (
    LIBRARY_CONTAINER, LIBRARY_MEMBER, NODES, library_document,
    make_cluster, make_single_owner, observe, virtual_wire,
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


def attach_reconciler(cluster) -> Reconciler:
    observe(cluster)
    MembershipTracker().attach(cluster)
    return Reconciler().attach(cluster)


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
    tracker = MembershipTracker().attach(cluster)
    Reconciler().attach(cluster)
    cluster.peer_view.drain("local")
    cluster.transport.kill_peer("node1")
    while cluster.peer_view.state("node1") != EVICTED:
        tracker.tick()
    spec = cluster.catalog.get("books-c")
    placed = {peer for shard in spec.shards for peer in shard.replicas}
    assert placed == {"node2", "node3", "node4"}
    assert all(len(s.replicas) == spec.replication_factor
               for s in spec.shards)


# -- explicit operations -----------------------------------------------------


def test_split_keeps_answers_exact():
    cluster = make_cluster(shard_count=2)
    reconciler = attach_reconciler(cluster)
    want = expected()
    assert run_scan(cluster) == want
    epoch = cluster.catalog.epoch()
    assert reconciler.split("books-c", 0)
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
    reconciler = attach_reconciler(cluster)
    want = expected()
    spec = cluster.catalog.get("books-c")
    source = spec.shards[0].replicas[0]
    local_name = spec.shards[0].local_name
    assert reconciler.move("books-c", 0, source)
    spec = cluster.catalog.get("books-c")
    assert source not in spec.shards[0].replicas
    assert len(spec.shards[0].replicas) == 2
    # The old copy survives until collect() — an in-flight scatter
    # pinned to the old epoch may still need it.
    assert local_name in cluster.peer(source).documents
    assert run_scan(cluster) == want
    assert reconciler.collect() == 1
    assert local_name not in cluster.peer(source).documents
    assert run_scan(cluster) == want


def test_drain_empties_peer_and_keeps_replication():
    cluster = make_cluster()
    reconciler = attach_reconciler(cluster)
    want = expected()
    assert reconciler.drain("node1")
    reconciler.collect()
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
    reconciler.undrain("node1")
    assert cluster.peer_view.accepts("node1")


# -- planning ----------------------------------------------------------------


def test_plan_splits_the_hot_shard():
    """A shard absorbing all the traffic (shard skipping proves the
    others cold) crosses HOT_SHARE and gets a split plan."""
    cluster = make_cluster(shard_count=2)
    reconciler = attach_reconciler(cluster)
    reconciler.plan()  # baseline the heat window
    for _ in range(4):
        run_scan(cluster, HOT)   # b0 lives in shard 0; shard 1 skips
    plans = reconciler.plan()
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
    reconciler = attach_reconciler(cluster)
    cluster.peer_view.mark_down("node2")
    for _ in range(4):
        run_scan(cluster, HOT)   # b0 lives in shard 0; the rest skip
    cluster.peer_view.mark_up("node2")
    plans = reconciler.plan()
    moves = [p for p in plans if isinstance(p, MovePlan)]
    assert moves
    want = expected()
    assert reconciler.executor.execute(moves[0])
    assert run_scan(cluster) == want


def test_planned_migrations_run_to_completion():
    cluster = make_cluster(shard_count=2)
    reconciler = attach_reconciler(cluster)
    reconciler.plan()
    for _ in range(4):
        run_scan(cluster, HOT)
    completed = [reconciler.executor.execute(plan)
                 for plan in reconciler.plan()]
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
    reconciler = attach_reconciler(cluster)
    cluster.peer_view.mark_up("node1")
    assert reconciler.move("books-c", 0, "node1")
    snap = cluster.peer_view.describe()
    assert snap["collections"]["books-c"]["last_reason"] == "rebalance"


def test_describe_reports_layout_and_drains():
    cluster = make_cluster()
    cluster.peer_view.drain("node4")
    snap = cluster.peer_view.describe()
    coll = snap["collections"]["books-c"]
    assert coll["partitioning"] == "range"
    assert coll["shards"][0]["local_name"] == "books.xml#s0"
    assert snap["draining"] == ["node4"]


def test_describe_follows_an_eviction_and_its_repair():
    """The snapshot ``examples/sharded_cluster.py`` prints after a kill:
    the evicted peer is down and holds no placement, and every shard is
    back to its replication factor with all replicas live."""
    cluster = make_cluster()
    attach_reconciler(cluster)
    epoch = cluster.peer_view.describe()["epoch"]
    cluster.transport.kill_peer("node1")
    for _ in range(6):
        cluster.peer_view.detector.tick()
    snap = cluster.peer_view.describe()
    assert snap["epoch"] > epoch
    assert snap["down"] == ["node1"]
    coll = snap["collections"]["books-c"]
    assert coll["last_reason"] == "repair"
    for shard in coll["shards"]:
        assert "node1" not in shard["replicas"]
        assert shard["live"] == shard["replicas"]
        assert len(shard["live"]) == coll["replication_factor"]
    assert sum(shard["members"] for shard in coll["shards"]) == 10


# -- heat metrics ------------------------------------------------------------


def test_router_records_per_shard_serves():
    cluster = make_cluster(shard_count=2)
    reconciler = attach_reconciler(cluster)
    run_scan(cluster)
    heat = reconciler.heat()
    assert heat.get(("books-c", "books.xml#s0"), 0) >= 1
    assert heat.get(("books-c", "books.xml#s1"), 0) >= 1
    run_scan(cluster, HOT)       # shard 1 proven empty: skipped
    after = reconciler.heat()
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
    events = observe(cluster)
    membership = MembershipTracker().attach(cluster)
    membership.watch(*nodes)
    reconciler = Reconciler().attach(cluster)
    schedule = ChaosSchedule.generate(
        random.Random(20090329), nodes, steps=24, splits=1, moves=2,
        drains=1)
    assert {"split", "move"} <= {e.action for e in schedule.events}
    harness = ChaosHarness(cluster, schedule,
                           queries=[(SCAN, expected())],
                           strategy=Strategy.BY_PROJECTION)
    report = harness.run()
    events.export_jsonl(log_path)
    return cluster, reconciler, report


def test_chaos_with_resharding_zero_wrong_answers(tmp_path):
    cluster, reconciler, report = resharding_drill(tmp_path / "a.jsonl")
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
    assert reconciler.stats()["drains"] == 1

    # The drill replays: same report (latency percentiles included),
    # same event log byte for byte.
    _, _, again = resharding_drill(tmp_path / "b.jsonl")
    assert again.as_dict() == report.as_dict()
    assert report.p50_ms > 0.0
    first_log = (tmp_path / "a.jsonl").read_bytes()
    assert first_log and first_log == (tmp_path / "b.jsonl").read_bytes()


class PlacementCheckedHarness(ChaosHarness):
    """Checks the placement after every event and every query: an
    evicted peer is placed only as a shard's sole replica (what
    eviction keeps), and a drained peer holds nothing until it is
    undrained."""

    drained: set

    def apply(self, event):
        super().apply(event)
        if event.action == "undrain":
            self.drained.discard(event.peer)
        self.check()

    def _query(self, step, report, steady=False):
        super()._query(step, report, steady)
        self.check()

    def check(self):
        view = self.view
        shards = [shard for spec in self.federation.catalog.collections()
                  for shard in spec.shards]
        for shard in shards:
            for peer in shard.replicas:
                if view.state(peer) == EVICTED:
                    assert shard.replicas == (peer,), shard
        holders = {peer for shard in shards for peer in shard.replicas}
        self.drained |= {peer for peer in self.federation.peers
                         if view.draining(peer) and peer not in holders}
        assert not self.drained & holders, (self.drained, holders)


@fuzz_settings(8, hunt=300)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       splits=st.integers(min_value=0, max_value=2),
       moves=st.integers(min_value=0, max_value=3),
       drains=st.integers(min_value=0, max_value=2))
def test_placement_holds_over_generated_resharding_schedules(
        seed, splits, moves, drains):
    """After any seeded resharding schedule converges, every shard has
    its replication factor of serving replicas; along the way an
    evicted peer is never placed beside another replica, and a drained
    peer holds nothing until it is undrained."""
    cluster = make_cluster(shard_count=2, transport=virtual_wire())
    MembershipTracker().attach(cluster)
    Reconciler().attach(cluster)
    schedule = ChaosSchedule.generate(
        random.Random(seed), NODES, steps=24, splits=splits, moves=moves,
        drains=drains)
    harness = PlacementCheckedHarness(cluster, schedule,
                                      queries=[(SCAN, expected())],
                                      strategy=Strategy.BY_PROJECTION)
    harness.drained = set()
    report = harness.run()
    assert report.converged, report.as_dict()
    spec = cluster.catalog.get("books-c")
    for shard in spec.shards:
        live = [r for r in shard.replicas if cluster.peer_view.serves(r)]
        assert len(live) >= spec.replication_factor, shard
