"""The chaos harness: schedule generation invariants (property-
tested), deterministic replay, seeded kill/revive races against the
single-owner oracle, and failover accounting parity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterError
from tests.cluster.chaos_harness import (
    ACTIONS, ChaosEvent, ChaosHarness, ChaosReport, ChaosSchedule,
)
from repro.cluster.membership import MembershipTracker
from repro.cluster.repair import RepairEngine
from repro.decompose import Strategy
from repro.obs import FleetMonitor
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import (
    make_cluster, make_single_owner, virtual_wire,
)

NODES = ["node1", "node2", "node3", "node4"]

SCAN = ('doc("xrpc://books-c/books.xml")'
        "/child::library/child::books/child::book/child::title")
COUNT = ('count(doc("xrpc://books-c/books.xml")'
         "/child::library/child::books/child::book)")

_ORACLE: list[tuple[str, str]] = []


def oracle_queries() -> list[tuple[str, str]]:
    """(query, expected) pairs computed once on a single-owner copy."""
    if not _ORACLE:
        single = make_single_owner()
        for query in (SCAN, COUNT):
            result = single.run(
                query.replace("xrpc://books-c", "xrpc://owner"),
                at="local", strategy=Strategy.BY_PROJECTION)
            _ORACLE.append((query, serialize_sequence(result.items)))
    return list(_ORACLE)


def healing_cluster():
    cluster = make_cluster()
    MembershipTracker().attach(cluster)
    RepairEngine().attach(cluster)
    return cluster


# -- event / schedule basics -------------------------------------------------


def test_chaos_event_validation():
    with pytest.raises(ClusterError):
        ChaosEvent(0, "explode", "node1")
    with pytest.raises(ClusterError):
        ChaosEvent(-1, "kill", "node1")
    event = ChaosEvent(3, "degrade", "node2", extra_latency_s=0.001)
    assert event.extra_latency_s == 0.001


def test_generate_requires_peers_and_sane_max_down():
    rng = random.Random(0)
    with pytest.raises(ClusterError):
        ChaosSchedule.generate(rng, [])
    with pytest.raises(ClusterError):
        ChaosSchedule.generate(rng, NODES, max_down=-1)


def test_same_seed_same_schedule():
    first = ChaosSchedule.generate(random.Random(42), NODES, steps=40)
    second = ChaosSchedule.generate(random.Random(42), NODES, steps=40)
    assert first == second
    assert first.describe() == second.describe()


# -- generate() invariants, property-tested over seeds ------------------------


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       steps=st.integers(min_value=8, max_value=64),
       max_down=st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_generate_invariants(seed, steps, max_down):
    schedule = ChaosSchedule.generate(
        random.Random(seed), NODES, steps=steps, max_down=max_down)

    assert schedule.steps == steps
    assert all(e.action in ACTIONS for e in schedule.events)
    assert all(0 <= e.step <= steps for e in schedule.events)
    keys = [(e.step, ACTIONS.index(e.action), e.peer)
            for e in schedule.events]
    assert keys == sorted(keys)

    # The tail quarter stays quiet: faults are only *started* before
    # quiet_from, so the run always ends on a healable cluster.
    quiet_from = steps - max(1, steps // 4)
    assert all(e.step < quiet_from for e in schedule.events
               if e.action in ("kill", "degrade"))

    # Replay the schedule and check the pairing invariants: every kill
    # is revived (and vice versa), every degrade restored, at most
    # max_down peers down at once, one fault per peer at a time.
    down: set[str] = set()
    slow: set[str] = set()
    for step in range(steps + 1):
        for event in schedule.due(step):
            if event.action == "kill":
                assert event.peer not in down | slow
                down.add(event.peer)
            elif event.action == "revive":
                assert event.peer in down
                down.discard(event.peer)
            elif event.action == "degrade":
                assert event.peer not in down | slow
                assert event.extra_latency_s > 0
                slow.add(event.peer)
            elif event.action == "restore":
                assert event.peer in slow
                slow.discard(event.peer)
        assert len(down) <= max_down
    assert not down, "every kill must get a revive inside the schedule"
    assert not slow, "every degrade must get a restore"
    if max_down == 0:
        assert not any(e.action == "kill" for e in schedule.events)


# -- kill/revive races against the oracle, over seeds -------------------------


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=8, deadline=None)
def test_chaos_race_zero_wrong_answers(seed):
    """Whatever seeded kill/revive/degrade interleaving the generator
    produces, every answer matches the single-owner oracle, the
    cluster converges, and the healed fleet fails over on nothing."""
    queries = oracle_queries()
    cluster = healing_cluster()
    schedule = ChaosSchedule.generate(random.Random(seed), NODES,
                                      steps=16)
    harness = ChaosHarness(cluster, schedule, queries=queries,
                           strategy=Strategy.BY_PROJECTION)
    report = harness.run()
    assert report.wrong_answers == 0, (seed, report.wrong_steps)
    assert report.converged, seed
    assert report.steady_failovers == 0, seed
    assert report.repairs_failed == 0, seed
    assert report.phantom_replicas == 0, seed
    assert report.as_dict()["phantom_replicas"] == 0
    # Every eviction the race produced must have been repaired back to
    # target replication.
    spec = cluster.catalog.get("books-c")
    assert all(len(s.replicas) >= spec.target_replication
               for s in spec.shards), seed


def test_harness_replay_identical_reports(tmp_path):
    """A seeded drill on the virtual wire is a replayable artefact, not
    a handful of comparable counts: two runs give the same report —
    latency percentiles included — and the same event log, byte for
    byte."""
    queries = oracle_queries()

    def run(log_name: str) -> tuple[ChaosReport, bytes]:
        cluster = make_cluster(transport=virtual_wire())
        monitor = FleetMonitor().attach(cluster)
        MembershipTracker().attach(cluster)
        RepairEngine().attach(cluster)
        schedule = ChaosSchedule.generate(random.Random(7), NODES,
                                          steps=30, degrade_rate=0.3)
        assert {"kill", "degrade"} <= {e.action for e in schedule.events}
        report = ChaosHarness(cluster, schedule, queries=queries,
                              strategy=Strategy.BY_PROJECTION).run()
        monitor.events.export_jsonl(tmp_path / log_name)
        return report, (tmp_path / log_name).read_bytes()

    (first, first_log), (second, second_log) = run("a"), run("b")
    assert first.ok, first.as_dict()
    assert first.as_dict() == second.as_dict()
    assert 0.0 < first.p50_ms <= first.p99_ms   # virtual, and not 0 == 0
    assert first_log and first_log == second_log


def test_harness_requires_membership_and_queries():
    cluster = make_cluster()                      # no tracker attached
    schedule = ChaosSchedule.generate(random.Random(0), NODES)
    with pytest.raises(ClusterError, match="membership"):
        ChaosHarness(cluster, schedule, queries=oracle_queries())
    with pytest.raises(ClusterError, match="quer"):
        ChaosHarness(cluster, schedule, queries=[],
                     membership=MembershipTracker().attach(cluster))


# -- failover accounting parity ----------------------------------------------


def test_failover_events_match_stats():
    """Every failover counted in the stats is also an emitted event —
    the dashboards and the return value must never disagree."""
    cluster = make_cluster()
    monitor = FleetMonitor().attach(cluster)
    cluster.transport.kill_peer("node2")
    result = cluster.run(SCAN, at="local",
                         strategy=Strategy.BY_PROJECTION)
    [(query, expected)] = oracle_queries()[:1]
    assert serialize_sequence(result.items) == expected
    assert result.stats.failovers >= 1
    assert monitor.events.count("failover") == result.stats.failovers
