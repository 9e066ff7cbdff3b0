"""The chaos harness: schedule generation invariants (property-
tested), deterministic replay, seeded kill/revive races against the
single-owner oracle, failover accounting parity, and the exact
percentile behind a drill's latency cells."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterError
from tests.cluster.chaos_harness import (
    ACTIONS, ChaosEvent, ChaosHarness, ChaosReport, ChaosSchedule,
    percentile,
)
from repro.cluster.membership import MembershipTracker
from repro.cluster.rebalance import Reconciler
from repro.decompose import Strategy
from repro.xquery.xdm import serialize_sequence

from tests.cluster.conftest import (
    make_cluster, make_single_owner, observe, virtual_wire,
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
    Reconciler().attach(cluster)
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
    assert all(len(s.replicas) >= spec.replication_factor
               for s in spec.shards), seed


def test_harness_replay_identical_reports(tmp_path):
    """A seeded drill on the virtual wire is a replayable artefact, not
    a handful of comparable counts: two runs give the same report —
    latency percentiles included — and the same event log, byte for
    byte."""
    queries = oracle_queries()

    def run(log_name: str) -> tuple[ChaosReport, bytes]:
        cluster = make_cluster(transport=virtual_wire())
        events = observe(cluster)
        MembershipTracker().attach(cluster)
        Reconciler().attach(cluster)
        schedule = ChaosSchedule.generate(random.Random(7), NODES,
                                          steps=30, degrade_rate=0.3)
        assert {"kill", "degrade"} <= {e.action for e in schedule.events}
        report = ChaosHarness(cluster, schedule, queries=queries,
                              strategy=Strategy.BY_PROJECTION).run()
        events.export_jsonl(tmp_path / log_name)
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
    MembershipTracker().attach(cluster)
    with pytest.raises(ClusterError, match="quer"):
        ChaosHarness(cluster, schedule, queries=[])


# -- failover accounting parity ----------------------------------------------


def test_failover_events_match_stats():
    """Every failover counted in the stats is also an emitted event —
    the dashboards and the return value must never disagree."""
    cluster = make_cluster()
    events = observe(cluster)
    cluster.transport.kill_peer("node1")    # a peer of the first cover
    result = cluster.run(SCAN, at="local",
                         strategy=Strategy.BY_PROJECTION)
    [(query, expected)] = oracle_queries()[:1]
    assert serialize_sequence(result.items) == expected
    assert result.stats.failovers >= 1
    assert events.count("failover") == result.stats.failovers


class TestPercentile:
    @pytest.mark.parametrize("values, q, expected", [
        # Empty: 0.0 at every q.
        ([], 0, 0.0), ([], 50, 0.0), ([], 95, 0.0), ([], 100, 0.0),
        # One value is every percentile of itself.
        ([7.5], 0, 7.5), ([7.5], 1, 7.5), ([7.5], 50, 7.5),
        ([7.5], 99, 7.5), ([7.5], 100, 7.5),
        ([3.5], 50, 3.5), ([3.5], 99, 3.5),
        # Endpoints and the median, from unsorted input.
        ([4.0, 1.0, 3.0, 2.0], 0, 1.0), ([4.0, 1.0, 3.0, 2.0], 100, 4.0),
        ([4.0, 1.0, 3.0, 2.0], 50, 2.5), ([1.0, 2.0, 3.0, 4.0], 50, 2.5),
        ([5.0, 1.0, 3.0], 0, 1.0), ([5.0, 1.0, 3.0], 100, 5.0),
        # Linear interpolation between neighbours.
        ([0.0, 10.0], 25, 2.5), ([0.0, 10.0], 75, 7.5),
    ])
    def test_value(self, values, q, expected):
        assert percentile(values, q) == expected

    @pytest.mark.parametrize("q", [-0.1, 100.1, 101])
    def test_out_of_range_raises(self, q):
        with pytest.raises(ValueError):
            percentile([1.0], q)

    def test_p95_on_uniform_grid(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 95) == pytest.approx(95.05)

    def test_input_not_mutated(self):
        values = [3.0, 1.0, 2.0]
        percentile(values, 95)
        assert values == [3.0, 1.0, 2.0]

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
           st.floats(0, 100))
    def test_bounded_by_min_and_max(self, values, q):
        result = percentile(values, q)
        epsilon = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
        assert min(values) - epsilon <= result <= max(values) + epsilon

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_monotone_in_q(self, values):
        points = [percentile(values, q) for q in (0, 25, 50, 75, 100)]
        assert points == sorted(points)
