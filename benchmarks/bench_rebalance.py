"""Rebalance benchmark: elastic operations drilled deterministically.

Not a paper figure — this drills the online-resharding layer end to
end and pins its outcome counts as a regression baseline:

* **rebalance_drill** — the scripted elastic sequence against the
  sharded XMark testbed: hot-tenant skew observed by the planner, the
  nominated split executed, a replica moved to the coolest peer, a
  peer drained to empty. Every phase's answers are checked byte-exact
  against a single-owner oracle, and the executed split/move/retire
  counts are deterministic.
* **chaos_reshard_soak** — the chaos schedule extended with seeded
  split/move/drain events interleaved with kills and revives: zero
  wrong answers, zero failed migrations, convergence to target
  replication on the healthy fleet.

Both run on the virtual wire (``on_virtual_wire``), so a run is a pure
function of the seed. Emitted to ``BENCH_rebalance.json``: the outcome
counts (``result_items`` is baseline-enforced exactly) plus latency
percentiles over the chaos workload, in exact virtual milliseconds.
"""

import random

from repro.cluster.chaos import ChaosHarness, ChaosSchedule
from repro.cluster.membership import MembershipTracker
from repro.cluster.rebalance import Rebalancer, SplitPlan
from repro.cluster.repair import RepairEngine
from repro.decompose import Strategy
from repro.obs import FleetMonitor
from repro.workloads import (
    SHARDED_HOT_QUERY, SHARDED_SCAN_QUERY, build_federation,
    build_sharded_federation,
)
from repro.xquery.xdm import serialize_sequence

from benchmarks.conftest import on_virtual_wire, print_table, write_json

SEED = 20090329
DRILL_SCALE = 0.01     # hot shard must have >= 4 members to split
CHAOS_SCALE = 0.002
CHAOS_STEPS = 36
NODES = ["node1", "node2", "node3", "node4"]

COUNT_QUERY = ('count(doc("xrpc://people-c/people.xml")'
               "/child::site/child::people/child::person)")


def _oracle(scale: float, query: str) -> str:
    single = build_federation(scale, seed=SEED)
    rehosted = query.replace("xrpc://people-c", "xrpc://peer1")
    result = single.run(rehosted, at="local",
                        strategy=Strategy.BY_PROJECTION)
    return serialize_sequence(result.items)


def _build_cluster(scale: float):
    cluster = on_virtual_wire(build_sharded_federation(
        scale, seed=SEED, shard_count=4, replication_factor=2,
        node_count=4))
    FleetMonitor().attach(cluster)
    MembershipTracker().attach(cluster)
    RepairEngine().attach(cluster)
    return Rebalancer().attach(cluster)


def _run_drill():
    """Skew → split → move → drain, returning (stats, shard counts,
    post-drill scan item count)."""
    rebalancer = _build_cluster(DRILL_SCALE)
    cluster = rebalancer.federation
    scan_oracle = _oracle(DRILL_SCALE, SHARDED_SCAN_QUERY)

    def answer(query: str) -> str:
        result = cluster.run(query, at="local",
                             strategy=Strategy.BY_PROJECTION)
        return serialize_sequence(result.items)

    rebalancer.plan()   # drain the warmup heat window
    for _ in range(12):
        answer(SHARDED_HOT_QUERY)
    plans = rebalancer.plan()
    splits = [p for p in plans if isinstance(p, SplitPlan)]
    assert splits, f"hot skew planned no split: {plans}"
    for plan in splits:
        assert rebalancer.executor.execute(plan)
    shard_count = len(cluster.catalog.get("people-c").shards)

    shard = cluster.catalog.get("people-c").shards[0]
    assert rebalancer.move("people-c", shard.index, shard.replicas[0])
    assert rebalancer.drain("node4")
    collected = rebalancer.collect()
    assert answer(SHARDED_SCAN_QUERY) == scan_oracle

    result = cluster.run(SHARDED_SCAN_QUERY, at="local",
                         strategy=Strategy.BY_PROJECTION)
    return rebalancer.stats(), shard_count, collected, len(result.items)


def _run_chaos_soak():
    queries = [(query, _oracle(CHAOS_SCALE, query))
               for query in (SHARDED_SCAN_QUERY, COUNT_QUERY)]
    rebalancer = _build_cluster(CHAOS_SCALE)
    cluster = rebalancer.federation
    schedule = ChaosSchedule.generate(random.Random(SEED), NODES,
                                      steps=CHAOS_STEPS, splits=2,
                                      moves=3, drains=1)
    harness = ChaosHarness(cluster, schedule, queries=queries,
                           strategy=Strategy.BY_PROJECTION)
    report = harness.run()
    result = cluster.run(SHARDED_SCAN_QUERY, at="local",
                         strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == queries[0][1]
    return report, schedule, len(result.items)


def _drill_row():
    stats, shard_count, collected, result_items = _run_drill()
    row = {
        "experiment": "rebalance_drill",
        "result_items": result_items,
        "people_shards": shard_count,
        "splits": stats["splits"],
        "moves": stats["moves"],
        "retires": stats["retires"],
        "migrations_failed": stats["migrations_failed"],
        "fragments_collected": collected,
    }
    print_table(
        f"Rebalance drill: split + move + drain, seed {SEED}",
        ["shards", "splits", "moves", "retires", "failed", "collected"],
        [[row["people_shards"], row["splits"], row["moves"],
          row["retires"], row["migrations_failed"],
          row["fragments_collected"]]])

    assert stats["migrations_failed"] == 0
    assert stats["splits"] >= 1
    assert stats["moves"] >= 1
    # At exactly target replication a drain migrates rather than
    # retires, so `retires` stays 0 here; superseded copies are
    # reclaimed lazily instead.
    assert collected >= 1
    return row


def _soak_row():
    report, schedule, result_items = _run_chaos_soak()
    row = {
        "experiment": "chaos_reshard_soak",
        "steps": report.steps,
        "fault_events": len(schedule.events),
        "queries": report.queries,
        "result_items": result_items,
        "wrong_answers": report.wrong_answers,
        "failovers": report.failovers,
        "evictions": report.evictions,
        "repairs_completed": report.repairs_completed,
        "splits": report.splits,
        "moves": report.moves,
        "drains": report.drains,
        "retires": report.retires,
        "migrations_failed": report.migrations_failed,
        "fragments_collected": report.fragments_collected,
        "phantom_replicas": report.phantom_replicas,
        "steady_failovers": report.steady_failovers,
        "p50_ms": round(report.p50_ms, 3),
        "p95_ms": round(report.p95_ms, 3),
        "p99_ms": round(report.p99_ms, 3),
    }
    print_table(
        f"Chaos+reshard soak: {CHAOS_STEPS} steps, "
        f"{len(schedule.events)} events, seed {SEED}",
        ["queries", "wrong", "splits", "moves", "drains", "failed mig",
         "steady fo"],
        [[row["queries"], row["wrong_answers"], row["splits"],
          row["moves"], row["drains"], row["migrations_failed"],
          row["steady_failovers"]]])

    assert report.wrong_answers == 0, report.wrong_steps
    assert report.converged, "cluster never converged after the schedule"
    assert report.steady_failovers == 0
    assert report.migrations_failed == 0
    assert report.phantom_replicas == 0
    assert report.splits >= 1 and report.moves >= 1
    assert report.drains >= 1
    return row


def test_rebalance_drill_and_soak():
    """Both drills, asserted and persisted as one JSON artifact (a
    pure function of the seed, so repeated runs diff clean)."""
    rows = [_drill_row(), _soak_row()]
    write_json("rebalance", rows, seed=SEED, drill_scale=DRILL_SCALE,
               chaos_scale=CHAOS_SCALE, chaos_steps=CHAOS_STEPS)


def test_reshard_replay_is_deterministic():
    """Same seed ⇒ identical schedule and identical report, latency
    percentiles included — what makes a CI resharding failure
    debuggable."""
    first, first_schedule, first_items = _run_chaos_soak()
    second, second_schedule, second_items = _run_chaos_soak()
    assert first_schedule == second_schedule
    assert first_items == second_items
    assert first.as_dict() == second.as_dict()


def test_rebalance_timing(benchmark):
    def run() -> None:
        stats, _shards, _collected, _items = _run_drill()
        assert stats["migrations_failed"] == 0

    benchmark(run)
