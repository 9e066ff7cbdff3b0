"""Chaos soak benchmark: the self-healing cluster under a seeded
kill/revive/degrade schedule.

Not a paper figure — this drills the robustness layer end to end: a
:class:`~tests.cluster.chaos_harness.ChaosSchedule` generated from a fixed
seed is interleaved with a live workload against the sharded XMark
testbed, with the failure detector ticking every step and the repair
engine re-replicating after each eviction. Every answer is checked
byte-exact against a **single-owner oracle** (the same documents on
one unsharded peer — the strongest scatter-gather correctness check
available), and after the schedule the harness drives the cluster to
convergence and asserts the healed fleet fails over on nothing.

The drill runs on the virtual wire (``on_virtual_wire``), so a run is
a pure function of the seed. Emitted to ``BENCH_chaos.json``: the
outcome counts (``result_items`` is baseline-enforced exactly; the
chaos schedule, detector, and repair path are all seeded, so answer
drift means a real correctness bug) plus latency percentiles over the
live workload, in exact virtual milliseconds.
"""

import random

from repro.cluster.membership import MembershipTracker
from repro.cluster.repair import RepairEngine
from repro.decompose import Strategy
from repro.obs import FleetMonitor
from repro.workloads import (
    SHARDED_SCAN_QUERY, build_federation, build_sharded_federation,
)
from repro.xquery.xdm import serialize_sequence

from benchmarks.conftest import on_virtual_wire, print_table, write_json
from tests.cluster.chaos_harness import ChaosHarness, ChaosSchedule

SEED = 20090329
SCALE = 0.002
STEPS = 36
NODES = ["node1", "node2", "node3", "node4"]

COUNT_QUERY = ('count(doc("xrpc://people-c/people.xml")'
               "/child::site/child::people/child::person)")


def _oracle_answers() -> list[tuple[str, str]]:
    """(sharded query, expected serialization) via a single-owner
    federation over the same generated documents."""
    single = build_federation(SCALE, seed=SEED)

    def expected(query: str) -> str:
        rehosted = query.replace("xrpc://people-c", "xrpc://peer1")
        result = single.run(rehosted, at="local",
                            strategy=Strategy.BY_PROJECTION)
        return serialize_sequence(result.items)

    return [(query, expected(query))
            for query in (SHARDED_SCAN_QUERY, COUNT_QUERY)]


def _build_cluster():
    cluster = on_virtual_wire(build_sharded_federation(
        SCALE, seed=SEED, shard_count=4, replication_factor=2,
        node_count=4))
    FleetMonitor().attach(cluster)
    MembershipTracker().attach(cluster)
    RepairEngine().attach(cluster)
    return cluster


def _run_soak():
    queries = _oracle_answers()
    cluster = _build_cluster()
    schedule = ChaosSchedule.generate(random.Random(SEED), NODES,
                                      steps=STEPS)
    harness = ChaosHarness(cluster, schedule, queries=queries,
                           strategy=Strategy.BY_PROJECTION)
    report = harness.run()
    # One healthy post-convergence scan pins the deterministic answer
    # size for the regression baseline.
    result = cluster.run(SHARDED_SCAN_QUERY, at="local",
                         strategy=Strategy.BY_PROJECTION)
    assert serialize_sequence(result.items) == queries[0][1]
    return report, schedule, len(result.items), cluster.monitor.events


def test_chaos_soak():
    report, schedule, result_items, _events = _run_soak()
    row = {
        "experiment": "chaos_soak",
        "steps": report.steps,
        "fault_events": len(schedule.events),
        "queries": report.queries,
        "result_items": result_items,
        "wrong_answers": report.wrong_answers,
        "failovers": report.failovers,
        "retries": report.retries,
        "partial_shards": report.partial_shards,
        "evictions": report.evictions,
        "repairs_completed": report.repairs_completed,
        "repairs_failed": report.repairs_failed,
        "phantom_replicas": report.phantom_replicas,
        "steady_failovers": report.steady_failovers,
        "convergence_ticks": report.convergence_ticks,
        "p50_ms": round(report.p50_ms, 3),
        "p95_ms": round(report.p95_ms, 3),
        "p99_ms": round(report.p99_ms, 3),
    }
    print_table(
        f"Chaos soak: {STEPS} steps, {len(schedule.events)} fault "
        f"events, seed {SEED}",
        ["queries", "wrong", "failovers", "evictions", "repairs",
         "steady fo", "p99 ms"],
        [[row["queries"], row["wrong_answers"], row["failovers"],
          row["evictions"], row["repairs_completed"],
          row["steady_failovers"], f"{row['p99_ms']:.1f}"]])
    write_json("chaos", [row], seed=SEED, scale=SCALE, steps=STEPS,
               schedule=schedule.describe())

    assert report.wrong_answers == 0, report.wrong_steps
    assert report.converged, "cluster never converged after the schedule"
    assert report.steady_failovers == 0, (
        f"{report.steady_failovers} failovers after convergence — the "
        "healed cluster should route around nothing")
    assert report.repairs_failed == 0
    assert report.phantom_replicas == 0, (
        "the catalog places a replica on a peer that does not hold it")
    assert report.evictions >= 1, "schedule produced no eviction"
    assert report.repairs_completed >= 1, "evictions but no repairs"


def test_chaos_replay_is_deterministic(tmp_path):
    """Same seed ⇒ bit-identical schedule, report (latency percentiles
    included) and event log — the property that makes a CI chaos
    failure debuggable."""
    first, first_schedule, _, first_events = _run_soak()
    second, second_schedule, _, second_events = _run_soak()
    assert first_schedule == second_schedule
    assert first.as_dict() == second.as_dict()
    first_events.export_jsonl(tmp_path / "first.jsonl")
    second_events.export_jsonl(tmp_path / "second.jsonl")
    first_log = (tmp_path / "first.jsonl").read_bytes()
    assert first_log and first_log == (tmp_path / "second.jsonl").read_bytes()


def test_chaos_timing(benchmark):
    queries = _oracle_answers()

    def run() -> None:
        cluster = _build_cluster()
        schedule = ChaosSchedule.generate(random.Random(SEED), NODES,
                                          steps=12)
        report = ChaosHarness(cluster, schedule, queries=queries,
                              strategy=Strategy.BY_PROJECTION).run()
        assert report.wrong_answers == 0

    benchmark(run)
