"""The sharded cluster's drills as one pinned file.

``python benchmarks/drills.py`` runs the five seeded drills of the
self-healing, resharding cluster on the virtual wire, prints their
tables, and rewrites ``drills.json``; tier-1 holds every cell and every
event line exact (``tests/integration/test_drills.py``):

- ``chaos``: detect -> evict -> re-replicate -> serve -> rejoin;
- ``rebalance``: observe skew -> split -> move -> drain;
- ``soak``: a replica degrades (demoted before anything fails), then
  one dies and comes back;
- ``chaos_soak``: a seeded 36-step kill / revive / degrade schedule;
- ``reshard_soak``: the same with seeded splits, moves and a drain.

Every answer is checked against a single-owner oracle. All time is the
virtual clock's, so a drill is a pure function of its seed: two runs
write the same bytes, under any ``PYTHONHASHSEED``. A cell records what
a drill observed; the test asserts what each cell must be.
"""
# ruff: noqa: E402

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [path for path in (str(ROOT), str(ROOT / "src"))
                if path not in sys.path]

from benchmarks.conftest import print_table
from repro.cluster.membership import EVICTED, MembershipTracker
from repro.cluster.rebalance import LoadScorer, Reconciler, SplitPlan
from repro.decompose import Strategy
from repro.obs import EventLog, HealthTracker
from repro.runtime import FederationEngine
from repro.workloads import (SHARDED_HOT_QUERY, SHARDED_SCAN_QUERY,
                             build_federation, build_sharded_federation)
from repro.xquery.xdm import serialize_sequence
from tests.cluster.chaos_harness import ChaosHarness, ChaosSchedule
from tests.cluster.conftest import NODES, virtual_wire

DRILLS_JSON = ROOT / "benchmarks" / "drills.json"
SEED = 20090329
SCALE = 0.002
#: The rebalance drill's hot shard needs >= 4 members to split.
REBALANCE_SCALE = 0.01
SOAK_STEPS = 36
#: Injected delay far above a healthy shard call: only the degraded
#: peer's scores fall.
DEGRADE_S = 0.080
COUNT_QUERY = ('count(doc("xrpc://people-c/people.xml")'
               "/child::site/child::people/child::person)")
BY_PROJECTION = {"at": "local", "strategy": Strategy.BY_PROJECTION}


def oracle(scale: float, query: str) -> str:
    """``query``'s answer from one unsharded peer holding the documents."""
    single = build_federation(scale, seed=SEED)
    return serialize_sequence(single.run(
        query.replace("xrpc://people-c", "xrpc://peer1"),
        **BY_PROJECTION).items)


def cluster(scale: float):
    """The XMark pair sharded 4 x 2 over four nodes, on the virtual
    wire, with an event log and a health scorer attached."""
    fed = build_sharded_federation(scale, seed=SEED)
    fed.transport = virtual_wire()
    events = EventLog().attach(fed)
    HealthTracker().attach(fed)
    return fed, events


def engine(fed) -> FederationEngine:
    """One worker (a shared virtual timeline adds concurrent sleeps),
    no cache (a cache hit feeds the health scorer a 0 ms sample)."""
    return FederationEngine(fed, max_workers=1, cache=False)


def total(fed, name: str) -> int:
    """A registry series of ``fed``, summed over its labels."""
    value = fed.metrics.snapshot().get(name, 0)
    return sum(value.values()) if isinstance(value, dict) else value


def exact(engine, n: int, expected: str) -> bool:
    """Run ``n`` scans through the engine: do they all answer
    ``expected``?"""
    futures = [engine.submit(SHARDED_SCAN_QUERY, **BY_PROJECTION)
               for _ in range(n)]
    return {serialize_sequence(f.result().items) for f in futures} \
        == {expected}


def under_replicated(fed, gone: str) -> int:
    """Shards with fewer live replicas than their target, ``gone``
    not counted."""
    return [len([r for r in shard.replicas if r != gone])
            < spec.replication_factor for spec in fed.catalog.collections()
            for shard in spec.shards].count(True)


def event_lines(events: EventLog) -> list:
    """The event log as its JSON Lines export writes it."""
    return [json.dumps(event, sort_keys=True)
            for event in events.to_dicts()]


def chaos_drill() -> dict:
    fed, events = cluster(SCALE)
    tracker = MembershipTracker().attach(fed)
    reconciler = Reconciler().attach(fed)
    expected, view = oracle(SCALE, SHARDED_SCAN_QUERY), fed.peer_view
    cells = {"lost_fragments": [
        "node1" in shard.replicas for spec in fed.catalog.collections()
        for shard in spec.shards].count(True)}
    with engine(fed) as queries:
        def failovers() -> int:
            return total(fed, "scatter_failovers_total")

        cells["warmup_exact"] = exact(queries, 8, expected)
        cells["warmup_failovers"] = failovers()
        # Degraded, not dead: down marks steer two shards onto node2.
        view.mark_down("node1")
        view.mark_down("node3")
        fed.transport.degrade_peer("node2", DEGRADE_S)
        cells["degrade_exact"] = exact(queries, 6, expected)
        tracker.tick()
        cells["degraded_state"] = view.state("node2")
        view.mark_up("node1")
        view.mark_up("node3")
        fed.transport.restore_peer("node2")
        # Kill node1: probe ticks walk it to eviction, and the
        # reconciler re-replicates what it held.
        epoch = fed.catalog.epoch()
        fed.transport.kill_peer("node1")
        ticks = 0
        while view.state("node1") != EVICTED and ticks < 12:
            tracker.tick()
            ticks += 1
        cells.update(ticks_to_eviction=ticks, killed_state=view.state("node1"),
                     eviction_epochs=fed.catalog.epoch() - epoch,
                     repair_converged=reconciler.reconcile() == 0,
                     repairs_completed=reconciler.stats()[
                         "repairs_completed"],
                     under_replicated=under_replicated(fed, "node1"))
        before = failovers()
        cells["healed_exact"] = exact(queries, 8, expected)
        cells["healed_failovers"] = failovers() - before
        # node1 returns and rejoins.
        fed.transport.revive_peer("node1")
        tracker.rejoin("node1")
        for _ in range(3):
            tracker.tick()
        cells.update(revived_state=view.state("node1"),
                     converged=tracker.converged(),
                     revived_exact=exact(queries, 4, expected),
                     failed=total(fed, "query_failed_total"))
    return {**cells, **{kind: events.count(kind) for kind in (
        "replica_evicted", "repair_completed")},
        "events": event_lines(events)}


def rebalance_drill() -> dict:
    fed, events = cluster(REBALANCE_SCALE)
    MembershipTracker().attach(fed)
    reconciler = Reconciler().attach(fed)
    scan, hot = (oracle(REBALANCE_SCALE, query)
                 for query in (SHARDED_SCAN_QUERY, SHARDED_HOT_QUERY))
    cells: dict = {}

    def answers(name: str, query: str, expected: str, n: int = 1) -> int:
        items = [fed.run(query, **BY_PROJECTION).items for _ in range(n)]
        cells[name] = all(serialize_sequence(i) == expected for i in items)
        return len(items[-1])

    answers("warmup_exact", SHARDED_SCAN_QUERY, scan, 4)
    reconciler.plan()   # drain the warmup's heat
    # Hot skew: the heat nominates one shard, and its split changes
    # no answer.
    shards = len(fed.catalog.get("people-c").shards)
    answers("hot_exact", SHARDED_HOT_QUERY, hot, 12)
    plans = reconciler.plan()
    splits = [p for p in plans if isinstance(p, SplitPlan)
              and p.collection == "people-c"]
    cells.update(split_plans=len(splits), splits_completed=[
        reconciler.executor.execute(plan) for plan in splits].count(True))
    for plan in plans:
        if plan not in splits:
            # A companion move may have gone stale behind the split's
            # renumbering: best effort.
            reconciler.executor.execute(plan)
    cells["people_shards"] = [shards, len(fed.catalog.get("people-c").shards)]
    answers("split_scan_exact", SHARDED_SCAN_QUERY, scan)
    answers("split_hot_exact", SHARDED_HOT_QUERY, hot)
    # Move a replica of s0: the retired copy stays until collect().
    shard = fed.catalog.get("people-c").shards[0]
    source = fed.peer(shard.replicas[0])
    cells["move_completed"] = reconciler.move("people-c", shard.index,
                                              shard.replicas[0])
    cells["retired_copy_kept"] = shard.local_name in source.documents
    cells["move_collected"] = reconciler.collect()
    cells["retired_copy_left"] = shard.local_name in source.documents
    answers("move_exact", SHARDED_SCAN_QUERY, scan)
    # Decommission node4: every placement it held retires or moves.
    cells["drain_completed"] = reconciler.drain("node4")
    cells["drain_collected"] = reconciler.collect()
    cells.update(
        drained_fragments=LoadScorer(fed).snapshot()["node4"].fragments,
        drained_documents=len(fed.peer("node4").documents),
        under_replicated=under_replicated(fed, "node4"))
    cells["result_items"] = answers("drain_scan_exact", SHARDED_SCAN_QUERY,
                                    scan)
    answers("drain_hot_exact", SHARDED_HOT_QUERY, hot)
    stats = reconciler.stats()
    # This drill evicts nothing: its cells are the migration counters.
    del stats["repairs_completed"], stats["repairs_failed"]
    return {**cells, **stats, **{
        kind: events.count(kind)
        for kind in ("rebalance_planned", "rebalance_retired")},
        "events": event_lines(events)}


def soak_drill() -> dict:
    fed, events = cluster(SCALE)
    expected = serialize_sequence(
        fed.run(SHARDED_SCAN_QUERY, **BY_PROJECTION).items)
    cells: dict = {}
    with engine(fed) as queries:
        cells["warmup_exact"] = exact(queries, 8, expected)
        cells["warmup_failovers"] = total(fed, "scatter_failovers_total")
        # node2 slows down, and down marks steer two shards onto it:
        # only health scoring can catch it, before anything fails.
        fed.peer_view.mark_down("node1")
        fed.peer_view.mark_down("node3")
        fed.transport.degrade_peer("node2", DEGRADE_S)
        cells["degrade_exact"] = exact(queries, 6, expected)
        cells["demoted"] = sorted({event.attrs["peer"] for event in
                                   events.recent(kind="health_demoted")})
        cells["degrade_failovers"] = total(fed, "scatter_failovers_total")
        # Hard churn: heal, then kill a healthy first choice and revive.
        fed.peer_view.mark_up("node1")
        fed.peer_view.mark_up("node3")
        fed.transport.restore_peer("node2")
        fed.transport.kill_peer("node1")
        cells["kill_exact"] = exact(queries, 8, expected)
        cells["kill_failovers"] = total(fed, "scatter_failovers_total")
        fed.transport.revive_peer("node1")
        cells["revived_exact"] = exact(queries, 4, expected)
        cells["failed"] = total(fed, "query_failed_total")
    return {**cells, "health_demoted": events.count("health_demoted"),
            "events": event_lines(events)}


def soak(reshard: bool) -> dict:
    """A seeded schedule through :class:`ChaosHarness`, then one
    healthy scan."""
    queries = [(query, oracle(SCALE, query))
               for query in (SHARDED_SCAN_QUERY, COUNT_QUERY)]
    fed, events = cluster(SCALE)
    MembershipTracker().attach(fed)
    Reconciler().attach(fed)
    schedule = ChaosSchedule.generate(
        random.Random(SEED), NODES, steps=SOAK_STEPS,
        **({"splits": 2, "moves": 3, "drains": 1} if reshard else {}))
    report = ChaosHarness(fed, schedule, queries=queries,
                          strategy=Strategy.BY_PROJECTION).run()
    items = fed.run(SHARDED_SCAN_QUERY, **BY_PROJECTION).items
    return {**report.as_dict(), **{f"p{q}_ms": round(getattr(
        report, f"p{q}_ms"), 3) for q in (50, 95, 99)},
        "fault_events": len(schedule.events), "result_items": len(items),
        "wrong_steps": report.wrong_steps,
        "final_exact": serialize_sequence(items) == queries[0][1],
        "schedule": schedule.describe(), "events": event_lines(events)}


def compute() -> dict:
    """Every drill's cells and event log, JSON-shaped."""
    return {"chaos": chaos_drill(), "rebalance": rebalance_drill(),
            "soak": soak_drill(), "chaos_soak": soak(reshard=False),
            "reshard_soak": soak(reshard=True)}


#: What each table shows of a drill (the file holds every cell).
COLUMNS = {
    "chaos": ("ticks_to_eviction", "repairs_completed", "healed_failovers",
              "replica_evicted"),
    "rebalance": ("people_shards", "splits", "moves", "collected",
                  "drained_fragments", "result_items"),
    "soak": ("demoted", "degrade_failovers", "kill_failovers",
             "health_demoted"),
    "chaos_soak": ("queries", "wrong_answers", "failovers", "evictions",
                   "repairs_completed", "steady_failovers", "p99_ms"),
    "reshard_soak": ("queries", "wrong_answers", "splits", "moves",
                     "drains", "migrations_failed", "p99_ms"),
}


def main() -> None:
    pinned = json.dumps(compute(), indent=1, sort_keys=True) + "\n"
    DRILLS_JSON.write_text(pinned)
    for name, cells in json.loads(pinned).items():
        print_table(f"{name} (seed {SEED}, {len(cells['events'])} events)",
                    list(COLUMNS[name]), [[cells[c] for c in COLUMNS[name]]])
    print("\n[drills] wrote benchmarks/drills.json")


if __name__ == "__main__":
    main()
