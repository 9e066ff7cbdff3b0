"""CI rebalance smoke: observe skew → split → move → drain, end to end.

The elastic-operations pipeline against the sharded XMark cluster with
the full observability stack attached:

1. **warmup** — healthy fleet, answers byte-exact vs a single-owner
   oracle; the planner's heat window is drained so the skew phase
   starts clean.
2. **skew → split** — a hot-tenant point lookup hammers one person id;
   the router's value-index probes skip every other shard, so all the
   served heat lands on one shard. The rebalancer's planner must
   propose splitting exactly that shard from the heat signal alone,
   and executing the split must leave every answer byte-identical.
3. **move** — a replica of the hottest shard migrates to the coolest
   peer through the staged copy → verify → cutover protocol; the
   retired source copy survives until ``collect()`` so epoch-pinned
   readers are never torn.
4. **drain** — a peer is decommissioned: every placement it held is
   retired (where replication allows) or migrated off, until the peer
   holds nothing. Replication never dips below target on the
   remaining fleet.

Zero wrong answers throughout; zero failed migrations; the drained
peer ends empty. Event JSONL is written into the output directory for
CI artifacts; the drill runs on virtual time, so two runs write the
same bytes.

Usage::

    PYTHONPATH=src python benchmarks/rebalance_smoke.py [out_dir]

Exit code 0 = clean, 1 = any invariant violated. ``out_dir`` defaults
to ``$BENCH_OUT_DIR`` or ``bench-results``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.cluster.membership import MembershipTracker
from repro.cluster.rebalance import LoadScorer, Rebalancer, SplitPlan
from repro.cluster.repair import RepairEngine
from repro.decompose import Strategy
from repro.obs import FleetMonitor, render_fleet
from repro.runtime import Transport, VirtualClock
from repro.workloads import (
    SHARDED_HOT_QUERY, SHARDED_SCAN_QUERY, build_federation,
    build_sharded_federation,
)
from repro.xquery.xdm import serialize_sequence

#: Larger than the chaos smoke's scale: the hot shard needs enough
#: members (>= 4) to be splittable at a meaningful boundary.
SCALE = float(os.environ.get("REPRO_REBALANCE_SMOKE_SCALE", "0.01"))
SEED = 20090329
HOT_BATCH = 12


def main(out_dir: str | None = None) -> int:
    out = Path(out_dir or os.environ.get("BENCH_OUT_DIR", "bench-results"))
    out.mkdir(parents=True, exist_ok=True)

    cluster = build_sharded_federation(SCALE, seed=SEED)
    # The virtual wire: all time is modelled, so two runs write
    # identical event logs (CI ``cmp``s them). time_scale=1.0 because on
    # a zero-delay wire every healthy latency is exactly 0, the health
    # baseline is 0 and nothing is ever demoted.
    cluster.transport = Transport(cluster.cost_model,
                                  metrics=cluster.metrics,
                                  clock=VirtualClock(), time_scale=1.0)
    monitor = FleetMonitor().attach(cluster)
    MembershipTracker().attach(cluster)
    RepairEngine(auto_repair=False).attach(cluster)
    rebalancer = Rebalancer().attach(cluster)

    single = build_federation(SCALE, seed=SEED)

    def oracle(query: str) -> str:
        rehosted = query.replace("xrpc://people-c", "xrpc://peer1")
        result = single.run(rehosted, at="local",
                            strategy=Strategy.BY_PROJECTION)
        return serialize_sequence(result.items)

    def answer(query: str) -> str:
        result = cluster.run(query, at="local",
                             strategy=Strategy.BY_PROJECTION)
        return serialize_sequence(result.items)

    scan_oracle = oracle(SHARDED_SCAN_QUERY)
    hot_oracle = oracle(SHARDED_HOT_QUERY)

    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    # Phase 1 — healthy warmup; drain the heat window so the skew
    # phase's delta is pure hot-tenant signal.
    for _ in range(4):
        check(answer(SHARDED_SCAN_QUERY) == scan_oracle,
              "warmup answers wrong")
    rebalancer.plan()
    print("phase 1 (warmup): answers match the single-owner oracle")

    # Phase 2 — hot skew: the planner must nominate the one shard the
    # heat concentrates on, and the split must not change any answer.
    shards_before = len(cluster.catalog.get("people-c").shards)
    for _ in range(HOT_BATCH):
        check(answer(SHARDED_HOT_QUERY) == hot_oracle,
              "hot-phase answers wrong")
    plans = rebalancer.plan()
    split_plans = [p for p in plans if isinstance(p, SplitPlan)
                   and p.collection == "people-c"]
    check(bool(split_plans),
          f"no split planned for the hot collection (plans: {plans})")
    for plan in split_plans:
        check(rebalancer.executor.execute(plan),
              f"planned split did not complete: {plan}")
    for plan in plans:
        if plan not in split_plans:
            # Companion moves may have gone stale behind the split's
            # shard renumbering; executing them is best-effort.
            rebalancer.executor.execute(plan)
    spec = cluster.catalog.get("people-c")
    check(len(spec.shards) == shards_before + 1,
          f"{len(spec.shards)} shards after split, "
          f"want {shards_before + 1}")
    check(answer(SHARDED_SCAN_QUERY) == scan_oracle,
          "post-split scan answers wrong")
    check(answer(SHARDED_HOT_QUERY) == hot_oracle,
          "post-split hot answers wrong")
    print(f"phase 2 (split): heat nominated the hot shard, "
          f"{shards_before} -> {len(spec.shards)} shards, answers exact")

    # Phase 3 — move one replica of the first people shard to the
    # coolest peer; the old copy must survive until collect().
    shard = cluster.catalog.get("people-c").shards[0]
    source = shard.replicas[0]
    check(rebalancer.move("people-c", shard.index, source),
          "explicit move did not complete")
    source_peer = cluster.peer(source)
    check(shard.local_name in source_peer.documents,
          "retired source copy vanished before collect()")
    collected = rebalancer.collect()
    check(collected >= 1, "collect() retired nothing after the move")
    check(shard.local_name not in source_peer.documents,
          "collect() left the retired copy in place")
    check(answer(SHARDED_SCAN_QUERY) == scan_oracle,
          "post-move answers wrong")
    print(f"phase 3 (move): s{shard.index} replica {source} -> cooler "
          f"peer, {collected} retired fragments collected")

    # Phase 4 — decommission node4: drain retires or migrates every
    # placement; replication holds on the remaining fleet throughout.
    check(rebalancer.drain("node4"), "drain(node4) stalled")
    rebalancer.collect()
    scorer = LoadScorer(cluster)
    node4 = scorer.snapshot()["node4"]
    check(node4.fragments == 0,
          f"drained peer still holds {node4.fragments} fragments")
    check(not cluster.peer("node4").documents,
          "drained peer still stores documents")
    for spec in cluster.catalog.collections():
        for shard in spec.shards:
            live = [r for r in shard.replicas if r != "node4"]
            check(len(live) >= spec.target_replication,
                  f"{spec.name}#s{shard.index} under-replicated after "
                  f"drain: {shard.replicas}")
    check(answer(SHARDED_SCAN_QUERY) == scan_oracle,
          "post-drain answers wrong")
    check(answer(SHARDED_HOT_QUERY) == hot_oracle,
          "post-drain hot answers wrong")
    print("phase 4 (drain): node4 empty, replication held, "
          "answers exact")

    stats = rebalancer.stats()
    check(stats["migrations_failed"] == 0,
          f"{stats['migrations_failed']} migrations failed")
    check(monitor.events.count("rebalance_planned") >= 1,
          "no rebalance_planned events")
    check(monitor.events.count("rebalance_retired") >= 1,
          "no rebalance_retired events")

    events_path = out / "EVENTS_rebalance.jsonl"
    written = monitor.events.export_jsonl(events_path)
    print(f"\n{written} events -> {events_path}")

    print("\n" + render_fleet(monitor))
    if problems:
        print("FAIL:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("rebalance smoke: observe -> split -> move -> drain holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
