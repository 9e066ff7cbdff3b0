"""CI chaos smoke: detect → evict → re-replicate → serve, end to end.

The self-healing pipeline against the sharded XMark cluster with the
full observability stack attached:

1. **warmup** — healthy fleet, answers byte-exact vs a single-owner
   oracle, zero failovers.
2. **degrade** — down marks steer two shards exclusively onto a
   slowed replica; the SLO burn-rate alert must fire exactly once
   (and not flap) while answers stay correct.
3. **kill → heal** — a replica is killed outright. The failure
   detector's probe ticks walk it alive → suspect → dead → evicted
   (catalog epoch bumps at each health transition), the repair engine
   re-replicates every fragment it held onto healthy peers, and the
   healed fleet then serves the workload with **zero failovers** —
   the router never selects the evicted replica again.
4. **revive** — the evicted peer returns, rejoins as a target (its
   placements were already repaired away), and the fleet stays
   converged.

Zero wrong answers throughout; exactly one ``replica_evicted`` and
one ``alert_fired`` event; every shard back at target replication.
Event JSONL is written into the output directory for CI artifacts;
the drill runs on virtual time, so two runs write the same bytes.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py [out_dir]

Exit code 0 = clean, 1 = any invariant violated. ``out_dir`` defaults
to ``$BENCH_OUT_DIR`` or ``bench-results``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.cluster.membership import ALIVE, EVICTED, MembershipTracker
from repro.cluster.repair import RepairEngine
from repro.decompose import Strategy
from repro.obs import SLO, BurnRatePolicy, FleetMonitor, render_fleet
from repro.runtime import FederationEngine, Transport, VirtualClock
from repro.workloads import (
    SHARDED_SCAN_QUERY, build_federation, build_sharded_federation,
)
from repro.xquery.xdm import serialize_sequence

SCALE = float(os.environ.get("REPRO_CHAOS_SMOKE_SCALE", "0.002"))
SEED = 20090329

#: Same latency ladder as the soak smoke: injected delay far above the
#: testbed's sub-ms baseline, slow-query threshold between the two.
DEGRADE_S = 0.080
SLOW_S = 0.030


def run_batch(engine, n: int) -> set[str]:
    futures = [engine.submit(SHARDED_SCAN_QUERY, at="local",
                             strategy=Strategy.BY_PROJECTION)
               for _ in range(n)]
    return {serialize_sequence(f.result().items) for f in futures}


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
    monitor = FleetMonitor(slow_query_s=SLOW_S,
                           profile_every=4).attach(cluster)
    monitor.add_slo(
        SLO(name="latency", target=0.9, threshold_s=SLOW_S),
        BurnRatePolicy(long_s=60.0, short_s=1.0, threshold=2.0,
                       resolve_ratio=0.5, min_requests=5))
    tracker = MembershipTracker().attach(cluster)
    repair = RepairEngine().attach(cluster)

    single = build_federation(SCALE, seed=SEED)
    oracle = serialize_sequence(single.run(
        SHARDED_SCAN_QUERY.replace("xrpc://people-c", "xrpc://peer1"),
        at="local", strategy=Strategy.BY_PROJECTION).items)

    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    victim_fragments = sum(
        1 for spec in cluster.catalog.collections()
        for shard in spec.shards if "node1" in shard.replicas)

    # One worker: a shared virtual timeline *adds* concurrent sleeps
    # instead of overlapping them.
    with FederationEngine(cluster, max_workers=1, cache=False,
                          batch_window_s=0.0) as engine:
        # Phase 1 — healthy warmup against the single-owner oracle.
        check(run_batch(engine, 8) == {oracle}, "warmup answers wrong")
        check(engine.metrics.summary()["failovers"] == 0,
              "failovers during healthy warmup")
        print("phase 1 (warmup): 8 queries, answers match the "
              "single-owner oracle")

        # Phase 2 — degrade, not dead: sustained latency breach must
        # fire the burn-rate alert exactly once; the failure detector
        # must NOT kill a slow-but-answering peer.
        cluster.peer_view.mark_down("node1")
        cluster.peer_view.mark_down("node3")
        cluster.transport.degrade_peer("node2", DEGRADE_S)
        check(run_batch(engine, 6) == {oracle},
              "degrade-phase answers wrong")
        tracker.tick()
        check(cluster.peer_view.state("node2") == ALIVE,
              f"degraded (not dead) peer misjudged: "
              f"{cluster.peer_view.state('node2')}")
        check(monitor.events.count("alert_fired") == 1,
              f"alert fired {monitor.events.count('alert_fired')}x, "
              "want exactly 1")
        cluster.peer_view.mark_up("node1")
        cluster.peer_view.mark_up("node3")
        cluster.transport.restore_peer("node2")
        print("phase 2 (degrade): burn-rate alert fired once, "
              "node2 still judged alive")

        # Phase 3 — kill node1 and let the pipeline heal: probe ticks
        # walk the state ladder to eviction; the eviction subscription
        # triggers re-replication of every fragment node1 held.
        epoch_before = cluster.catalog.epoch()
        cluster.transport.kill_peer("node1")
        ticks = 0
        while cluster.peer_view.state("node1") != EVICTED and ticks < 12:
            tracker.tick()
            ticks += 1
        check(cluster.peer_view.state("node1") == EVICTED,
              f"node1 not evicted after {ticks} ticks "
              f"(state {cluster.peer_view.state('node1')})")
        check(cluster.catalog.epoch() > epoch_before,
              "eviction bumped no catalog epoch")
        check(repair.run_until_converged(),
              "repair did not restore target replication")
        repairs = repair.stats()
        check(repairs["completed"] == victim_fragments,
              f"{repairs['completed']} repairs for "
              f"{victim_fragments} lost fragments")
        for spec in cluster.catalog.collections():
            for shard in spec.shards:
                live = [r for r in shard.replicas if r != "node1"]
                check(len(live) >= spec.target_replication,
                      f"{spec.name}#s{shard.index} under-replicated "
                      f"after repair: {shard.replicas}")
        print(f"phase 3 (kill): node1 evicted after {ticks} probe "
              f"ticks, {repairs['completed']} fragments re-replicated")

        # Healed fleet serves with zero failovers: the router must
        # never even try the evicted replica.
        before = engine.metrics.summary()["failovers"]
        check(run_batch(engine, 8) == {oracle},
              "post-repair answers wrong")
        after = engine.metrics.summary()["failovers"]
        check(after == before,
              f"{after - before} failovers serving from the healed "
              "fleet (evicted replica still being selected)")
        print("phase 4 (serve): 8 queries on the healed fleet, "
              "zero failovers")

        # Phase 5 — node1 returns: rejoin keeps the fleet converged.
        cluster.transport.revive_peer("node1")
        tracker.rejoin("node1")
        for _ in range(3):
            tracker.tick()
        check(cluster.peer_view.state("node1") == ALIVE,
              "revived peer not alive")
        check(tracker.converged(), "membership did not re-converge")
        check(run_batch(engine, 4) == {oracle},
              "post-revive answers wrong")
        check(engine.metrics.summary()["failed"] == 0,
              "queries failed during the chaos smoke")
        print("phase 5 (revive): node1 rejoined, fleet converged")

    check(monitor.events.count("alert_fired") == 1,
          "burn-rate alert flapped")
    check(monitor.events.count("replica_evicted") == 1,
          f"{monitor.events.count('replica_evicted')} eviction events, "
          "want exactly 1")
    check(monitor.events.count("repair_completed") == victim_fragments,
          "repair_completed events do not match repaired fragments")

    events_path = out / "EVENTS_chaos.jsonl"
    written = monitor.events.export_jsonl(events_path)
    print(f"\n{written} events -> {events_path}")

    print("\n" + render_fleet(monitor))
    if problems:
        print("FAIL:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("chaos smoke: detect -> evict -> re-replicate -> serve holds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
