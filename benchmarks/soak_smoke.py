"""CI soak smoke: a replica degrades, dies, and recovers mid-workload.

Drives the churn drill end to end against the sharded XMark cluster
with the fleet monitor attached: a healthy warmup, a degrade phase
(down marks steer two shards exclusively onto a slowed replica, so
health scoring must demote it while the failover count stays zero and
the SLO burn-rate alert fires exactly once), then a hard kill/revive
of a healthy replica (failovers must register) — with zero wrong
answers throughout. Writes the event JSONL and the collapsed-stack
profile into the output directory so CI uploads them as artifacts,
and prints the live fleet console at the end.

Usage::

    PYTHONPATH=src python benchmarks/soak_smoke.py [out_dir]

Exit code 0 = clean, 1 = any invariant violated. ``out_dir`` defaults
to ``$BENCH_OUT_DIR`` or ``bench-results``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from repro.decompose import Strategy
from repro.obs import SLO, BurnRatePolicy, FleetMonitor, render_fleet
from repro.runtime import FederationEngine, Transport, VirtualClock
from repro.workloads import SHARDED_SCAN_QUERY, build_sharded_federation
from repro.xquery.xdm import serialize_sequence

SCALE = float(os.environ.get("REPRO_SOAK_SMOKE_SCALE", "0.002"))

#: Injected latency far above the testbed's sub-ms baseline, and a
#: slow-query threshold between the two, so degraded-peer queries (and
#: only those) breach the latency SLO.
DEGRADE_S = 0.080
SLOW_S = 0.030


def run_batch(engine, n: int) -> set[str]:
    """n queries, returning the de-duplicated set of answers."""
    futures = [engine.submit(SHARDED_SCAN_QUERY, at="local",
                             strategy=Strategy.BY_PROJECTION)
               for _ in range(n)]
    return {serialize_sequence(f.result().items) for f in futures}


def main(out_dir: str | None = None) -> int:
    out = Path(out_dir or os.environ.get("BENCH_OUT_DIR", "bench-results"))
    out.mkdir(parents=True, exist_ok=True)

    cluster = build_sharded_federation(SCALE)
    # The virtual wire: all time is modelled, so the verdict is the
    # drill's and not the host's. time_scale=1.0 because on a
    # zero-delay wire every healthy latency is exactly 0, the health
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

    baseline = serialize_sequence(
        cluster.run(SHARDED_SCAN_QUERY, at="local",
                    strategy=Strategy.BY_PROJECTION).items)
    problems: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    # Cache hits bypass the wire (feeding ~0 ms health samples) and
    # batching adds timing noise: both off keeps the degraded peer's
    # latency signal clean. One worker: a shared virtual timeline
    # *adds* concurrent sleeps instead of overlapping them.
    with FederationEngine(cluster, max_workers=1, cache=False,
                          batch_window_s=0.0) as engine:
        # Phase 1 — healthy warmup.
        check(run_batch(engine, 8) == {baseline}, "warmup answers wrong")
        check(engine.metrics.summary()["failovers"] == 0,
              "failovers during healthy warmup")
        print("phase 1 (warmup): 8 queries, answers correct")

        # Phase 2 — node2 degrades (slow, NOT dead). Down marks
        # steer shards 0/1 onto it exclusively: the breach is
        # sustained, nothing raises, so only health scoring can catch
        # it — and it must, before any request fails.
        cluster.peer_view.mark_down("node1")
        cluster.peer_view.mark_down("node3")
        cluster.transport.degrade_peer("node2", DEGRADE_S)
        check(run_batch(engine, 6) == {baseline},
              "degrade-phase answers wrong")
        demoted = {event.attrs["peer"]
                   for event in monitor.events.recent(kind="health_demoted")}
        check("node2" in demoted,
              f"degraded replica never demoted (demoted={sorted(demoted)})")
        check(engine.metrics.summary()["failovers"] == 0,
              "failover count grew before health demotion could act")
        check(monitor.events.count("alert_fired") == 1,
              f"alert fired {monitor.events.count('alert_fired')}x, "
              "want exactly 1")
        print("phase 2 (degrade): node2 demoted "
              f"(score {monitor.health.health('node2').score:.2f}), "
              "burn-rate alert fired once, zero failovers")

        # Phase 3 — hard churn: heal the marks, restore node2, kill a
        # healthy first-choice replica outright, then revive it.
        cluster.peer_view.mark_up("node1")
        cluster.peer_view.mark_up("node3")
        cluster.transport.restore_peer("node2")
        cluster.transport.kill_peer("node1")
        check(run_batch(engine, 8) == {baseline},
              "kill-phase answers wrong")
        check(engine.metrics.summary()["failovers"] >= 1,
              "dead replica registered no failovers")
        cluster.transport.revive_peer("node1")
        check(run_batch(engine, 4) == {baseline},
              "recovery-phase answers wrong")
        check(engine.metrics.summary()["failed"] == 0,
              "queries failed during the soak")
        print("phase 3 (kill/revive): "
              f"{engine.metrics.summary()['failovers']} failovers, "
              "answers correct throughout")

    check(monitor.events.count("alert_fired") == 1,
          "burn-rate alert flapped")
    check(monitor.profiler.samples >= 1, "profiler sampled no traces")

    events_path = out / "EVENTS_soak.jsonl"
    written = monitor.events.export_jsonl(events_path)
    profile_path = out / "PROFILE_soak.folded"
    lines = monitor.profiler.write_folded(profile_path, "sim")
    print(f"\n{written} events -> {events_path}")
    print(f"{lines} folded stacks ({monitor.profiler.samples} samples) "
          f"-> {profile_path}")

    print("\n" + render_fleet(monitor))
    if problems:
        print("FAIL:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("soak smoke: churn drill invariants hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else None))
