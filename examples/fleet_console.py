"""Continuous fleet observability: attach a ``FleetMonitor`` to a
sharded federation, run a workload while one replica degrades and
another dies, and watch the live console — rolling-window latency
quantiles, per-peer health scores, the SLO burn-rate alert, and the
recent event stream. Finishes with the sampling profiler's collapsed
stacks (paste into a flamegraph tool such as speedscope or
inferno/flamegraph.pl).

Run:  PYTHONPATH=src python examples/fleet_console.py [scale]
"""

import os
import sys

from repro.decompose import Strategy
from repro.obs import SLO, BurnRatePolicy, FleetMonitor, render_fleet
from repro.runtime import FederationEngine
from repro.workloads import SHARDED_SCAN_QUERY, build_sharded_federation

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.01"))

#: Injected latency far above the testbed's baseline, and a slow-query
#: threshold between the two.
DEGRADE_S = 0.080
SLOW_S = 0.030


def run_batch(engine, n):
    futures = [engine.submit(SHARDED_SCAN_QUERY, at="local",
                             strategy=Strategy.BY_PROJECTION)
               for _ in range(n)]
    for future in futures:
        future.result()


def main(scale: float = SCALE) -> None:
    print(f"Sharded XMark federation at scale {scale}, "
          "fleet monitor attached ...")
    cluster = build_sharded_federation(scale)
    monitor = FleetMonitor(slow_query_s=SLOW_S,
                           profile_every=4).attach(cluster)
    monitor.add_slo(
        SLO(name="latency", target=0.9, threshold_s=SLOW_S),
        BurnRatePolicy(long_s=60.0, short_s=1.0, threshold=2.0,
                       min_requests=5))

    with FederationEngine(cluster, max_workers=2, cache=False,
                          batch_window_s=0.0) as engine:
        print("\n--- healthy warmup (8 queries) ---")
        run_batch(engine, 8)
        print(render_fleet(monitor, recent_events=4))

        print("\n--- node2 degrades: +80 ms per transmission; down "
              "marks steer two shards onto it (6 queries) ---")
        cluster.peer_view.mark_down("node1")
        cluster.peer_view.mark_down("node3")
        cluster.transport.degrade_peer("node2", DEGRADE_S)
        run_batch(engine, 6)
        print(render_fleet(monitor, recent_events=6))

        print("\n--- node2 restored; node1 killed outright, then "
              "revived (12 queries) ---")
        cluster.peer_view.mark_up("node1")
        cluster.peer_view.mark_up("node3")
        cluster.transport.restore_peer("node2")
        cluster.transport.kill_peer("node1")
        run_batch(engine, 8)
        cluster.transport.revive_peer("node1")
        run_batch(engine, 4)
        print(render_fleet(monitor, recent_events=6))
        print(f"\nEngine summary: {engine.metrics.format_summary()}")

    print(f"\nSampling profiler ({monitor.profiler.samples} sampled "
          "traces, sim-weighted collapsed stacks):")
    print(monitor.profiler.folded("sim") or "  (no samples)")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else SCALE)
