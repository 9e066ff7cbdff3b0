"""Sharded & replicated cluster: same query, N x the peers.

Shards the XMark pair over a 4-node fleet (4 shards per collection,
replication factor 2), runs the Section VII benchmark query against
the virtual hosts, shows the aggregate pushdown, then kills a data
node and watches the router fail over to the surviving replicas.

Run:  PYTHONPATH=src python examples/sharded_cluster.py [scale]
"""

import os
import sys

from repro import Strategy
from repro.workloads import (
    SHARDED_BENCHMARK_QUERY, build_sharded_federation,
)

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.01"))


def main(scale: float = SCALE) -> None:
    print(f"Sharding XMark pair at scale {scale} over 4 nodes "
          "(4 shards, replication 2) ...")
    federation = build_sharded_federation(scale, shard_count=4,
                                          replication_factor=2)
    catalog = federation.catalog
    for spec in catalog.collections():
        placements = ", ".join(
            f"s{s.index}->{'/'.join(s.replicas)}" for s in spec.shards)
        print(f"  {spec.name}: {placements}")

    print("\nBenchmark query against the virtual hosts "
          "(doc(\"xrpc://people-c/...\")):")
    for strategy in Strategy:
        run = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                             strategy=strategy)
        stats = run.stats
        print(f"  {strategy.value:15s} {len(run.items):4d} results  "
              f"{stats.scatter_shards:2d} shard calls  "
              f"{stats.messages:2d} messages  "
              f"{stats.total_transferred_bytes / 1024:7.1f} KB")

    count_query = ('count(doc("xrpc://people-c/people.xml")'
                   "/child::site/child::people/child::person)")
    run = federation.run(count_query, at="local",
                         strategy=Strategy.BY_PROJECTION)
    print(f"\nAggregate pushdown: count(person) = {run.items[0]} "
          f"({run.stats.scatter_shards} per-shard counts summed, "
          f"{run.stats.message_bytes} message bytes total)")

    # A scatter sends one Bulk RPC per peer of the least cover of its
    # shards (node1 + node3, or node2 + node4), rotating with the
    # load: here the next cover holds node1.
    print("\nKilling node1 (replica of two shards) ...")
    federation.transport.kill_peer("node1")
    run = federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                         strategy=Strategy.BY_PROJECTION)
    served = sorted({m.dest for m in run.messages})
    print(f"  still {len(run.items)} results, "
          f"{run.stats.failovers} failovers, served by {served}")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else SCALE)
