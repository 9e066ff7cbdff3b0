"""Cluster scatter-gather: shard-count scaling and replica failover.

Not a paper figure — this benchmarks the ``repro.cluster`` subsystem:
tenant workloads aimed at sharded XMark collections
(``xrpc://people-c/...`` / ``xrpc://auctions-c/...``), executed by
:class:`FederationEngine` over a :class:`Transport` whose delay
policy costs real wall-clock time.

Three experiments:

* **shard sweep** — the read-heavy tenant scan (tiny fixed request,
  member-proportional response) over 1, 2 and 4 shards, on a
  bandwidth-constrained wire (the paper's 1 Gb/s LAN never saturates
  on laptop-scale documents, so the sweep models a 1 MB/s link where
  bytes-per-peer is the scarce resource — exactly what sharding
  divides). Per-peer concurrency is gated at 2, so the single-owner
  cell queues on its one data node while the 4-shard fleet spreads the
  same bytes over 4 nodes: queries/sec grows with shard count.
  The result cache is off in this sweep — repeated thresholds would
  otherwise serve from memory and mask the wire effect being measured.
  The router fans a scatter out over threads only on a wire that can
  wait; this wire does, and the sweep asserts that every multi-shard
  exchange really ran on a scatter pool thread, so the threaded side
  cannot go dead silently.
* **projection under scatter** — the paper's semijoin, by-projection
  against by-fragment message bytes per shard count: the shard rewrite
  must not cost a call site its projection paths.
* **failover drill** — the full semijoin tenant mix (both collections)
  with one data node killed mid-fleet; every query must still complete
  (served by the surviving replicas) and the failovers must be visible
  in the fleet's ``RunStats`` aggregation.

Cells are emitted to ``BENCH_cluster.json`` via
:func:`benchmarks.conftest.write_json` for cross-PR tracking.
"""

import random
import threading

from repro.decompose import Strategy
from repro.net.costmodel import CostModel
from repro.runtime import FederationEngine, Transport
from repro.workloads import (
    SHARDED_BENCHMARK_QUERY, build_sharded_federation, sharded_scan_jobs,
    sharded_tenant_jobs,
)

from benchmarks.conftest import print_table, write_json

SCALE = 0.04
SHARD_SWEEP = (1, 2, 4)
CLIENTS = 6
ROUNDS = 2
SEED = 20090329

#: The sweep's wire: 1 MB/s with 10x time magnification, so per-peer
#: bytes (what sharding divides) dominate wall-clock time.
WAN_BANDWIDTH = 1e6
TIME_SCALE = 10.0


class _ObservedTransport(Transport):
    """Notes which threads carried an exchange."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exchange_threads: set[str] = set()

    def exchange(self, *args, **kwargs):
        self.exchange_threads.add(threading.current_thread().name)
        return super().exchange(*args, **kwargs)


def _sweep_cell(shard_count: int) -> dict:
    federation = build_sharded_federation(
        SCALE, seed=SEED, shard_count=shard_count,
        replication_factor=min(2, shard_count), node_count=shard_count,
        cost_model=CostModel().replace(
            bandwidth_bytes_per_s=WAN_BANDWIDTH))
    transport = federation.transport = _ObservedTransport(
        federation.cost_model, time_scale=TIME_SCALE,
        per_peer_concurrency=2)
    jobs = sharded_scan_jobs(clients=CLIENTS, rounds=ROUNDS,
                             rng=random.Random(SEED))
    with FederationEngine(federation, max_workers=CLIENTS,
                          cache=False) as engine:
        engine.run_all([(j.query, j.at, j.strategy) for j in jobs])
        cell = engine.metrics.summary()
    if shard_count > 1:
        assert transport.exchange_threads and all(
            name.startswith("cluster-scatter")
            for name in transport.exchange_threads), (
            f"{shard_count}-shard sweep left the scatter pool: "
            f"{sorted(transport.exchange_threads)}")
    return cell


def test_shard_scaling():
    rows = []
    cells = []
    qps: dict[int, float] = {}
    for shard_count in SHARD_SWEEP:
        cell = _sweep_cell(shard_count)
        qps[shard_count] = cell["throughput_qps"]
        cells.append({
            "experiment": "shard_sweep",
            "shards": shard_count,
            "throughput_qps": cell["throughput_qps"],
            "latency_p50_s": cell["latency_s"]["p50"],
            "latency_p95_s": cell["latency_s"]["p95"],
            "scatter_shards": cell["scatter_shards"],
            "transferred_bytes": cell["total_transferred_bytes"],
        })
        rows.append([
            shard_count,
            f"{cell['throughput_qps']:.1f}",
            f"{cell['latency_s']['p50'] * 1000:.0f}",
            f"{cell['latency_s']['p95'] * 1000:.0f}",
            cell["scatter_shards"],
        ])
    print_table(
        f"Cluster shard sweep: {CLIENTS * ROUNDS} tenant scans, "
        "1 MB/s wire, per-peer gate 2, replication 2",
        ["shards", "qps", "p50 ms", "p95 ms", "shard calls"], rows)
    cells.append(_failover_cell())
    write_json("cluster", cells, scale=SCALE, time_scale=TIME_SCALE,
               wan_bandwidth=WAN_BANDWIDTH, clients=CLIENTS, rounds=ROUNDS)

    assert qps[SHARD_SWEEP[-1]] > qps[SHARD_SWEEP[0]], (
        f"{SHARD_SWEEP[-1]} shards should out-run {SHARD_SWEEP[0]} shard "
        f"({qps[SHARD_SWEEP[-1]]:.1f} vs {qps[SHARD_SWEEP[0]]:.1f} qps)")


def test_projection_holds_under_scatter():
    """By-projection must ship less than by-fragment at every shard
    count (it shipped the same bytes while the shard rewrite dropped
    the call site's projection spec)."""
    rows = []
    for shard_count in SHARD_SWEEP:
        federation = build_sharded_federation(
            0.01, seed=SEED, shard_count=shard_count,
            replication_factor=min(2, shard_count),
            node_count=shard_count)
        projection, fragment = (
            federation.run(SHARDED_BENCHMARK_QUERY, at="local",
                           strategy=strategy).stats.message_bytes
            for strategy in (Strategy.BY_PROJECTION, Strategy.BY_FRAGMENT))
        rows.append([shard_count, projection, fragment,
                     f"{projection / fragment:.2f}"])
        assert projection < fragment, (
            f"{shard_count} shards: by-projection {projection} B is not "
            f"below by-fragment {fragment} B")
    print_table("Projection under scatter: semijoin message bytes",
                ["shards", "by-projection", "by-fragment", "ratio"], rows)


def _failover_cell() -> dict:
    federation = build_sharded_federation(
        0.005, seed=SEED, shard_count=4, replication_factor=2,
        node_count=4)
    federation.transport = Transport(federation.cost_model,
                                     time_scale=0.05,
                                     extra_latency_s=0.002)
    federation.transport.kill_peer("node2")
    jobs = sharded_tenant_jobs(clients=CLIENTS, rounds=ROUNDS,
                               rng=random.Random(SEED))
    with FederationEngine(federation, max_workers=CLIENTS) as engine:
        engine.run_all([(j.query, j.at, j.strategy) for j in jobs])
        cell = engine.metrics.summary()
    row = {
        "experiment": "failover",
        "shards": 4,
        "killed": "node2",
        "queries": cell["queries"],
        "failed": cell["failed"],
        "throughput_qps": cell["throughput_qps"],
        "failovers": cell["failovers"],
    }
    print_table(
        "Failover drill: node2 killed, semijoin mix, replication 2",
        ["queries", "failed", "qps", "failovers"],
        [[row["queries"], row["failed"],
          f"{row['throughput_qps']:.1f}", row["failovers"]]])
    return row


def test_failover_drill():
    """A killed replica's queries must complete via the survivors."""
    row = _failover_cell()
    assert row["failed"] == 0
    assert row["queries"] == CLIENTS * ROUNDS
    assert row["failovers"] > 0


def test_cluster_timing(benchmark):
    federation = build_sharded_federation(0.005, shard_count=4)
    jobs = sharded_tenant_jobs(clients=4, rounds=1,
                               rng=random.Random(SEED))

    def run() -> None:
        with FederationEngine(federation, max_workers=4) as engine:
            engine.run_all([(j.query, j.at, j.strategy) for j in jobs])

    benchmark(run)
