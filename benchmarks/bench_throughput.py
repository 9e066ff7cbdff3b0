"""Concurrent runtime throughput: concurrency × strategy sweep.

Not a paper figure — this benchmarks the `repro.runtime` subsystem the
reproduction grows beyond the paper: a multi-tenant workload (N clients
issuing benchmark-query variants over shared XMark documents) executed
by :class:`FederationEngine` over a :class:`Transport` whose delay
policy costs real wall-clock time. Reported per cell: queries/sec,
p95 latency, cache hit rate, and bytes kept off the wire.

Expected shape: queries/sec grows with concurrency (per-query latency
is wire-bound and overlaps), and the result cache's saved bytes grow
with repeated thresholds across rounds.
"""

from repro.decompose import Strategy
from repro.runtime import FederationEngine, Transport
from repro.workloads import build_federation, multi_tenant_jobs

from benchmarks.conftest import print_table, write_json

#: Wall-clock seconds per simulated network second: fast but non-zero,
#: so overlapping round trips actually pay (and hide) latency.
TIME_SCALE = 0.05
SCALE = 0.005
CONCURRENCY_SWEEP = (1, 2, 4, 8)


def _run_cell(concurrency: int, strategy: Strategy,
              clients: int = 8, rounds: int = 2) -> dict:
    federation = build_federation(SCALE)
    # Latency high enough that the workload is wire-bound: concurrency
    # then wins by overlapping waits, keeping the sweep's ordering
    # stable even on noisy CI machines.
    federation.transport = Transport(federation.cost_model,
                                     time_scale=TIME_SCALE,
                                     extra_latency_s=0.004)
    jobs = multi_tenant_jobs(clients=clients, rounds=rounds,
                             strategy=strategy)
    with FederationEngine(federation,
                          max_workers=concurrency) as engine:
        engine.run_all([(j.query, j.at, j.strategy) for j in jobs])
        summary = engine.metrics.summary()
        summary["cache_hit_rate"] = engine.cache.stats.hit_rate
        summary["batching"] = engine.batcher.snapshot()
    return summary


def test_throughput_sweep():
    strategies = (Strategy.BY_PROJECTION, Strategy.BY_FRAGMENT)
    rows = []
    cells = []
    qps: dict[tuple[Strategy, int], float] = {}
    for strategy in strategies:
        for concurrency in CONCURRENCY_SWEEP:
            cell = _run_cell(concurrency, strategy)
            qps[(strategy, concurrency)] = cell["throughput_qps"]
            cells.append({
                "strategy": strategy.value,
                "concurrency": concurrency,
                "throughput_qps": cell["throughput_qps"],
                "latency_p95_s": cell["latency_s"]["p95"],
                "cache_hit_rate": cell["cache_hit_rate"],
                "cache_saved_bytes": cell["cache_saved_bytes"],
                "batch_merge_rate": cell["batching"]["merge_rate"],
            })
            rows.append([
                strategy.value, concurrency,
                f"{cell['throughput_qps']:.1f}",
                f"{cell['latency_s']['p95'] * 1000:.1f}",
                f"{cell['cache_hit_rate'] * 100:.0f}%",
                f"{cell['cache_saved_bytes'] / 1024:.1f}",
                f"{cell['batching']['merge_rate'] * 100:.0f}%",
            ])
    print_table(
        "Runtime throughput: 16 tenant queries, waiting wire",
        ["strategy", "conc", "qps", "p95 ms", "cache hit",
         "saved KB", "merged"], rows)
    write_json("throughput", cells, scale=SCALE, time_scale=TIME_SCALE)

    for strategy in strategies:
        assert qps[(strategy, 8)] > qps[(strategy, 1)], (
            f"{strategy.value}: concurrency 8 should out-run 1 "
            f"({qps[(strategy, 8)]:.1f} vs {qps[(strategy, 1)]:.1f} qps)")


def test_cache_bandwidth_savings():
    """Repeated tenant queries must be served (partly) from the cache."""
    cell = _run_cell(concurrency=8, strategy=Strategy.BY_PROJECTION,
                     clients=8, rounds=2)
    assert cell["cache_hits"] > 0
    assert cell["cache_hit_rate"] > 0.0
    assert cell["cache_saved_bytes"] > 0


def test_throughput_timing(benchmark):
    federation = build_federation(SCALE)
    jobs = multi_tenant_jobs(clients=4, rounds=1)

    def run() -> None:
        with FederationEngine(federation, max_workers=4) as engine:
            engine.run_all([(j.query, j.at, j.strategy) for j in jobs])

    benchmark(run)
