"""Aggregating per-query :class:`~repro.net.stats.RunStats` into
runtime-level metrics: throughput, latency percentiles, bytes per peer,
and cache effectiveness.

The seed measures one query at a time; a concurrent runtime needs the
fleet view. :class:`MetricsAggregator` collects one
:class:`QueryRecord` per completed (or failed) query and reduces them
into the numbers ``benchmarks/bench_throughput.py`` sweeps: queries/sec
over the busy interval, wall-clock p50/p95/p99, simulated-time totals,
and transferred bytes.

The aggregator is now a *consumer* of the unified
:class:`~repro.obs.metrics.MetricsRegistry`: each recorded query also
feeds the ``query_*`` series (latency histogram, per-plan counters,
byte totals), so ``registry.snapshot()`` carries the fleet view next
to the transport's ``wire_*`` and the cache's ``cache_*`` truth.
:func:`percentile` is re-exported from its canonical home in
:mod:`repro.obs.metrics` for existing importers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.net.stats import RunStats
from repro.obs.metrics import MetricsRegistry, percentile

__all__ = ["percentile", "QueryRecord", "MetricsAggregator"]


@dataclass
class QueryRecord:
    """One query's life in the runtime."""

    started_at: float            # perf_counter timestamps
    finished_at: float
    stats: RunStats | None       # None when the query failed
    strategy: str = ""           # requested ("auto" stays "auto")
    at: str = ""
    error: str | None = None
    plan: str | None = None      # physical plan label the run executed

    @property
    def wall_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def ok(self) -> bool:
        return self.error is None


class MetricsAggregator:
    """Thread-safe accumulator of :class:`QueryRecord`, publishing the
    ``query_*`` series into ``metrics`` (private registry if omitted)."""

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.records: list[QueryRecord] = []
        self._lock = threading.Lock()
        self._completed = self.metrics.counter(
            "query_completed_total", "queries that finished cleanly")
        self._failed = self.metrics.counter(
            "query_failed_total", "queries that raised")
        self._latency = self.metrics.histogram(
            "query_latency_seconds", "wall-clock seconds per query")
        self._bytes = self.metrics.counter(
            "query_transferred_bytes_total",
            "Figure 7 bytes summed over completed queries")
        self._sim_s = self.metrics.counter(
            "query_simulated_seconds_total",
            "Figure 8 simulated seconds summed over completed queries")
        self._plans = self.metrics.counter(
            "query_plans_total", "executions per physical plan label",
            ("plan",))

    def record(self, record: QueryRecord) -> None:
        with self._lock:
            self.records.append(record)
        if record.ok and record.stats is not None:
            self._completed.inc()
            self._latency.observe(record.wall_s)
            self._bytes.inc(record.stats.total_transferred_bytes)
            self._sim_s.inc(record.stats.times.total)
            if record.plan is not None:
                self._plans.labels(record.plan).inc()
        else:
            self._failed.inc()

    # -- reductions ---------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """The fleet view over everything recorded so far."""
        with self._lock:
            records = list(self.records)
        completed = [r for r in records if r.ok and r.stats is not None]
        failed = len(records) - len(completed)
        latencies = [r.wall_s for r in completed]
        busy_s = 0.0
        if records:
            busy_s = (max(r.finished_at for r in records)
                      - min(r.started_at for r in records))
        throughput = len(completed) / busy_s if busy_s > 0 else 0.0
        total_bytes = sum(r.stats.total_transferred_bytes
                          for r in completed)
        simulated_s = sum(r.stats.times.total for r in completed)
        cache_hits = sum(r.stats.cache_hits for r in completed)
        cache_saved = sum(r.stats.cache_saved_bytes for r in completed)
        scatter_shards = sum(r.stats.scatter_shards for r in completed)
        failovers = sum(r.stats.failovers for r in completed)
        retries = sum(r.stats.retries for r in completed)
        partial_shards = sum(r.stats.partial_shards for r in completed)
        per_collection = self._per_collection(completed)
        plans: dict[str, int] = {}
        for record in completed:
            if record.plan is not None:
                plans[record.plan] = plans.get(record.plan, 0) + 1
        return {
            "queries": len(completed),
            "failed": failed,
            "busy_s": busy_s,
            "throughput_qps": throughput,
            "latency_s": {
                "p50": percentile(latencies, 50),
                "p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99),
                "max": max(latencies) if latencies else 0.0,
            },
            "total_transferred_bytes": total_bytes,
            "simulated_time_s": simulated_s,
            "cache_hits": cache_hits,
            "cache_saved_bytes": cache_saved,
            "scatter_shards": scatter_shards,
            "failovers": failovers,
            "retries": retries,
            "partial_shards": partial_shards,
            "per_collection": per_collection,
            "plans": plans,
        }

    @staticmethod
    def _per_collection(completed: list[QueryRecord]) -> dict[str, dict]:
        """Cluster accounting re-attributed per collection: the global
        ``failovers`` / ``shards_skipped`` totals say *that* the fleet
        struggled; this view (parsed from the router's per-shard keys,
        ``"collection#sN"``) says *where*, so the console and SLO rules
        can name the collection. Sorted for deterministic export."""
        per_collection: dict[str, dict] = {}
        for record in completed:
            for shard_key, entry in record.stats.per_shard.items():
                collection = shard_key.rsplit("#s", 1)[0]
                agg = per_collection.get(collection)
                if agg is None:
                    agg = per_collection[collection] = {
                        "shard_calls": 0, "failovers": 0,
                        "shards_skipped": 0, "bytes": 0,
                        "cache_hits": 0}
                agg["shard_calls"] += 1
                agg["failovers"] += entry.get("failovers", 0)
                agg["shards_skipped"] += entry.get("skips", 0)
                agg["bytes"] += entry.get("bytes", 0)
                agg["cache_hits"] += entry.get("cache_hits", 0)
        return dict(sorted(per_collection.items()))

    def format_summary(self) -> str:
        """A short human-readable block for examples and benchmarks."""
        summary = self.summary()
        latency = summary["latency_s"]
        lines = [
            f"queries     : {summary['queries']} completed, "
            f"{summary['failed']} failed",
            f"throughput  : {summary['throughput_qps']:.1f} queries/s "
            f"over {summary['busy_s'] * 1000:.1f} ms",
            f"latency     : p50 {latency['p50'] * 1000:.2f} ms | "
            f"p95 {latency['p95'] * 1000:.2f} ms | "
            f"p99 {latency['p99'] * 1000:.2f} ms",
            f"transferred : {summary['total_transferred_bytes']} bytes "
            f"({summary['simulated_time_s'] * 1000:.2f} ms simulated)",
            f"cache       : {summary['cache_hits']} hits, "
            f"{summary['cache_saved_bytes']} bytes saved",
        ]
        if summary["scatter_shards"] or summary["failovers"]:
            lines.append(
                f"cluster     : {summary['scatter_shards']} shard calls, "
                f"{summary['failovers']} failovers")
            for name, agg in summary["per_collection"].items():
                lines.append(
                    f"  {name}: {agg['shard_calls']} shard calls, "
                    f"{agg['failovers']} failovers, "
                    f"{agg['shards_skipped']} skipped")
        return "\n".join(lines)
