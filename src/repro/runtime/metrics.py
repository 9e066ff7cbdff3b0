"""Aggregating per-query :class:`~repro.net.stats.RunStats` into
runtime-level metrics: throughput, latency percentiles, bytes per peer,
and cache effectiveness.

The seed measures one query at a time; a concurrent runtime needs the
fleet view. :class:`MetricsAggregator` keeps one :class:`QueryRecord`
per completed (or failed) query, and folds each completed run's
:class:`~repro.net.stats.RunStats` into the engine's summary as it is
recorded (no record keeps its stats): queries/sec over the busy
interval, wall-clock p50/p95/p99, simulated-time totals, and
transferred bytes.

The aggregator writes no registry series: every ``query_*`` series is
folded from the finished run at the end of ``Federation.run``, for
engine and standalone runs alike.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.net.stats import RunStats
from repro.obs.metrics import percentile

__all__ = ["QueryRecord", "MetricsAggregator"]


@dataclass
class QueryRecord:
    """One query's life in the runtime."""

    started_at: float            # perf_counter timestamps
    finished_at: float
    #: None when the query failed, and in every record the aggregator
    #: keeps (it folds the run's numbers in and drops the stats).
    stats: RunStats | None
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


#: The :class:`~repro.net.stats.RunStats` totals :meth:`summary` reports.
_SUMS = ("total_transferred_bytes", "simulated_time_s", "cache_hits",
         "cache_saved_bytes", "scatter_shards", "failovers", "retries",
         "partial_shards")
#: ``per_collection`` name -> the ``per_shard`` entry field it sums.
_SHARD_FIELDS = {"shard_calls": "calls", "failovers": "failovers",
                 "shards_skipped": "skipped", "bytes": "bytes",
                 "cache_hits": "cache_hits"}


class MetricsAggregator:
    """Thread-safe accumulator of :class:`QueryRecord`."""

    def __init__(self) -> None:
        self.records: list[QueryRecord] = []
        self._lock = threading.Lock()
        self._latencies: list[float] = []     # completed queries only
        self._sums = dict.fromkeys(_SUMS, 0)
        # Cluster accounting re-attributed per collection: the global
        # ``failovers`` / ``shards_skipped`` totals say *that* the fleet
        # struggled; this view (parsed from the router's per-shard keys,
        # ``"collection#sN"``) says *where*, so the console and SLO
        # rules can name the collection.
        self._per_collection: dict[str, dict] = {}
        self._plans: dict[str, int] = {}

    def record(self, record: QueryRecord) -> None:
        stats, record = record.stats, replace(record, stats=None)
        with self._lock:
            self.records.append(record)
            if not record.ok or stats is None:
                return
            self._latencies.append(record.wall_s)
            for name in _SUMS:
                self._sums[name] += (stats.times.total
                                     if name == "simulated_time_s"
                                     else getattr(stats, name))
            for shard_key, entry in stats.per_shard.items():
                agg = self._per_collection.setdefault(
                    shard_key.rsplit("#s", 1)[0],
                    dict.fromkeys(_SHARD_FIELDS, 0))
                for name, field in _SHARD_FIELDS.items():
                    agg[name] += entry.get(field, 0)
            if record.plan is not None:
                self._plans[record.plan] = self._plans.get(record.plan, 0) + 1

    # -- reductions ---------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """The fleet view over everything recorded so far."""
        with self._lock:
            records = len(self.records)
            busy_s = 0.0
            if records:
                busy_s = (max(r.finished_at for r in self.records)
                          - min(r.started_at for r in self.records))
            latencies = list(self._latencies)
            sums = dict(self._sums)
            # Sorted for deterministic export.
            per_collection = {name: dict(agg) for name, agg
                              in sorted(self._per_collection.items())}
            plans = dict(self._plans)
        completed = len(latencies)
        throughput = completed / busy_s if busy_s > 0 else 0.0
        return {
            "queries": completed,
            "failed": records - completed,
            "busy_s": busy_s,
            "throughput_qps": throughput,
            "latency_s": {
                "p50": percentile(latencies, 50),
                "p95": percentile(latencies, 95),
                "p99": percentile(latencies, 99),
                "max": max(latencies) if latencies else 0.0,
            },
            **sums,
            "per_collection": per_collection,
            "plans": plans,
        }

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
