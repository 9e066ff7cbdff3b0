"""Aggregating per-query :class:`~repro.net.stats.RunStats` into
runtime-level metrics: throughput, latency percentiles, bytes per peer,
and cache effectiveness.

The seed measures one query at a time; a concurrent runtime needs the
fleet view. :class:`MetricsAggregator` folds each query as it is
recorded and keeps the folds, not the queries: queries/sec over the
busy interval (first start to last finish), wall-clock p50/p95/p99 (a
:class:`~repro.obs.metrics.QuantileSketch`), simulated-time totals,
and transferred bytes. Of the :class:`QueryRecord` themselves it keeps
the newest :data:`CAPACITY`, so a long-running engine's memory does not
grow with its query count.

The aggregator writes no registry series: every ``query_*`` series is
folded from the finished run at the end of ``Federation.run``, for
engine and standalone runs alike.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

from repro.net.stats import RunStats
from repro.obs.metrics import QuantileSketch

__all__ = ["QueryRecord", "MetricsAggregator"]


@dataclass
class QueryRecord:
    """One query's life in the runtime."""

    started_at: float            # perf_counter timestamps
    finished_at: float
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


#: How many of the newest records :attr:`MetricsAggregator.records`
#: keeps: above the end-to-end ledger's largest closed-loop block (30
#: ops x 2 clients), whose records it reads back by index.
CAPACITY = 256

#: The :class:`~repro.net.stats.RunStats` totals :meth:`summary` reports.
_SUMS = ("total_transferred_bytes", "simulated_time_s", "cache_hits",
         "cache_saved_bytes", "scatter_shards", "failovers", "retries",
         "partial_shards")
#: ``per_collection`` name -> the ``per_shard`` entry field it sums.
_SHARD_FIELDS = {"shard_calls": "calls", "failovers": "failovers",
                 "shards_skipped": "skipped", "bytes": "bytes",
                 "cache_hits": "cache_hits"}


class RecordRing:
    """The newest :data:`CAPACITY` records, indexed as if none had been
    dropped: ``len()`` counts every record ever appended (a monotone
    cursor), ``ring[i:]`` is the kept records from absolute index ``i``
    on, and ``ring[i]`` raises :class:`IndexError` once record ``i`` has
    been dropped."""

    def __init__(self) -> None:
        self._kept: deque[QueryRecord] = deque(maxlen=CAPACITY)
        self._count = 0
        self._lock = threading.Lock()

    def append(self, record: QueryRecord) -> None:
        with self._lock:
            self._kept.append(record)
            self._count += 1

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        with self._lock:
            return iter(list(self._kept))

    def __getitem__(self, index):
        with self._lock:
            kept, wanted = list(self._kept), range(self._count)[index]
            first = self._count - len(kept)
        if isinstance(index, slice):
            return [kept[n - first] for n in wanted if n >= first]
        if wanted < first:
            raise IndexError(f"record {index} is no longer kept")
        return kept[wanted - first]


class MetricsAggregator:
    """Thread-safe fold of :class:`QueryRecord` and their runs' stats."""

    def __init__(self) -> None:
        self.records = RecordRing()
        self._lock = threading.Lock()
        self._latency = QuantileSketch()      # completed queries only
        # The busy interval, folded over every record.
        self._first_start = math.inf
        self._last_finish = -math.inf
        self._sums = dict.fromkeys(_SUMS, 0)
        # Cluster accounting re-attributed per collection: the global
        # ``failovers`` / ``shards_skipped`` totals say *that* the fleet
        # struggled; this view (parsed from the router's per-shard keys,
        # ``"collection#sN"``) says *where*, so the console and SLO
        # rules can name the collection.
        self._per_collection: dict[str, dict] = {}
        self._plans: dict[str, int] = {}

    def record(self, record: QueryRecord, stats: RunStats | None) -> None:
        """Fold one query in; ``stats`` is its run's (None when it
        failed) and is not kept."""
        with self._lock:
            self.records.append(record)
            self._first_start = min(self._first_start, record.started_at)
            self._last_finish = max(self._last_finish, record.finished_at)
            if not record.ok or stats is None:
                return
            self._latency.add(record.wall_s)
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
            # No record yet: -inf - inf, so 0.0.
            busy_s = max(0.0, self._last_finish - self._first_start)
            latency = self._latency.snapshot()
            sums = dict(self._sums)
            # Sorted for deterministic export.
            per_collection = {name: dict(agg) for name, agg
                              in sorted(self._per_collection.items())}
            plans = dict(self._plans)
        completed = latency["count"]
        throughput = completed / busy_s if busy_s > 0 else 0.0
        return {
            "queries": completed,
            "failed": records - completed,
            "busy_s": busy_s,
            "throughput_qps": throughput,
            "latency_s": {q: latency[q] for q in ("p50", "p95", "p99", "max")},
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
