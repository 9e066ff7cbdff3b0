"""Fleet metrics: percentile math and cross-query aggregation."""

import sys
import threading
import weakref

import pytest

from repro.net.stats import RunStats
from repro.obs.metrics import percentile
from repro.runtime.engine import FederationEngine
from repro.runtime.metrics import MetricsAggregator, QueryRecord

from tests.conftest import Q2
from tests.runtime.test_engine import make_federation


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 95) == 0.0

    def test_single_value(self):
        assert percentile([3.5], 50) == 3.5
        assert percentile([3.5], 99) == 3.5

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_endpoints(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_p95_on_uniform_grid(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 95) == pytest.approx(95.05)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


def record(start, end, *, message_bytes=0, cache_hits=0, saved=0,
           error=None):
    stats = None
    if error is None:
        stats = RunStats(message_bytes=message_bytes,
                         cache_hits=cache_hits, cache_saved_bytes=saved)
    return QueryRecord(started_at=start, finished_at=end, stats=stats,
                       strategy="by-projection", at="local", error=error)


class TestAggregator:
    def test_empty_summary(self):
        summary = MetricsAggregator().summary()
        assert summary["queries"] == 0
        assert summary["throughput_qps"] == 0.0
        assert summary["latency_s"]["p95"] == 0.0

    def test_throughput_over_busy_interval(self):
        metrics = MetricsAggregator()
        # Two overlapping queries spanning 0.0 .. 2.0 seconds.
        metrics.record(record(0.0, 1.5, message_bytes=100))
        metrics.record(record(0.5, 2.0, message_bytes=300))
        summary = metrics.summary()
        assert summary["queries"] == 2
        assert summary["busy_s"] == pytest.approx(2.0)
        assert summary["throughput_qps"] == pytest.approx(1.0)
        assert summary["total_transferred_bytes"] == 400

    def test_latency_percentiles(self):
        metrics = MetricsAggregator()
        for wall in (0.1, 0.2, 0.3, 0.4):
            metrics.record(record(0.0, wall))
        latency = metrics.summary()["latency_s"]
        assert latency["p50"] == pytest.approx(0.25)
        assert latency["max"] == pytest.approx(0.4)

    def test_failures_counted_separately(self):
        metrics = MetricsAggregator()
        metrics.record(record(0.0, 1.0))
        metrics.record(record(0.0, 0.5, error="NetworkError: boom"))
        summary = metrics.summary()
        assert summary["queries"] == 1
        assert summary["failed"] == 1

    def test_cache_totals(self):
        metrics = MetricsAggregator()
        metrics.record(record(0.0, 1.0, cache_hits=2, saved=50))
        metrics.record(record(0.0, 1.0, cache_hits=1, saved=25))
        summary = metrics.summary()
        assert summary["cache_hits"] == 3
        assert summary["cache_saved_bytes"] == 75

    def test_format_summary_mentions_the_headlines(self):
        metrics = MetricsAggregator()
        metrics.record(record(0.0, 0.25, message_bytes=10, cache_hits=1,
                              saved=5))
        text = metrics.format_summary()
        assert "throughput" in text
        assert "p95" in text
        assert "cache" in text


class TestRecordsKeepNoStats:
    def test_engine_drops_a_runs_stats_with_its_result(self):
        """The aggregator folds a run's numbers when it is recorded and
        keeps the record without its stats: a result dropped by its
        caller takes its ``RunStats`` (and plan report) with it."""
        with FederationEngine(make_federation(), max_workers=1) as engine:
            result = engine.submit(Q2, "local").result()
            stats = weakref.ref(result.stats)
            summary = engine.metrics.summary()
            assert summary["queries"] == 1
            assert summary["total_transferred_bytes"] \
                == result.stats.total_transferred_bytes
            assert engine.metrics.records[0].stats is None
            del result
            assert stats() is None
            assert engine.metrics.summary() == summary

    def test_concurrent_records_lose_no_update(self):
        """Eight threads on a short switch interval: every run's numbers
        are folded exactly once."""
        metrics = MetricsAggregator()

        def client():
            for _ in range(200):
                metrics.record(record(0.0, 1.0, message_bytes=3,
                                      cache_hits=1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        summary = metrics.summary()
        assert summary["queries"] == len(metrics.records) == 1600
        assert summary["total_transferred_bytes"] == 3 * 1600
        assert summary["cache_hits"] == 1600
