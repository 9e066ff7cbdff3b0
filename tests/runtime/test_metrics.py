"""Fleet metrics: cross-query aggregation, and memory that does not grow
with the query count."""

import gc
import sys
import threading
import tracemalloc
import weakref

import pytest

from repro.clock import VirtualClock
from repro.net.stats import RunStats
from repro.runtime.engine import FederationEngine
from repro.runtime.metrics import CAPACITY, MetricsAggregator, QueryRecord
from repro.runtime.transport import Transport
from repro.workloads import BENCHMARK_QUERY, build_federation

from tests.conftest import Q2
from tests.runtime.test_engine import make_federation


def record(metrics, start, end, *, message_bytes=0, cache_hits=0, saved=0,
           error=None):
    stats = None
    if error is None:
        stats = RunStats(message_bytes=message_bytes,
                         cache_hits=cache_hits, cache_saved_bytes=saved)
    metrics.record(QueryRecord(started_at=start, finished_at=end,
                               strategy="by-projection", at="local",
                               error=error), stats)


class TestAggregator:
    def test_empty_summary(self):
        summary = MetricsAggregator().summary()
        assert summary["queries"] == 0
        assert summary["throughput_qps"] == 0.0
        assert summary["latency_s"]["p95"] == 0.0

    def test_throughput_over_busy_interval(self):
        metrics = MetricsAggregator()
        # Two overlapping queries spanning 0.0 .. 2.0 seconds.
        record(metrics, 0.0, 1.5, message_bytes=100)
        record(metrics, 0.5, 2.0, message_bytes=300)
        summary = metrics.summary()
        assert summary["queries"] == 2
        assert summary["busy_s"] == pytest.approx(2.0)
        assert summary["throughput_qps"] == pytest.approx(1.0)
        assert summary["total_transferred_bytes"] == 400

    def test_latency_percentiles(self):
        metrics = MetricsAggregator()
        for wall in (0.1, 0.2, 0.3, 0.4):
            record(metrics, 0.0, wall)
        latency = metrics.summary()["latency_s"]
        # Nearest rank within the sketch's 1 %: the 2nd of 4 values.
        assert latency["p50"] == pytest.approx(0.2, rel=0.01)
        assert latency["max"] == pytest.approx(0.4)

    def test_failures_counted_separately(self):
        metrics = MetricsAggregator()
        record(metrics, 0.0, 1.0)
        record(metrics, 0.0, 0.5, error="NetworkError: boom")
        summary = metrics.summary()
        assert summary["queries"] == 1
        assert summary["failed"] == 1

    def test_cache_totals(self):
        metrics = MetricsAggregator()
        record(metrics, 0.0, 1.0, cache_hits=2, saved=50)
        record(metrics, 0.0, 1.0, cache_hits=1, saved=25)
        summary = metrics.summary()
        assert summary["cache_hits"] == 3
        assert summary["cache_saved_bytes"] == 75

    def test_format_summary_mentions_the_headlines(self):
        metrics = MetricsAggregator()
        record(metrics, 0.0, 0.25, message_bytes=10, cache_hits=1, saved=5)
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
            del result
            assert stats() is None
            assert engine.metrics.summary() == summary

    def test_concurrent_records_lose_no_update(self):
        """Eight threads on a short switch interval: every run's numbers
        are folded exactly once."""
        metrics = MetricsAggregator()

        def client():
            for _ in range(200):
                record(metrics, 0.0, 1.0, message_bytes=3, cache_hits=1)

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


class TestNothingGrowsWithTheQueryCount:
    def test_records_are_a_ring_indexed_from_the_first_record(self):
        metrics = MetricsAggregator()
        total = CAPACITY + 44
        for n in range(total):
            record(metrics, float(n), n + 0.5)
        records = metrics.records
        assert len(records) == total
        assert [r.started_at for r in records[0:]] \
            == [float(n) for n in range(44, total)]
        assert [r.started_at for r in records[total - 3:]] \
            == [float(n) for n in range(total - 3, total)]
        assert records[44].started_at == 44.0
        assert records[-1].started_at == total - 1.0
        with pytest.raises(IndexError):
            records[43]
        assert metrics.summary()["busy_s"] == pytest.approx(total - 0.5)

    def test_a_long_running_engine_stops_growing(self):
        """Two equal intervals of benchmark queries after the records
        ring is full: the second allocates no more than 1 KiB that is
        still live in ``src/repro`` (every record, latency and stats
        kept per query grew it by about 200 bytes a query). The wire is
        virtual, so no wall clock enters the run."""
        federation = build_federation(0.004)
        federation.transport = Transport(clock=VirtualClock(),
                                         time_scale=1.0)
        clock = federation.transport.clock
        interval = 200
        warm = CAPACITY + 44
        only_src = [tracemalloc.Filter(True, "*/src/repro/*",
                                       all_frames=True)]

        def live_bytes():
            gc.collect()
            snapshot = tracemalloc.take_snapshot().filter_traces(only_src)
            return sum(stat.size for stat in snapshot.statistics("filename"))

        # Four frames reach from a stdlib allocation (a dataclass
        # ``__init__``, a deque) to its caller in ``src/repro``.
        tracemalloc.start(4)
        try:
            with FederationEngine(federation, max_workers=1) as engine:
                records = engine.metrics.records
                for _ in range(warm):
                    engine.submit(BENCHMARK_QUERY, "local").result()
                sizes = [live_bytes()]
                for _ in range(2):
                    before, started = len(records), clock()
                    for _ in range(interval):
                        engine.submit(BENCHMARK_QUERY, "local").result()
                    sizes.append(live_bytes())
                    finished = clock()
                    # The closed-loop hook of the end-to-end ledger: the
                    # slice from a cursor is exactly the queries since.
                    since = records[before:]
                    assert len(since) == interval
                    assert all(started <= r.started_at <= r.finished_at
                               <= finished for r in since)
                    assert records[before - 1].finished_at <= started
                    del since   # it holds records the ring has dropped
                assert len(records) == warm + 2 * interval
        finally:
            tracemalloc.stop()
        assert sizes[2] - sizes[1] <= 1024, sizes
