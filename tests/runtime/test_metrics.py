"""Fleet metrics: an engine run is counted once, in the federation's
registry, and what the engine keeps of its runs does not grow with the
query count."""

import gc
import sys
import threading
import tracemalloc
import weakref

import pytest

from repro.clock import VirtualClock
from repro.errors import NetworkError
from repro.runtime.engine import FederationEngine
from repro.runtime.metrics import CAPACITY, EngineMetrics, QueryRecord
from repro.runtime.transport import Transport
from repro.workloads import BENCHMARK_QUERY, build_federation

from tests.conftest import Q2
from tests.oracle.accounting_reference import registry_series
from tests.runtime.test_engine import make_federation

BAD_QUERY = 'doc("xrpc://missing/d.xml")/child::a'


class TestTheRegistryCountsEngineRuns:
    def test_an_idle_engine_has_counted_nothing(self):
        federation = make_federation()
        with FederationEngine(federation, max_workers=1) as engine:
            pass
        assert len(engine.metrics.records) == 0
        series = registry_series(federation.metrics)
        assert series["query_completed_total"] == 0
        assert series["query_latency_seconds"] == 0

    def test_bytes_are_the_runs_sum(self):
        federation = make_federation()
        with FederationEngine(federation, max_workers=2,
                              cache=False) as engine:
            results = [future.result() for future in
                       [engine.submit(Q2, "local") for _ in range(2)]]
        series = registry_series(federation.metrics)
        assert series["query_completed_total"] == 2
        assert series["query_transferred_bytes_total"] == sum(
            result.stats.total_transferred_bytes for result in results)

    def test_latency_is_the_records_spans_on_the_virtual_wire(self):
        """One worker on a virtual wire: nothing but the run moves the
        clock, so each run's registry latency is its record's span."""
        federation = make_federation()
        federation.transport = Transport(clock=VirtualClock(),
                                         time_scale=1.0)
        with FederationEngine(federation, max_workers=1) as engine:
            for _ in range(4):
                engine.submit(Q2, "local").result()
        spans = [r.finished_at - r.started_at for r in engine.metrics.records]
        latency = federation.metrics.snapshot()["query_latency_seconds"]
        assert latency["count"] == len(spans) == 4
        assert latency["sum"] == pytest.approx(sum(spans))
        assert latency["max"] == pytest.approx(max(spans))
        assert latency["max"] > 0

    def test_failures_counted_separately(self):
        federation = make_federation()
        with FederationEngine(federation, max_workers=2) as engine:
            engine.submit(Q2, "local").result()
            assert len(engine.metrics.records) == 1
            with pytest.raises(NetworkError):
                engine.submit(BAD_QUERY, "local").result()
            # Each run's one record is in before its future resolves.
            assert len(engine.metrics.records) == 2
        series = registry_series(federation.metrics)
        assert series["query_completed_total"] == 1
        assert series["query_failed_total"] == 1

    def test_cache_totals_are_the_runs_sum(self):
        federation = make_federation()
        with FederationEngine(federation, max_workers=1) as engine:
            results = [engine.submit(Q2, "local").result()
                       for _ in range(3)]
        hits = sum(result.stats.cache_hits for result in results)
        assert hits > 0
        assert engine.cache.stats.hits == hits
        assert engine.cache.stats.saved_bytes == sum(
            result.stats.cache_saved_bytes for result in results)


class TestRecordsKeepNoStats:
    def test_engine_drops_a_runs_stats_with_its_result(self):
        """A run is folded into the registry when it finishes, and the
        engine keeps its record without its stats: a result dropped by
        its caller takes its ``RunStats`` (and plan report) with it."""
        federation = make_federation()
        with FederationEngine(federation, max_workers=1) as engine:
            result = engine.submit(Q2, "local").result()
            stats = weakref.ref(result.stats)
            series = registry_series(federation.metrics)
            assert series["query_completed_total"] == 1
            assert series["query_transferred_bytes_total"] \
                == result.stats.total_transferred_bytes
            del result
            assert stats() is None
            assert registry_series(federation.metrics) == series

    def test_concurrent_appends_lose_no_record(self):
        """Eight threads on a short switch interval: every record is
        counted and the newest are kept."""
        metrics = EngineMetrics()

        def client():
            for n in range(200):
                metrics.records.append(QueryRecord(float(n), n + 0.5))

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
        assert len(metrics.records) == 1600
        assert len(metrics.records[0:]) == CAPACITY


class TestNothingGrowsWithTheQueryCount:
    def test_records_are_a_ring_indexed_from_the_first_record(self):
        records = EngineMetrics().records
        total = CAPACITY + 44
        for n in range(total):
            records.append(QueryRecord(float(n), n + 0.5))
        assert len(records) == total
        assert [r.started_at for r in records[0:]] \
            == [float(n) for n in range(44, total)]
        assert [r.started_at for r in records[total - 3:]] \
            == [float(n) for n in range(total - 3, total)]
        assert records[44].started_at == 44.0
        assert records[-1].started_at == total - 1.0
        with pytest.raises(IndexError):
            records[43]

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
