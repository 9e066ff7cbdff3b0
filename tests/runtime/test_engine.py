"""Engine correctness under concurrency: N parallel submissions must
be indistinguishable (result-wise) from sequential ``Federation.run``."""

import threading

import pytest

from repro.decompose import Strategy
from repro.errors import NetworkError
from repro.runtime.engine import EngineClosedError, FederationEngine
from repro.runtime.transport import Transport
from repro.system.federation import Federation, RunResult
from repro.workloads import (BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY,
                             TenantJob, build_federation,
                             build_sharded_federation, multi_tenant_jobs)
from repro.xquery.xdm import sequences_deep_equal, serialize_sequence
from repro.xrpc.messages import ResponseMessage

from tests.conftest import COURSE_XML, Q2, STUDENTS_XML

CONCURRENCY = 8


def make_federation():
    federation = Federation()
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("B").store("course42.xml", COURSE_XML)
    federation.add_peer("local")
    return federation


class TestConcurrentCorrectness:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_parallel_q2_matches_sequential(self, strategy):
        expected = serialize_sequence(
            make_federation().run(Q2, at="local", strategy=strategy).items)
        with FederationEngine(make_federation(),
                              max_workers=CONCURRENCY) as engine:
            futures = [engine.submit(Q2, "local", strategy)
                       for _ in range(CONCURRENCY)]
            for future in futures:
                assert serialize_sequence(future.result().items) == expected

    def test_parallel_benchmark_query_matches_sequential(self):
        """The acceptance smoke test: 8 concurrent benchmark queries,
        byte-identical to one sequential run, cache and batching on."""
        expected = serialize_sequence(
            build_federation(0.0025).run(BENCHMARK_QUERY, at="local").items)
        with FederationEngine(build_federation(0.0025),
                              max_workers=CONCURRENCY) as engine:
            futures = [engine.submit(BENCHMARK_QUERY, "local")
                       for _ in range(CONCURRENCY)]
            for future in futures:
                assert serialize_sequence(future.result().items) == expected
        assert engine.metrics.summary()["queries"] == CONCURRENCY

    def test_repeated_queries_hit_the_cache(self):
        with FederationEngine(make_federation(), max_workers=2) as engine:
            engine.submit(Q2, "local").result()
            repeat = engine.submit(Q2, "local").result()
        assert repeat.stats.cache_hits > 0
        assert repeat.stats.cache_saved_bytes > 0
        assert engine.cache.stats.hit_rate > 0

    def test_cache_disabled(self):
        with FederationEngine(make_federation(), max_workers=2,
                              cache=False) as engine:
            engine.submit(Q2, "local").result()
            repeat = engine.submit(Q2, "local").result()
        assert engine.cache is None
        assert repeat.stats.cache_hits == 0


class TestDeliveryPathParity:
    """A plain ``Federation.run``, an engine run with cache and batcher
    off, and an engine run with the batcher on but no rider all take
    the one deliver → parse → record pipeline: same answer, same
    accounting, one response parse per round trip."""

    TOPOLOGIES = {
        "single-owner": (lambda: build_federation(0.02), BENCHMARK_QUERY),
        "sharded-4x2": (
            lambda: build_sharded_federation(0.02, shard_count=4,
                                             replication_factor=2),
            SHARDED_BENCHMARK_QUERY),
    }
    PATHS = {
        "plain": None,
        "engine-direct": {"cache": False, "batch_window_s": 0},
        "engine-batched": {},
    }

    @staticmethod
    def _comparable(stats):
        """``summary()`` minus what legitimately differs by path (the
        cache counters and ``plan.from_cache``), and the
        explain-analyze rows apart: scatter workers fold their actuals
        concurrently, so those float sums are order-dependent in the
        last bits."""
        summary = stats.summary()
        del summary["cache_hits"], summary["cache_saved_bytes"]
        del summary["plan"]["from_cache"]
        return summary, summary["plan"]["analysis"].pop("ops")

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_paths_agree(self, topology, strategy, monkeypatch):
        build, query = self.TOPOLOGIES[topology]
        parses = []
        parse = ResponseMessage.from_xml.__func__

        def counting_from_xml(cls, text):
            parses.append(text)
            return parse(cls, text)

        monkeypatch.setattr(ResponseMessage, "from_xml",
                            classmethod(counting_from_xml))
        results = {}
        for path, engine_kwargs in self.PATHS.items():
            parses.clear()
            federation = build()
            if engine_kwargs is None:
                result = federation.run(query, at="local",
                                        strategy=strategy)
            else:
                with FederationEngine(federation, max_workers=1,
                                      **engine_kwargs) as engine:
                    result = engine.submit(query, "local",
                                           strategy).result()
                if engine.batcher is not None:
                    assert engine.batcher.snapshot()["coalesced"] == 0
            # One requester-side parse per response, on every path.
            assert len(parses) == len(result.messages), path
            results[path] = result

        plain = results.pop("plain")
        summary, ops = self._comparable(plain.stats)
        for path, result in results.items():
            assert sequences_deep_equal(result.items, plain.items), path
            other_summary, other_ops = self._comparable(result.stats)
            assert other_summary == summary, path
            assert len(other_ops) == len(ops), path
            for op, other_op in zip(ops, other_ops):
                assert other_op == pytest.approx(op, rel=1e-12), path


class TestScheduling:
    def test_admission_control_bounds_in_flight(self):
        """With max_in_flight=1 the runtime never evaluates two queries
        at once, however many are submitted."""
        active = []
        peak = []
        lock = threading.Lock()

        class TrackingTransport(Transport):
            def exchange(self, peer, request, handle, stats, **kwargs):
                with lock:
                    active.append(1)
                    peak.append(len(active))
                try:
                    return super().exchange(peer, request, handle, stats,
                                            **kwargs)
                finally:
                    with lock:
                        active.pop()

        federation = make_federation()
        federation.transport = TrackingTransport(federation.cost_model)
        engine = FederationEngine(federation, max_workers=4,
                                  max_in_flight=1,
                                  cache=False, batch_window_s=0.0)

        # submit() itself blocks, so drive it from producer threads.
        def run_one():
            engine.submit(Q2, "local").result()

        producers = [threading.Thread(target=run_one) for _ in range(4)]
        for producer in producers:
            producer.start()
        for producer in producers:
            producer.join()
        engine.shutdown()
        assert max(peak) == 1  # never two queries on the wire at once
        assert engine.metrics.summary()["queries"] == 4

    def test_run_all_preserves_job_order(self):
        jobs = [(Q2, "local", strategy) for strategy in Strategy] * 2
        with FederationEngine(make_federation(), max_workers=4) as engine:
            results = engine.run_all(jobs)
        assert [r.decomposition.strategy for r in results] == \
            [job[2] for job in jobs]

    BAD_QUERY = 'doc("xrpc://missing/d.xml")/child::a'

    def test_run_all_return_exceptions(self):
        jobs = [(Q2, "local"), (self.BAD_QUERY, "local")]
        with FederationEngine(make_federation(), max_workers=2) as engine:
            results = engine.run_all(jobs, return_exceptions=True)
        assert serialize_sequence(results[0].items)
        assert isinstance(results[1], NetworkError)

    def test_failures_recorded_and_raised(self):
        with FederationEngine(make_federation(), max_workers=2) as engine:
            future = engine.submit(self.BAD_QUERY, "local")
            with pytest.raises(NetworkError):
                future.result()
        summary = engine.metrics.summary()
        assert summary["failed"] == 1
        assert summary["queries"] == 0

    def test_cancelled_future_releases_admission_slot(self):
        """Cancelling a queued query must not leak its in-flight slot."""
        federation = make_federation()
        federation.transport = Transport(federation.cost_model,
                                         extra_latency_s=0.01)
        with FederationEngine(federation, max_workers=1,
                              max_in_flight=2) as engine:
            blocker = engine.submit(Q2, "local")
            queued = engine.submit(Q2, "local")
            assert queued.cancel()
            blocker.result()
            # Both slots must be free again: two more submits succeed
            # without blocking (a leaked slot would deadlock here).
            engine.run_all([(Q2, "local")] * 2)
            assert engine.in_flight == 0

    @staticmethod
    def _cache_listeners(peer):
        """Store listeners registered by a ResultCache (the planner's
        StatsCatalog keeps its own persistent listener on the peer)."""
        from repro.planner.stats import StatsCatalog

        return [listener for listener in peer._store_listeners
                if not isinstance(getattr(listener, "__self__", None),
                                  StatsCatalog)]

    def test_shutdown_detaches_owned_cache_listeners(self):
        federation = make_federation()
        peer = federation.peer("A")
        engine = FederationEngine(federation, max_workers=1)
        engine.submit(Q2, "local").result()
        assert len(self._cache_listeners(peer)) == 1
        engine.shutdown()
        assert self._cache_listeners(peer) == []

    def test_shutdown_keeps_shared_cache_attached(self):
        from repro.runtime.cache import ResultCache

        federation = make_federation()
        shared = ResultCache()
        engine = FederationEngine(federation, max_workers=1, cache=shared)
        engine.submit(Q2, "local").result()
        engine.shutdown()
        assert len(self._cache_listeners(federation.peer("A"))) == 1
        shared.detach()
        assert self._cache_listeners(federation.peer("A")) == []

    def test_submit_after_shutdown_raises(self):
        engine = FederationEngine(make_federation(), max_workers=1)
        engine.shutdown()
        with pytest.raises(EngineClosedError):
            engine.submit(Q2, "local")

    def test_peers_added_after_construction_are_hooked(self):
        federation = make_federation()
        with FederationEngine(federation, max_workers=2) as engine:
            engine.submit(Q2, "local").result()
            assert engine.cache.snapshot()["responses"] > 0
            late = federation.add_peer("C")
            engine.submit(Q2, "local").result()  # re-attaches
            late.store("extra.xml", "<d/>")
            assert engine.cache.snapshot()["responses"] == 0


def run_multi_tenant(federation: Federation, jobs: list[TenantJob],
                     engine: FederationEngine | None = None,
                     **engine_kwargs) -> tuple[list[RunResult],
                                               FederationEngine]:
    """Execute a multi-tenant workload concurrently.

    Returns the per-job results (in job order) plus the engine, whose
    ``metrics`` / ``summary()`` carry the fleet view. A caller-supplied
    ``engine`` is reused (and left running); otherwise one is built
    from ``engine_kwargs`` and shut down before returning.
    """
    own_engine = engine is None
    if engine is None:
        engine = FederationEngine(federation, **engine_kwargs)
    elif engine_kwargs:
        raise ValueError(
            "engine_kwargs are only used when building a new engine; "
            f"got both engine= and {sorted(engine_kwargs)}")
    try:
        results = engine.run_all(
            [(job.query, job.at, job.strategy) for job in jobs])
    finally:
        if own_engine:
            engine.shutdown()
    return results, engine


class TestMultiTenantWorkload:
    def test_jobs_are_deterministic_and_repeat_thresholds(self):
        jobs = multi_tenant_jobs(clients=8, rounds=2)
        again = multi_tenant_jobs(clients=8, rounds=2)
        assert jobs == again
        assert len(jobs) == 16
        assert len({job.query for job in jobs}) < len(jobs)  # repeats

    def test_engine_kwargs_rejected_with_supplied_engine(self):
        federation = build_federation(0.0025)
        with FederationEngine(federation, max_workers=1) as engine:
            with pytest.raises(ValueError):
                run_multi_tenant(federation, [], engine=engine,
                                 max_workers=4)

    def test_repeated_tenant_queries_hit_the_cache_on_one_worker(self):
        _results, engine = run_multi_tenant(
            build_federation(0.0025), multi_tenant_jobs(clients=8, rounds=2),
            max_workers=1)
        summary = engine.metrics.summary()
        assert summary["cache_hits"] > 0
        assert summary["cache_saved_bytes"] > 0

    def test_run_multi_tenant_end_to_end(self):
        federation = build_federation(0.0025)
        jobs = multi_tenant_jobs(clients=4, rounds=2)
        results, engine = run_multi_tenant(federation, jobs, max_workers=4)
        assert len(results) == len(jobs)
        summary = engine.metrics.summary()
        assert summary["queries"] == len(jobs)
        assert summary["failed"] == 0
        assert engine.cache.stats.hit_rate > 0
        # Identical jobs produced identical results.
        by_query: dict[str, str] = {}
        for job, result in zip(jobs, results):
            text = serialize_sequence(result.items)
            assert by_query.setdefault(job.query, text) == text
