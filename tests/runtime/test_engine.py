"""Engine correctness under concurrency: N parallel submissions must
be indistinguishable (result-wise) from sequential ``Federation.run``."""

import gc
import threading
import weakref

import pytest

from repro.decompose import Strategy
from repro.errors import NetworkError
from repro.runtime.engine import EngineClosedError, FederationEngine
from repro.runtime.transport import Transport
from repro.system.federation import Federation, RunResult
from repro.workloads import (BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY,
                             TENANT_AGE_THRESHOLDS, TenantJob,
                             benchmark_query_variant, build_federation,
                             build_sharded_federation, multi_tenant_jobs)
from repro.xquery.xdm import sequences_deep_equal, serialize_sequence
from repro.xrpc.messages import ResponseMessage

from tests.conftest import COURSE_XML, Q2, STUDENTS_XML
from tests.oracle.accounting_reference import registry_series

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
        byte-identical to one sequential run, cache on."""
        expected = serialize_sequence(
            build_federation(0.0025).run(BENCHMARK_QUERY, at="local").items)
        federation = build_federation(0.0025)
        with FederationEngine(federation,
                              max_workers=CONCURRENCY) as engine:
            futures = [engine.submit(BENCHMARK_QUERY, "local")
                       for _ in range(CONCURRENCY)]
            for future in futures:
                assert serialize_sequence(future.result().items) == expected
        assert registry_series(federation.metrics)[
            "query_completed_total"] == CONCURRENCY

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

    def test_a_concurrent_run_counts_as_its_solo_run(self):
        """Every round trip is its own query's: the tenant variants run
        together on two workers, each answering and counting exactly as
        the same text run alone on a fresh twin federation."""
        texts = [benchmark_query_variant(age)
                 for age in TENANT_AGE_THRESHOLDS] * 2
        with FederationEngine(build_federation(0.01), max_workers=2,
                              cache=False) as engine:
            futures = [engine.submit(text, "local", Strategy.BY_PROJECTION)
                       for text in texts]
            together = [future.result() for future in futures]
        for text, run in zip(texts, together):
            solo = build_federation(0.01).run(
                text, at="local", strategy=Strategy.BY_PROJECTION)
            assert run.items and sequences_deep_equal(run.items, solo.items)
            for name in ("messages", "message_bytes", "rpc_calls", "times"):
                assert getattr(run.stats, name) == \
                    getattr(solo.stats, name), (text, name)


class TestDeliveryPathParity:
    """A plain ``Federation.run``, an engine run with its cache off, and
    an engine run as constructed by default (a cold cache) all take the
    one marshal → deliver → parse → record pipeline: same answer, same
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
        "engine-direct": {"cache": False},
        "engine-default": {},
    }

    @staticmethod
    def _comparable(stats):
        """``summary()`` minus what legitimately differs by path (the
        cache counters and ``plan.from_cache``)."""
        summary = stats.summary()
        del summary["cache_hits"], summary["cache_saved_bytes"]
        del summary["plan"]["from_cache"]
        return summary

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
            # One requester-side parse per response, on every path.
            assert len(parses) == len(result.messages), path
            results[path] = result

        plain = results.pop("plain")
        summary = self._comparable(plain.stats)
        for path, result in results.items():
            assert sequences_deep_equal(result.items, plain.items), path
            assert self._comparable(result.stats) == summary, path


class TestScheduling:
    def test_admission_control_bounds_in_flight(self):
        """``max_in_flight`` (twice the workers) queries are admitted;
        the next submit() blocks until one of them finishes."""
        gate = threading.Event()

        class GatedTransport(Transport):
            def exchange(self, *args, **kwargs):
                gate.wait()
                return super().exchange(*args, **kwargs)

        federation = make_federation()
        federation.transport = GatedTransport(federation.cost_model)
        engine = FederationEngine(federation, max_workers=1,
                                  cache=False)
        assert engine.max_in_flight == 2
        admitted = [engine.submit(Q2, "local") for _ in range(2)]
        assert engine.in_flight == 2
        late = []
        producer = threading.Thread(
            target=lambda: late.append(engine.submit(Q2, "local")))
        producer.start()
        producer.join(timeout=0.05)
        assert producer.is_alive() and not late     # blocked in submit()
        gate.set()
        producer.join()
        for future in admitted + late:
            future.result()
        engine.shutdown()
        assert registry_series(federation.metrics)[
            "query_completed_total"] == 3

    def test_each_future_carries_its_jobs_strategy(self):
        jobs = [(Q2, "local", strategy) for strategy in Strategy] * 2
        with FederationEngine(make_federation(), max_workers=4) as engine:
            futures = [engine.submit(*job) for job in jobs]
            results = [future.result() for future in futures]
        assert [r.decomposition.strategy for r in results] == \
            [job[2] for job in jobs]

    BAD_QUERY = 'doc("xrpc://missing/d.xml")/child::a'

    def test_failures_recorded_and_raised(self):
        federation = make_federation()
        with FederationEngine(federation, max_workers=2) as engine:
            future = engine.submit(self.BAD_QUERY, "local")
            with pytest.raises(NetworkError):
                future.result()
        series = registry_series(federation.metrics)
        assert series["query_failed_total"] == 1
        assert series["query_completed_total"] == 0
        assert len(engine.metrics.records) == 1

    def test_a_failing_query_leaves_its_neighbours_results(self):
        expected = serialize_sequence(
            make_federation().run(Q2, at="local").items)
        federation = make_federation()
        with FederationEngine(federation, max_workers=2) as engine:
            good = engine.submit(Q2, "local")
            bad = engine.submit(self.BAD_QUERY, "local")
            after = engine.submit(Q2, "local")
            with pytest.raises(NetworkError):
                bad.result()
            assert serialize_sequence(good.result().items) == expected
            assert serialize_sequence(after.result().items) == expected
        series = registry_series(federation.metrics)
        assert (series["query_completed_total"],
                series["query_failed_total"]) == (2, 1)

    def test_cancelled_future_releases_admission_slot(self):
        """Cancelling a queued query must not leak its in-flight slot."""
        federation = make_federation()
        federation.transport = Transport(federation.cost_model,
                                         extra_latency_s=0.01)
        with FederationEngine(federation, max_workers=1) as engine:
            blocker = engine.submit(Q2, "local")
            queued = engine.submit(Q2, "local")
            assert queued.cancel()
            blocker.result()
            # Both slots must be free again: two more submits succeed
            # without blocking (a leaked slot would deadlock here).
            for future in [engine.submit(Q2, "local") for _ in range(2)]:
                future.result()
            assert engine.in_flight == 0

    def test_a_retired_engine_leaves_its_cache_to_the_collector(self):
        federation = make_federation()
        engine = FederationEngine(federation, max_workers=1)
        engine.submit(Q2, "local").result()
        cache = weakref.ref(engine.cache)
        engine.shutdown()
        del engine
        gc.collect()
        assert cache() is None

    def test_a_shared_cache_outlives_its_engine_and_stays_current(self):
        from repro.runtime.cache import ResultCache
        from tests.runtime.test_cache import rpc_outcomes

        federation, shared = make_federation(), ResultCache()
        with FederationEngine(federation, max_workers=1,
                              cache=shared) as engine:
            first = engine.submit(Q2, "local").result()
        course = COURSE_XML.replace(">B<", ">Z<")
        federation.peer("B").store("course42.xml", course)
        with FederationEngine(federation, max_workers=1,
                              cache=shared) as engine:
            fresh = engine.submit(Q2, "local", trace=True).result()
        # The entry of the call to A read nothing of B: still served.
        assert rpc_outcomes(fresh) == [("A", "hit"), ("B", "miss")]
        plain = make_federation()
        plain.peer("B").store("course42.xml", course)
        assert serialize_sequence(fresh.items) == \
            serialize_sequence(plain.run(Q2, at="local").items)
        assert serialize_sequence(fresh.items) != \
            serialize_sequence(first.items)
        assert "Z" in serialize_sequence(fresh.items)

    def test_submit_after_shutdown_raises(self):
        engine = FederationEngine(make_federation(), max_workers=1)
        engine.shutdown()
        with pytest.raises(EngineClosedError):
            engine.submit(Q2, "local")

    def test_a_store_on_a_peer_added_after_construction_counts(self):
        """A late peer's store outdates the entries that read that peer,
        and nothing else."""
        from tests.runtime.test_cache import rpc_outcomes

        count_at_c = ('declare function n() as xs:integer '
                      '{ count(doc("xrpc://C/extra.xml")/child::d/child::e) }; '
                      'execute at {"C"} { n() }')
        federation = make_federation()
        with FederationEngine(federation, max_workers=2) as engine:
            engine.submit(Q2, "local").result()
            assert engine.cache.snapshot()["responses"] > 0
            late = federation.add_peer("C")
            late.store("extra.xml", "<d><e/></d>")
            counted = engine.submit(count_at_c, "local", "data-shipping",
                                    trace=True).result()
            assert (counted.items, rpc_outcomes(counted)) == \
                ([1], [("C", "miss")])
            late.store("extra.xml", "<d><e/><e/></d>")
            again = engine.submit(Q2, "local", trace=True).result()
            assert rpc_outcomes(again) == [("A", "hit"), ("B", "hit")]
            recounted = engine.submit(count_at_c, "local", "data-shipping",
                                      trace=True).result()
            assert (recounted.items, rpc_outcomes(recounted)) == \
                ([2], [("C", "miss")])
            assert engine.cache.stats.invalidations == 1


def run_multi_tenant(federation: Federation, jobs: list[TenantJob],
                     engine: FederationEngine | None = None,
                     **engine_kwargs) -> tuple[list[RunResult],
                                               FederationEngine]:
    """Execute a multi-tenant workload concurrently.

    Returns the per-job results (in job order) plus the engine (the
    federation's registry counts the runs). A caller-supplied
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
        futures = [engine.submit(job.query, job.at, job.strategy)
                   for job in jobs]
        results = [future.result() for future in futures]
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
        assert engine.cache.stats.hits > 0
        assert engine.cache.stats.saved_bytes > 0

    def test_run_multi_tenant_end_to_end(self):
        federation = build_federation(0.0025)
        jobs = multi_tenant_jobs(clients=4, rounds=2)
        results, engine = run_multi_tenant(federation, jobs, max_workers=4)
        assert len(results) == len(jobs)
        series = registry_series(federation.metrics)
        assert series["query_completed_total"] == len(jobs)
        assert series["query_failed_total"] == 0
        assert engine.cache.stats.hit_rate > 0
        # Identical jobs produced identical results.
        by_query: dict[str, str] = {}
        for job, result in zip(jobs, results):
            text = serialize_sequence(result.items)
            assert by_query.setdefault(job.query, text) == text
