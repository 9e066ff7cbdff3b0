"""Engine correctness under concurrency: N parallel submissions must
be indistinguishable (result-wise) from sequential ``Federation.run``."""

import gc
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager

import pytest

from repro.decompose import Strategy
from repro.errors import NetworkError
from repro.obs.trace import Tracer
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

    def test_a_shutdown_while_submit_waits_for_admission_refuses_it(self):
        """A query admitted after the workers were told to stop would
        have no worker left to run it."""
        engine = FederationEngine(make_federation(), max_workers=1)
        admission = engine._admission

        class ShutDownWhileAdmitting:
            def acquire(self):
                admission.acquire()
                engine.shutdown()

            def release(self):
                admission.release()

        engine._admission = ShutDownWhileAdmitting()
        with pytest.raises(EngineClosedError):
            engine.submit(Q2, "local")
        assert engine.in_flight == 0
        assert all(admission.acquire(blocking=False)
                   for _ in range(engine.max_in_flight))

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


class ThreadNotingTransport(Transport):
    """Notes the thread of every exchange; ``gate`` (when set) holds
    each exchange until it is set, and ``entered`` is set once one
    waits there."""

    def __init__(self, cost_model, gate: threading.Event | None = None):
        super().__init__(cost_model)
        self.gate = gate
        self.entered = threading.Event()
        self.threads: list[int] = []

    def exchange(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        if self.gate is not None:
            self.entered.set()
            assert self.gate.wait(timeout=30)
        return super().exchange(*args, **kwargs)


@contextmanager
def callers_keep_the_gil():
    """A woken worker cannot take the interpreter from a caller that
    has not blocked, so the caller's untimed ``result()`` is the first
    to claim its query."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestWhoRunsAQuery:
    """An untimed wait runs the query on the waiting thread; a future
    nobody waits on runs on a worker; each query runs exactly once and
    at most ``max_workers`` run at once, helping callers included."""

    def test_a_waiting_caller_runs_its_own_query(self):
        federation = make_federation()
        federation.transport = transport = ThreadNotingTransport(
            federation.cost_model)
        with FederationEngine(federation, max_workers=1,
                              cache=False) as engine:
            with callers_keep_the_gil():
                result = engine.submit(Q2, "local").result()
            assert result.items
            assert len(engine.metrics.records) == 1
        assert transport.threads and set(transport.threads) == \
            {threading.get_ident()}

    def test_helping_callers_stay_within_max_workers(self):
        inside, peak, lock = [0], [0], threading.Lock()
        federation = make_federation()

        class CountingTransport(Transport):
            def exchange(self, *args, **kwargs):
                with lock:
                    inside[0] += 1
                    peak[0] = max(peak[0], inside[0])
                try:
                    threading.Event().wait(0.002)
                    return super().exchange(*args, **kwargs)
                finally:
                    with lock:
                        inside[0] -= 1

        federation.transport = CountingTransport(federation.cost_model)
        expected = serialize_sequence(
            make_federation().run(Q2, at="local").items)
        answers = []
        with FederationEngine(federation, max_workers=1,
                              cache=False) as engine:
            def client():
                for _ in range(5):
                    answers.append(serialize_sequence(
                        engine.submit(Q2, "local").result().items))

            clients = [threading.Thread(target=client) for _ in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        assert answers == [expected] * 10
        assert peak == [1]
        assert len(engine.metrics.records) == 10

    def test_futures_nobody_waits_on_finish_on_workers(self):
        federation = make_federation()
        federation.transport = transport = ThreadNotingTransport(
            federation.cost_model)
        engine = FederationEngine(federation, max_workers=2, cache=False)
        futures = [engine.submit(Q2, "local") for _ in range(4)]
        engine.shutdown(wait=True)
        assert all(future.done() for future in futures)
        assert threading.get_ident() not in transport.threads
        assert len(transport.threads) == 4 * 2    # two peers a query
        assert registry_series(federation.metrics)[
            "query_completed_total"] == 4

    def test_callers_racing_workers_run_every_query_once(self):
        federation = Federation()
        federation.add_peer("local")
        runs, lock, run = Counter(), threading.Lock(), federation.run

        def counting_run(query, **kwargs):
            with lock:
                runs[query] += 1
            return run(query, **kwargs)

        federation.run = counting_run
        answers = {}
        engine = FederationEngine(federation, max_workers=2, cache=False)

        def client(base):
            futures = [(n, engine.submit(str(n), "local"))
                       for n in range(base, base + 25)]
            for n, future in futures:
                answers[n] = future.result().items

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, args=(100 * c,))
                       for c in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
            engine.shutdown(wait=True)
        finally:
            sys.setswitchinterval(interval)
        queries = [str(100 * c + n) for c in range(8) for n in range(25)]
        assert runs == Counter(queries)
        assert answers == {int(q): [int(q)] for q in queries}
        assert len(engine.metrics.records) == len(queries)
        assert engine.in_flight == 0

    def test_a_timed_wait_only_waits(self):
        gate = threading.Event()
        federation = make_federation()
        federation.transport = transport = ThreadNotingTransport(
            federation.cost_model, gate)
        with FederationEngine(federation, max_workers=2,
                              cache=False) as engine:
            future = engine.submit(Q2, "local")
            with pytest.raises(FutureTimeoutError):
                future.result(timeout=0.05)
            with pytest.raises(FutureTimeoutError):
                future.exception(timeout=0.01)
            # The worker holds the query at the gate, so the untimed
            # wait below finds it claimed and only waits too.
            assert transport.entered.wait(timeout=30)
            gate.set()
            assert future.result().items
        assert transport.threads
        assert threading.get_ident() not in transport.threads

    def test_a_helped_query_opens_no_span_in_its_callers_context(self):
        federation = make_federation()
        federation.transport = transport = ThreadNotingTransport(
            federation.cost_model)
        tracer = Tracer()
        with FederationEngine(federation, max_workers=1,
                              cache=False) as engine:
            with callers_keep_the_gil(), tracer.start("client") as span:
                engine.submit(Q2, "local").result()
        assert set(transport.threads) == {threading.get_ident()}
        assert span.children == []


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
