"""The concurrent federation engine: a thread-pool scheduler over
:class:`~repro.system.federation.Federation`.

:class:`FederationEngine` turns the one-query-at-a-time simulator into
a runtime serving many queries at once:

* a worker pool executes queries concurrently (documents are immutable
  once stored, so evaluation is read-shared);
* **admission control** — a bounded semaphore caps in-flight queries;
  :meth:`submit` blocks once ``max_in_flight`` queries are queued or
  running, which is the back-pressure a production front door needs;
* **per-peer request queues** — the transport's per-peer concurrency
  gates bound how many exchanges hammer one peer at a time;
* a shared :class:`~repro.runtime.cache.ResultCache` (invalidated by
  ``Peer.store``) and a :class:`~repro.runtime.batching.BulkBatcher`
  that coalesces same-shape round trips across queries;
* a :class:`~repro.runtime.metrics.MetricsAggregator` recording every
  query for the fleet-level summary (the registry's ``query_*``
  series are counted by ``Federation.run`` itself).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from threading import BoundedSemaphore
from typing import TYPE_CHECKING, Iterable

from repro.decompose import Strategy, strategy_label
from repro.runtime.batching import BulkBatcher
from repro.runtime.cache import ResultCache
from repro.runtime.metrics import MetricsAggregator, QueryRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation, RunResult


class EngineClosedError(RuntimeError):
    """submit() after shutdown()."""


class FederationEngine:
    """Concurrent query execution over one federation.

    Usage::

        engine = FederationEngine(federation, max_workers=8)
        futures = [engine.submit(query, at="local") for _ in range(32)]
        results = [f.result() for f in futures]
        print(engine.metrics.format_summary())
        engine.shutdown()

    ``cache=True`` (default) creates a :class:`ResultCache`; pass an
    instance to share one across engines, or ``False`` to disable.
    ``batch_window_s`` > 0 enables cross-query bulk coalescing.

    Over a sharded federation, worker threads × the catalog's
    ``max_scatter_parallelism`` bounds this engine's total concurrent
    exchanges; the per-peer gates still bound how many land on one
    replica.
    """

    def __init__(self, federation: "Federation", *,
                 max_workers: int = 8,
                 max_in_flight: int | None = None,
                 cache: "ResultCache | bool" = True,
                 batch_window_s: float = 0.002):
        self.federation = federation
        self._owns_cache = cache is True
        if cache is True:
            # An engine-owned cache publishes its cache_* series into
            # the federation's registry, next to the wire_* truth, and
            # its invalidation sweeps into an attached fleet monitor's
            # event log.
            monitor = federation.monitor
            self.cache: ResultCache | None = ResultCache(
                metrics=federation.metrics,
                events=monitor.events if monitor is not None else None)
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        self._in_flight = 0
        self._executing = 0
        self._in_flight_lock = threading.Lock()
        # A window is only worth paying when another query is actually
        # *executing* (not merely queued behind the worker pool): a
        # rider can only arrive from a concurrently running query.
        self.batcher = (BulkBatcher(window_s=batch_window_s,
                                    worth_waiting=lambda:
                                    self.executing > 1)
                        if batch_window_s > 0 else None)
        #: Every query's record; the registry's ``query_*`` series are
        #: the federation's, folded at the end of each run.
        self.metrics = MetricsAggregator()
        self.max_in_flight = (max_in_flight if max_in_flight is not None
                              else 2 * max_workers)
        self._admission = BoundedSemaphore(self.max_in_flight)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="federation-engine")
        self._closed = False
        if self.cache is not None:
            self.cache.attach(federation)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "FederationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._pool.shutdown(wait=wait)
        if self._owns_cache and self.cache is not None:
            # Engine-private cache: unhook its invalidation listeners so
            # a long-lived federation doesn't fan out to dead caches.
            self.cache.detach()

    # -- submission ---------------------------------------------------------

    def submit(self, query: str, at: str,
               strategy: Strategy | str = Strategy.BY_PROJECTION,
               **run_kwargs) -> "Future[RunResult]":
        """Schedule one query; blocks while ``max_in_flight`` queries
        are already admitted (admission control), then returns a future
        for the :class:`RunResult`.

        ``strategy`` accepts the enum, a case-insensitive string alias,
        or ``"auto"`` (cost-based planning per query) — same contract
        as :meth:`Federation.run`; invalid names raise here, before a
        worker is occupied."""
        if self._closed:
            raise EngineClosedError("engine is shut down")
        strategy = Strategy.coerce(strategy)
        if self.cache is not None:
            # Pick up peers added since construction.
            self.cache.attach(self.federation)
        self._admission.acquire()
        with self._in_flight_lock:
            self._in_flight += 1
        try:
            future = self._pool.submit(self._run_one, query, at, strategy,
                                       run_kwargs)
        except BaseException:
            self._release_one()
            raise
        # A future cancelled while still queued never reaches _run_one,
        # so its admission slot must be released here instead.
        future.add_done_callback(
            lambda f: self._release_one() if f.cancelled() else None)
        return future

    @property
    def in_flight(self) -> int:
        """Queries admitted and not yet finished (running or queued)."""
        with self._in_flight_lock:
            return self._in_flight

    @property
    def executing(self) -> int:
        """Queries currently running on a worker thread."""
        with self._in_flight_lock:
            return self._executing

    def _release_one(self) -> None:
        with self._in_flight_lock:
            self._in_flight -= 1
        self._admission.release()

    def _finish_one(self) -> None:
        with self._in_flight_lock:
            self._executing -= 1
        self._release_one()

    def run_all(self, jobs: Iterable[tuple], *,
                strategy: Strategy = Strategy.BY_PROJECTION,
                return_exceptions: bool = False) -> list:
        """Submit every ``(query, at)`` (or ``(query, at, strategy)``)
        job and block until all finish; results come back in job order.
        """
        futures = []
        for job in jobs:
            if len(job) >= 3:
                query, at, job_strategy = job[0], job[1], job[2]
            else:
                query, at, job_strategy = job[0], job[1], strategy
            futures.append(self.submit(query, at, job_strategy))
        results = []
        for future in futures:
            if return_exceptions:
                error = future.exception()
                results.append(error if error is not None
                               else future.result())
            else:
                results.append(future.result())
        return results

    # -- worker body --------------------------------------------------------

    def _run_one(self, query: str, at: str, strategy: "Strategy | str",
                 run_kwargs: dict) -> "RunResult":
        clock = self.federation.transport.clock
        started = clock()
        label = strategy_label(strategy)
        monitor = self.federation.monitor
        if (monitor is not None and "trace" not in run_kwargs
                and monitor.should_sample_trace()):
            # The fleet monitor's sampling profiler: trace every Nth
            # query; an explicit trace= from the caller always wins.
            run_kwargs = {**run_kwargs, "trace": True}
        with self._in_flight_lock:
            self._executing += 1
        try:
            result = self.federation.run(
                query, at=at, strategy=strategy,
                result_cache=self.cache,
                batcher=self.batcher,
                **run_kwargs)
        except BaseException as exc:
            self.metrics.record(QueryRecord(
                started_at=started, finished_at=clock(),
                stats=None, strategy=label, at=at,
                error=f"{type(exc).__name__}: {exc}"))
            raise
        finally:
            self._finish_one()
        self.metrics.record(QueryRecord(
            started_at=started, finished_at=clock(),
            stats=result.stats, strategy=label, at=at,
            plan=(result.stats.plan.strategy
                  if result.stats.plan is not None else None)))
        return result

    # -- introspection ------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """Metrics, wire truth, cache and batching state in one dict,
        plus the federation registry's uniform ``snapshot()``."""
        out: dict[str, object] = {"metrics": self.metrics.summary(),
                                  "wire": self.federation.transport
                                  .wire_summary(),
                                  "registry":
                                      self.federation.metrics.snapshot()}
        if self.cache is not None:
            out["cache"] = self.cache.snapshot()
        if self.batcher is not None:
            out["batching"] = self.batcher.snapshot()
        return out
