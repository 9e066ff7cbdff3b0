"""The concurrent federation engine: a thread-pool scheduler over
:class:`~repro.system.federation.Federation`.

:class:`FederationEngine` turns the one-query-at-a-time simulator into
a runtime serving many queries at once:

* a worker pool executes queries concurrently (documents are immutable
  once stored, so evaluation is read-shared);
* **admission control** — a bounded semaphore caps in-flight queries;
  :meth:`submit` blocks once ``max_in_flight`` (twice the workers)
  queries are queued or running, which is the back-pressure a
  production front door needs;
* **per-peer request queues** — the transport's per-peer concurrency
  gates bound how many exchanges hammer one peer at a time;
* a shared :class:`~repro.runtime.cache.ResultCache` (each entry current
  while the peers it read are);
* :attr:`FederationEngine.metrics`, when each run started and
  finished; every count is the federation registry's, folded by
  ``Federation.run`` itself.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from threading import BoundedSemaphore
from typing import TYPE_CHECKING

from repro.decompose import Strategy
from repro.runtime.cache import ResultCache
from repro.runtime.metrics import EngineMetrics, QueryRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation, RunResult


class EngineClosedError(RuntimeError):
    """submit() after shutdown()."""


class _NoBatcher:
    """No round trip is shared across queries, so none is coalesced."""

    @staticmethod
    def snapshot() -> dict[str, int]:
        return {"round_trips": 0, "coalesced": 0}


class FederationEngine:
    """Concurrent query execution over one federation.

    Usage::

        engine = FederationEngine(federation, max_workers=8)
        futures = [engine.submit(query, at="local") for _ in range(32)]
        results = [f.result() for f in futures]
        engine.shutdown()
        totals = federation.metrics.snapshot()    # query_*, cache_*, ...

    ``cache=True`` (default) creates a :class:`ResultCache`; pass an
    instance to share one across engines, or ``False`` to disable.
    Every round trip is its own query's: a query's Bulk RPC merges the
    calls of its own loops, never another query's.

    A query's scatters run their round trips on its worker thread, so
    ``max_workers`` bounds this engine's concurrent exchanges, sharded
    federation or not; the per-peer gates still bound how many land on
    one replica.
    """

    #: Read by the end-to-end ledger's worker (``batch_merge_ratio``,
    #: always 0 now); ROADMAP item 9(a) removes it with that read.
    batcher = _NoBatcher()

    def __init__(self, federation: "Federation", *,
                 max_workers: int = 8,
                 cache: "ResultCache | bool" = True):
        self.federation = federation
        if cache is True:
            # An engine-owned cache publishes its cache_* series into
            # the federation's registry, next to the wire_* truth, and
            # its invalidations into the federation's event log.
            self.cache: ResultCache | None = ResultCache(
                metrics=federation.metrics, events=federation.events)
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache
        self._in_flight = 0
        self._in_flight_lock = threading.Lock()
        #: When each run started and finished, the newest kept; what
        #: the runs did is the federation registry's.
        self.metrics = EngineMetrics()
        #: Queries admitted (running or queued) before submit() blocks.
        self.max_in_flight = 2 * max_workers
        self._admission = BoundedSemaphore(self.max_in_flight)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="federation-engine")
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "FederationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._pool.shutdown(wait=wait)

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

    def _release_one(self) -> None:
        with self._in_flight_lock:
            self._in_flight -= 1
        self._admission.release()

    # -- worker body --------------------------------------------------------

    def _run_one(self, query: str, at: str, strategy: "Strategy | str",
                 run_kwargs: dict) -> "RunResult":
        clock = self.federation.transport.clock
        started = clock()
        try:
            return self.federation.run(
                query, at=at, strategy=strategy,
                result_cache=self.cache, **run_kwargs)
        finally:
            # Completed or failed, one record, before the future
            # resolves: a closed-loop caller reads it right after.
            self.metrics.records.append(QueryRecord(started, clock()))
            self._release_one()
