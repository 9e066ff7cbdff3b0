"""The concurrent federation engine: a worker pool over
:class:`~repro.system.federation.Federation`.

:class:`FederationEngine` turns the one-query-at-a-time simulator into
a runtime serving many queries at once:

* a query runs on the thread that waits for it, or else on a worker:
  an untimed ``future.result()`` (or ``exception()``) on a query no
  worker has started runs it right there, so a closed-loop caller pays
  no hand-off to a second thread, while futures nobody waits on run
  side by side on the workers (documents are immutable once stored, so
  evaluation is read-shared);
* ``max_workers`` bounds the queries *running* at once, helping
  callers included: a caller that finds every slot taken waits for a
  worker instead;
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

import contextvars
import threading
import weakref
from concurrent.futures import Future
from queue import SimpleQueue
from threading import BoundedSemaphore
from typing import TYPE_CHECKING

from repro.decompose import Strategy
from repro.errors import ReproError
from repro.runtime.cache import ResultCache
from repro.runtime.metrics import EngineMetrics, QueryRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system.federation import Federation, RunResult


class EngineClosedError(ReproError, RuntimeError):
    """submit() after shutdown()."""


class _NoBatcher:
    """No round trip is shared across queries, so none is coalesced."""

    @staticmethod
    def snapshot() -> dict[str, int]:
        return {"round_trips": 0, "coalesced": 0}


class _Job:
    """A submitted query on the workers' queue. ``call`` holds its
    future and arguments until a worker or a waiting caller claims it,
    then ``None``, so the queue keeps neither the future nor its result
    alive."""

    __slots__ = ("engine", "call")

    def __init__(self, engine: "FederationEngine", call: tuple) -> None:
        self.engine = engine
        self.call: tuple | None = call


class _QueryFuture(Future):
    """The future :meth:`FederationEngine.submit` returns. An untimed
    :meth:`result` or :meth:`exception` first runs the query on the
    calling thread, if no worker has claimed it and a running slot is
    free; a timed one only waits."""

    def __init__(self, engine: "FederationEngine", *args) -> None:
        super().__init__()
        self._job = _Job(engine, (self, *args))

    def result(self, timeout: float | None = None) -> "RunResult":
        if timeout is None:
            self._job.engine._help(self._job)
        return super().result(timeout)

    def exception(self, timeout: float | None = None):
        if timeout is None:
            self._job.engine._help(self._job)
        return super().exception(timeout)


def _serve(queue: "SimpleQueue[_Job | None]") -> None:
    """A worker: run every queued job no caller has claimed, until a
    ``None``. A claimed job costs it one attribute read."""
    while (job := queue.get()) is not None:
        if job.call is not None:
            job.engine._work(job)
        del job     # an idle worker keeps no engine alive


def _stop(queue: "SimpleQueue[_Job | None]", workers: int) -> None:
    for _ in range(workers):
        queue.put(None)


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

    A query runs once, on whichever thread claims it first: a worker,
    or the caller blocked in an untimed ``result()`` / ``exception()``
    (in a fresh :mod:`contextvars` context, as a worker thread has, so
    the caller's open span does not adopt the query's spans). At most
    ``max_workers`` queries run at once, helping callers included. A
    query's scatters run their round trips on the thread that runs it,
    so ``max_workers`` bounds this engine's concurrent exchanges,
    sharded federation or not; the per-peer gates still bound how many
    land on one replica.
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
            # the federation's registry, next to the wire_* truth.
            self.cache: ResultCache | None = ResultCache(
                metrics=federation.metrics)
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
        #: Claims and running slots: ``_running`` queries run now, at
        #: most ``max_workers``, on workers and helping callers alike.
        self._max_running = max_workers
        self._running = 0
        self._slots = threading.Condition(threading.Lock())
        self._queue: SimpleQueue[_Job | None] = SimpleQueue()
        self._workers = [
            threading.Thread(target=_serve, args=(self._queue,),
                             name=f"federation-engine_{n}", daemon=True)
            for n in range(max_workers)]
        for worker in self._workers:
            worker.start()
        # Stops the workers once, at shutdown() or when the engine is
        # collected without one.
        self._stop_workers = weakref.finalize(self, _stop, self._queue,
                                              max_workers)
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "FederationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new queries; the workers run what is queued, then
        stop (joined when ``wait``)."""
        with self._in_flight_lock:
            self._closed = True
        self._stop_workers()
        if wait:
            for worker in self._workers:
                worker.join()

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
        future = _QueryFuture(self, query, at, strategy, run_kwargs)
        with self._in_flight_lock:
            # Queued before shutdown() stops the workers, or refused.
            if self._closed:
                self._admission.release()
                raise EngineClosedError("engine is shut down")
            self._in_flight += 1
            self._queue.put(future._job)
        # A future cancelled before it runs never reaches _run_one, so
        # its admission slot must be released here instead.
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

    # -- who runs a query ---------------------------------------------------

    def _claim(self, job: _Job, wait: bool) -> tuple | None:
        """Take ``job``'s call and a running slot. ``None`` when another
        thread took the call first, or, unless ``wait``, when every
        slot is taken (the call stays for a worker)."""
        with self._slots:
            call = job.call
            if call is None or (not wait
                                and self._running >= self._max_running):
                return None
            job.call = None
            while self._running >= self._max_running:
                self._slots.wait()
            self._running += 1
        return call

    def _work(self, job: _Job) -> None:
        """A worker runs the query unless a caller has claimed it."""
        call = self._claim(job, wait=True)
        if call is not None:
            self._execute(*call)

    def _help(self, job: _Job) -> None:
        """A waiting caller runs its own query if it still can."""
        if job.call is None:
            return
        call = self._claim(job, wait=False)
        if call is not None:
            contextvars.Context().run(self._execute, *call)

    def _execute(self, future: _QueryFuture, query: str, at: str,
                 strategy: Strategy, run_kwargs: dict) -> None:
        try:
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(
                        self._run_one(query, at, strategy, run_kwargs))
                except BaseException as exc:
                    future.set_exception(exc)
        finally:
            with self._slots:
                self._running -= 1
                self._slots.notify()

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
