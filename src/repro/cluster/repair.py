"""The repair engine: re-replicating under-replicated shard fragments.

Eviction (``cluster/membership.py``) removes a dead peer from shard
placements; what remains is a cluster serving some shards from fewer
replicas than :attr:`CollectionSpec.target_replication` promises. This
module closes the loop — the hinted-handoff half of the Dynamo-style
story:

1. :meth:`RepairEngine.scan` walks the catalog, counts each shard's
   *usable* replicas (present, not catalog-down, not membership
   dead/evicted) and enqueues one :class:`RepairTask` per
   under-replicated shard into a **bounded** queue (overflow is
   dropped loudly: ``repair_queue_full`` event, ``repair_failed``
   metric — never silent).
2. :meth:`process` drains tasks — sequentially by default (the chaos
   harness's deterministic mode), or with ``parallel=True`` under a
   thread pool capped at ``max_concurrent``. Each task re-checks the
   live spec first (a shard healed by an earlier task, a revived
   replica, or a raced eviction re-resolves to a no-op).
3. One repair copies the fragment over the **existing ship path** —
   ``transport.fetch_document`` at a usable source replica (memoized
   serializer, cost-model charges into the task's private
   :class:`RunStats`), ``Peer.store`` at the chosen target (fewest
   fragments of the collection, then name order) — then registers the
   new replica via ``catalog.replace`` (reason ``"repair"``): one
   epoch bump, and every router sees the new placement.
4. **Cancellation**: the source dying mid-copy surfaces as the ship
   path's own :class:`~repro.errors.NetworkError`; the task is
   abandoned, re-enqueued (up to ``max_attempts``), and the retry
   re-selects source *and* target against the then-current membership
   view.

Each attempt runs inside a ``repair`` span — under the ambient trace
when one exists, else under a private tracer folded into the fleet
monitor's profiler — with the ship charges bound to it, so
``explain(analyze=True)`` and the profiler show repair traffic like
any other wire work. Events: ``repair_started`` / ``repair_completed``
/ ``repair_failed``; metrics: ``repair_*`` series.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace

from repro.cluster.catalog import (
    ClusterCatalog, ClusterError, CollectionSpec, ShardInfo, with_replicas,
)
from repro.cluster.membership import EVICTED
from repro.cluster.rebalance import LoadScorer
from repro.errors import NetworkError
from repro.net.stats import RunStats
from repro.obs.trace import Tracer, bind_stats_span, child_span, current_span

__all__ = ["RepairTask", "RepairEngine"]


@dataclass
class RepairTask:
    """One under-replicated shard awaiting re-replication."""

    collection: str
    shard_index: int
    attempts: int = 0

    @property
    def key(self) -> tuple[str, int]:
        return (self.collection, self.shard_index)


class RepairEngine:
    """Restores every shard to its collection's target replication.

    Construct standalone (``RepairEngine(federation, catalog=...)``)
    or wire with :meth:`attach`, which also subscribes to the
    membership tracker: every eviction triggers a scan, and (with
    ``auto_repair``, the default) immediate processing — detect, evict,
    re-replicate, serve, without an operator in the loop.
    """

    def __init__(self, federation=None, catalog: ClusterCatalog | None = None,
                 membership=None, *, max_queue: int = 64,
                 max_concurrent: int = 2, max_attempts: int = 3,
                 auto_repair: bool = True, events=None, metrics=None):
        if max_queue < 1:
            raise ClusterError(f"max_queue {max_queue} must be >= 1")
        if max_concurrent < 1:
            raise ClusterError(
                f"max_concurrent {max_concurrent} must be >= 1")
        if max_attempts < 1:
            raise ClusterError(
                f"max_attempts {max_attempts} must be >= 1")
        self.federation = federation
        self.catalog = catalog if catalog is not None else (
            federation.catalog if federation is not None else None)
        self.membership = membership
        self.max_queue = max_queue
        self.max_concurrent = max_concurrent
        self.max_attempts = max_attempts
        self.auto_repair = auto_repair
        self.events = events
        self._lock = threading.Lock()
        self._queue: deque[RepairTask] = deque()
        self._queued: set[tuple[str, int]] = set()
        self._completed = 0
        self._failed = 0
        self._init_metrics(metrics)

    def _init_metrics(self, metrics) -> None:
        self._m_enqueued = self._m_completed = None
        self._m_failed = self._m_bytes = self._m_depth = None
        if metrics is None:
            return
        self._m_enqueued = metrics.counter(
            "repair_enqueued_total", "repair tasks enqueued",
            ("collection",))
        self._m_completed = metrics.counter(
            "repair_completed_total", "fragments re-replicated",
            ("collection",))
        self._m_failed = metrics.counter(
            "repair_failed_total",
            "repair attempts abandoned (source died, no candidates, "
            "queue overflow)", ("collection",))
        self._m_bytes = metrics.counter(
            "repair_bytes_total", "fragment bytes shipped by repair",
            ("collection",))
        self._m_depth = metrics.gauge(
            "repair_queue_depth", "repair tasks currently queued")

    # -- wiring ---------------------------------------------------------------

    def attach(self, federation) -> "RepairEngine":
        """Install on ``federation``: adopt its catalog / membership /
        monitor event log / metrics registry, expose as
        ``federation.repair``, and subscribe to membership evictions."""
        self.federation = federation
        if self.catalog is None:
            self.catalog = federation.catalog
        if self.membership is None:
            self.membership = getattr(federation, "membership", None)
        monitor = getattr(federation, "monitor", None)
        if self.events is None and monitor is not None:
            self.events = monitor.events
        if self._m_depth is None:
            self._init_metrics(federation.metrics)
        federation.repair = self
        if self.membership is not None:
            self.membership.subscribe(self._on_membership)
        return self

    def _on_membership(self, peer: str, old: str, new_state: str) -> None:
        if new_state != EVICTED:
            return
        self.scan()
        if self.auto_repair:
            self.process()

    # -- queue ----------------------------------------------------------------

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"pending": len(self._queue),
                    "completed": self._completed,
                    "failed": self._failed}

    def scan(self) -> int:
        """Enqueue one task per under-replicated shard; returns how
        many were enqueued (already-queued shards are not duplicated)."""
        if self.catalog is None:
            raise ClusterError("repair engine has no catalog")
        enqueued = 0
        scorer = self._scorer()
        for spec in self.catalog.collections():
            target = spec.target_replication
            for shard in spec.shards:
                usable = [r for r in shard.replicas if scorer.usable(r)]
                if len(usable) >= target:
                    continue
                if self._enqueue(RepairTask(spec.name, shard.index)):
                    enqueued += 1
        return enqueued

    def _enqueue(self, task: RepairTask) -> bool:
        with self._lock:
            if task.key in self._queued:
                return False
            if len(self._queue) >= self.max_queue:
                overflow = True
            else:
                overflow = False
                self._queue.append(task)
                self._queued.add(task.key)
                depth = len(self._queue)
        if overflow:
            with self._lock:
                self._failed += 1
            if self._m_failed is not None:
                self._m_failed.labels(task.collection).inc()
            if self.events is not None:
                self.events.emit(
                    "repair_queue_full",
                    f"repair queue full ({self.max_queue}); dropping "
                    f"{task.collection}#s{task.shard_index}",
                    severity="error", collection=task.collection,
                    shard=task.shard_index)
            return False
        if self._m_enqueued is not None:
            self._m_enqueued.labels(task.collection).inc()
            self._m_depth.set(depth)
        return True

    def _pop(self) -> RepairTask | None:
        with self._lock:
            if not self._queue:
                return None
            task = self._queue.popleft()
            self._queued.discard(task.key)
            depth = len(self._queue)
        if self._m_depth is not None:
            self._m_depth.set(depth)
        return task

    # -- processing -----------------------------------------------------------

    def process(self, max_tasks: int | None = None,
                parallel: bool = False) -> int:
        """Drain the tasks queued *at call time*; returns how many
        completed a copy. A task that fails and re-enqueues waits for
        the next call — one ``process()`` never chases its own retries.
        Sequential by default (deterministic order); ``parallel=True``
        runs up to ``max_concurrent`` tasks at once."""
        budget = self.pending()
        if max_tasks is not None:
            budget = min(budget, max_tasks)
        if not parallel:
            done = 0
            for _ in range(budget):
                task = self._pop()
                if task is None:
                    break
                if self._repair_one(task):
                    done += 1
            return done
        tasks: list[RepairTask] = []
        for _ in range(budget):
            task = self._pop()
            if task is None:
                break
            tasks.append(task)
        if not tasks:
            return 0
        with ThreadPoolExecutor(
                max_workers=min(self.max_concurrent, len(tasks)),
                thread_name_prefix="cluster-repair") as pool:
            return sum(pool.map(self._repair_one, tasks))

    def run_until_converged(self, max_rounds: int = 8) -> bool:
        """Scan+process until no shard is under-replicated (or nothing
        improves for a round). True when fully replicated."""
        for _ in range(max_rounds):
            if self.scan() == 0 and self.pending() == 0:
                return True
            if self.process() == 0:
                break
        return self.scan() == 0 and self.pending() == 0

    # -- one repair -----------------------------------------------------------

    def _scorer(self) -> LoadScorer:
        """The usability test and load ranking shared with the
        rebalancer, over this engine's catalog and membership."""
        return LoadScorer(self.federation, catalog=self.catalog,
                          membership=self.membership)

    def _candidates(self, spec: CollectionSpec,
                    shard: ShardInfo) -> list[str]:
        """Target peers not already holding the shard, ranked by the
        load-aware scorer shared with the rebalancer: alive and
        non-draining, healthy before demoted, then coolest first
        (fragment bytes + in-flight + served traffic) — so repair
        stops piling fragments onto an idle-but-already-full peer."""
        if self.federation is None:
            raise ClusterError("repair engine has no federation")
        return self._scorer().rank(exclude=set(shard.replicas))

    def _repair_one(self, task: RepairTask) -> bool:
        try:
            spec = self.catalog.get(task.collection)
        except ClusterError:
            return False  # collection dropped since the scan
        shard = next((s for s in spec.shards
                      if s.index == task.shard_index), None)
        if shard is None:
            return False
        scorer = self._scorer()
        usable = [r for r in shard.replicas if scorer.usable(r)]
        if len(usable) >= spec.target_replication:
            return False  # healed since the scan (revival, earlier task)
        if not usable:
            return self._give_up(task, "no live source replica")
        candidates = self._candidates(spec, shard)
        if not candidates:
            return self._give_up(task, "no healthy target peer")
        source, target = usable[0], candidates[0]
        if self.events is not None:
            self.events.emit(
                "repair_started",
                f"re-replicating {task.collection}#s{task.shard_index} "
                f"{source} -> {target} (attempt {task.attempts + 1})",
                severity="info", collection=task.collection,
                shard=task.shard_index, source=source, dest=target)
        try:
            nbytes = self._copy(spec, shard, source, target)
        except NetworkError as exc:
            # The source died (or faulted) mid-copy: cancel this
            # attempt and re-resolve source/target on the retry.
            task.attempts += 1
            if self.events is not None:
                self.events.emit(
                    "repair_failed",
                    f"repair of {task.collection}#s{task.shard_index} "
                    f"from {source} aborted: {type(exc).__name__} "
                    f"(attempt {task.attempts}/{self.max_attempts})",
                    severity="warning", collection=task.collection,
                    shard=task.shard_index, source=source,
                    error=type(exc).__name__)
            if task.attempts < self.max_attempts:
                self._enqueue(task)
            else:
                self._give_up(task, "max attempts exhausted")
            return False
        self._register(task, target)
        if self.membership is not None:
            self.membership.watch(target)
        with self._lock:
            self._completed += 1
        if self._m_completed is not None:
            self._m_completed.labels(task.collection).inc()
            self._m_bytes.labels(task.collection).inc(nbytes)
        if self.events is not None:
            self.events.emit(
                "repair_completed",
                f"{task.collection}#s{task.shard_index} re-replicated "
                f"onto {target} ({nbytes} bytes)",
                severity="info", collection=task.collection,
                shard=task.shard_index, source=source, dest=target,
                bytes=nbytes)
        return True

    def _copy(self, spec: CollectionSpec, shard: ShardInfo,
              source: str, target: str) -> int:
        """Ship the fragment source → target over the existing data-
        shipping path, inside a ``repair`` span (ambient trace when one
        exists, else a private tracer folded into the monitor)."""
        transport = self.federation.transport
        source_peer = self.federation.peer(source)
        target_peer = self.federation.peer(target)
        stats = RunStats()

        def ship() -> int:
            text, size = transport.fetch_document(
                source_peer, shard.local_name, stats)
            target_peer.store(shard.local_name, text)
            return size

        monitor = (getattr(self.federation, "monitor", None)
                   if self.federation is not None else None)
        attrs = dict(collection=spec.name, shard=shard.index,
                     source=source, dest=target)
        if current_span() is None and monitor is not None:
            tracer = Tracer()
            with tracer.start("repair", **attrs) as span, \
                    bind_stats_span(stats, span):
                nbytes = ship()
                span.set(bytes=nbytes)
            monitor.observe_trace(tracer.root)
            return nbytes
        with child_span("repair", **attrs) as span, \
                bind_stats_span(stats, span):
            nbytes = ship()
            if span is not None:
                span.set(bytes=nbytes)
        return nbytes

    def _register(self, task: RepairTask, target: str) -> None:
        """Add ``target`` to the shard's placement in the *current*
        spec (re-read: the layout may have changed during the copy)."""
        spec = self.catalog.get(task.collection)
        new_shards = tuple(
            with_replicas(s, s.replicas + (target,))
            if s.index == task.shard_index and target not in s.replicas
            else s
            for s in spec.shards)
        self.catalog.replace(dc_replace(spec, shards=new_shards),
                             reason="repair", shard=task.shard_index,
                             target=target)

    def _give_up(self, task: RepairTask, reason: str) -> bool:
        with self._lock:
            self._failed += 1
        if self._m_failed is not None:
            self._m_failed.labels(task.collection).inc()
        if self.events is not None:
            self.events.emit(
                "repair_failed",
                f"repair of {task.collection}#s{task.shard_index} "
                f"abandoned: {reason}",
                severity="error", collection=task.collection,
                shard=task.shard_index, reason=reason)
        return False
